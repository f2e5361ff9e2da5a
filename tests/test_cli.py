"""Command-line interface: parsing, report schema, exit codes, determinism."""

import contextlib
import copy
import dataclasses
import json
import math
import tracemalloc
import warnings
from fractions import Fraction
from itertools import chain, product

import numpy as np
import pytest
from conftest import (
    MODEL_REGIMES,
    MODEL_SCALES,
    kramers_spectrum,
    odd_real_spectrum,
    scaled_model,
    with_spectrum,
)

from pseudoherm import (
    DegenerateModelError,
    EvolutionRangeError,
    ModelParams,
    NotDiagonalizableError,
    effective_hamiltonian,
    kramers_test,
    probe_asymmetry,
    probe_probability,
    spin_flip_probability,
)
from pseudoherm import cli, spectral, spin_rotation, symmetry
from pseudoherm.cli import (
    AnalysisReport,
    MatrixFile,
    MatrixFormatError,
    _g12,
    _pairs,
    build_analysis_report,
    main,
)


def _fmt(x):
    """A float as the CLI prints it: 12 significant digits."""
    return f"{float(x):.12g}"


def _write(tmp_path, text):
    path = tmp_path / "matrix.txt"
    path.write_text(text)
    return str(path)


def _matrix_text(h):
    """A matrix file spelling ``h`` exactly: each part by ``repr``."""
    tokens = " ".join(f"{v.real!r}+{v.imag!r}i".replace("+-", "-")
                      for v in np.ravel(h).tolist())
    return f"{len(h)} {tokens}"


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _split_model_output(out):
    head, _, tail = out.partition("\n\n")
    lines = [line for line in tail.splitlines() if line]
    return json.loads(head), lines[0], lines[1:]


# ---------------------------------------------------------------- parsing

def test_matrix_file_token_forms():
    parsed = MatrixFile.parse("2  1+2i  -3i  2.5  4j")
    assert parsed.dim == 2
    assert parsed.entries.tolist() == [1 + 2j, -3j, 2.5 + 0j, 4j]
    assert np.array_equal(parsed.to_matrix(),
                          np.array([[1 + 2j, -3j], [2.5, 4j]]))
    scientific = MatrixFile.parse("1 1e-3+2e2I")
    assert scientific.entries.tolist() == [0.001 + 200j]
    # a token is whatever complex() accepts once i and I read as j
    accepted = MatrixFile.parse("2 4J (1+2i) 1_0 (-3)")
    assert accepted.entries.tolist() == [4j, 1 + 2j, 10 + 0j, -3 + 0j]
    for entries in (parsed.entries, scientific.entries, accepted.entries):
        assert all(type(z) is complex for z in entries.tolist())


def test_matrix_file_row_major_order():
    # tokens need not follow the rows, and tabs and CRLF separate them too
    for text in ("2\n1 2\n3 4\n", "2\n1 2 3\n4\n", "2\r\n1\t2\r\n3\t4\r\n"):
        parsed = MatrixFile.parse(text)
        assert parsed.entries.dtype == complex
        assert parsed.entries.shape == (parsed.dim ** 2,)
        matrix = parsed.to_matrix()
        assert np.array_equal(matrix, np.array([[1, 2], [3, 4]]))
        # the matrix is a view of the parsed entries, not a copy
        assert np.shares_memory(matrix, parsed.entries)


def test_matrix_file_rejections():
    for text in ("", "x 1", "0", "-1 1", "2 1 2 3", "2 1 2 3 4 5",
                 "1 1+bogus", "1 nan", "1 inf+2i", "1 1e500"):
        with pytest.raises(MatrixFormatError):
            MatrixFile.parse(text)
    # the first offending token in file order is named, with its kind
    for text, message in (("2 1 nan x 4", "non-finite entry 'nan'"),
                          ("2 1 x nan 4", "bad complex token 'x'"),
                          ("1 1e500", "non-finite entry '1e500'"),
                          ("2 1 2 3 oops", "bad complex token 'oops'")):
        with pytest.raises(MatrixFormatError) as caught:
            MatrixFile.parse(text)
        assert str(caught.value) == message


def test_matrix_file_dimension_is_quoted_as_written():
    # 'i' reads as 'j' in every token, but the message quotes the file
    for text, token in (("2i 1 2 3 4", "2i"), ("3I\n1", "3I"), ("xi", "xi")):
        with pytest.raises(MatrixFormatError) as caught:
            MatrixFile.parse(text)
        assert str(caught.value) == f"first token must be the dimension, got {token!r}"
    # a bad entry after it is still named as written
    with pytest.raises(MatrixFormatError, match="bad complex token 'xi'"):
        MatrixFile.parse("1 xi")


# ---------------------------------------------------------------- analyze

def test_analyze_even_degenerate_matrix(tmp_path, capsys):
    path = _write(tmp_path, "2 2 0 0 2")
    code, out, _ = _run(capsys, ["analyze", path])
    assert code == 0
    report = json.loads(out)
    assert report["pseudohermitian"] is True
    assert report["all_even"] is True
    assert report["admits_symmetry"] is True
    assert report["spectrum"] == [
        {"value": [2.0, 0.0], "multiplicity": 2, "kind": "real"}]
    assert report["real_degeneracies"] == [[2.0, 2]]
    assert report["intertwiner"]["residual"] <= 1e-9
    assert report["witness_residuals"]["commutator"] <= 1e-9
    assert report["witness_residuals"]["square"] <= 1e-9


def test_analyze_odd_degeneracies(tmp_path, capsys):
    path = _write(tmp_path, "2 1 0 0 2")
    code, out, _ = _run(capsys, ["analyze", path])
    assert code == 0
    report = json.loads(out)
    assert report["pseudohermitian"] is True
    assert report["all_even"] is False
    assert report["admits_symmetry"] is False
    assert report["witness_residuals"] is None
    assert report["intertwiner"] is not None


def test_analyze_unpaired_complex_spectrum(tmp_path, capsys):
    path = _write(tmp_path, "2 1i 0 0 2i")
    code, out, _ = _run(capsys, ["analyze", path])
    assert code == 0
    report = json.loads(out)
    assert report["pseudohermitian"] is False
    assert report["intertwiner"] is None
    assert report["witness_residuals"] is None


def test_analyze_defective_matrix_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "2 1 1 0 1")
    code, _, err = _run(capsys, ["analyze", path])
    assert code == 2
    assert "numeric error" in err


def test_analyze_ambiguous_spectrum_exits_2(tmp_path, capsys):
    # at tol=0.5 the levels 1 and 2 merge, but the witness built on that
    # merge leaves a commutator residual of 0.63: refused, not admitted
    path = _write(tmp_path, "2 1 0 0 2")
    code, out, err = _run(capsys, ["analyze", "--tol", "0.5", path])
    assert (code, out) == (2, "")
    assert "ambiguous spectrum" in err
    # 10 and 10.4 merge and 1+5.15i counts as real, with no witness; the
    # metric built on those levels leaves a residual of 0.67 over a bound
    # of 0.5: refused before it is formatted
    path = _write(tmp_path, "3 10 0 0 0 10.4 0 0 0 1+5.15i")
    code, out, err = _run(capsys, ["analyze", "--tol", "0.5", path])
    assert (code, out) == (2, "")
    assert "ambiguous spectrum: metric intertwining residual 6.709e-01" in err


def test_analyze_input_failures_exit_3(tmp_path, capsys):
    bad = _write(tmp_path, "2 1 2 3 oops")
    assert _run(capsys, ["analyze", bad])[0] == 3
    assert _run(capsys, ["analyze", str(tmp_path / "missing.txt")])[0] == 3
    # non-finite tolerances are input errors, also where a NaN ceiling would
    # otherwise let a Jordan block through
    for text, option in (("2 1 0 0 2", "--tol=nan"), ("2 1 0 0 2", "--tol=inf"),
                         ("2 0 1 0 0", "--cond-ceiling=nan")):
        code, out, err = _run(capsys, ["analyze", _write(tmp_path, text), option])
        assert (code, out) == (3, "")
        assert "must be finite and positive" in err


def test_analyze_overflowing_norm_exits_3(tmp_path, capsys):
    # finite entries whose squared norm overflows: refused before any
    # residual is divided by an infinite norm
    for text in ("2\n1e300 1e300 1e300 1e300", "2 1e200 0 0 -1e200",
                 "2 1e154 0 0 1e154"):
        code, out, err = _run(capsys, ["analyze", _write(tmp_path, text)])
        assert (code, out) == (3, "")
        assert err == ("pseudoherm: input error: the squared Frobenius norm "
                       "of the matrix must be finite\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="squared Frobenius norm"):
            kramers_test(np.diag([1e300, 1e300]))
    assert caught == []
    # the largest entries whose squared norm is still finite analyze
    code, out, err = _run(capsys, ["analyze", _write(tmp_path, "2 1e150 0 0 1e150")])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["real_degeneracies"] == [[1e150, 2]] and report["admits_symmetry"]


# floats whose '%.12g' and repr spellings differ, or that sit next to them
EDGE_VALUES = np.array([
    [complex(5e-324, 2.5e-310), complex(1e12, -1e12), complex(-0.0, 42.0)],
    [complex(9.99999999999e11, 123456789012.0), complex(1e15, 1e16),
     complex(-1e-5, 1e-4)],
    [complex(1234567890123.0, 1.5e16), complex(-3.0, 0.0), complex(0.5, -0.0)],
])


def test_metric_block_is_what_json_writes():
    # subnormal parts take json's spelling and integral ones its '.0'
    m = np.array([[5e-324 + 2.5e-320j, 1e-310], [123456789012 + 1e16j, -3 + 1e-5j]])
    matrix = _pairs(m).tolist()
    values = cli._metric_array({"matrix": matrix})
    assert values is not None
    block = cli._metric_text(values, cli._g12_round(values.ravel()), "", "")
    # the parts are rounded already: the array serves as its own rounding
    assert cli._metric_text(_pairs(m), _pairs(m), "", "") == block
    mark = json.dumps(cli._MATRIX_MARK)
    spliced = json.dumps({"intertwiner": {"matrix": cli._MATRIX_MARK}}, indent=2)
    assert spliced.replace(mark, block) == json.dumps(
        {"intertwiner": {"matrix": matrix}}, indent=2)


def _rows_per_pass(n):
    """Rows of an n x n metric that one pass of the render writes."""
    return max(cli._G12_CHUNK // (2 * n), 1)


def _hermitian_matrix(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return z + z.conj().T


def test_metric_of_several_passes_is_what_json_writes():
    rng = np.random.default_rng(71)
    # n = 50 takes one full pass of 40 rows and one of 10; n = 70 two of
    # 29 rows and one of 12
    for n in (50, 70):
        assert 2 * n * n > cli._G12_CHUNK and n % _rows_per_pass(n)
        for h in (with_spectrum(rng, np.linspace(-3.0, 3.0, n)), _hermitian_matrix(rng, n)):
            report = build_analysis_report(h)
            assert cli._metric_array(report.intertwiner) is not None
            assert report.to_json() == json.dumps(dataclasses.asdict(report), indent=2)


def test_edge_parts_in_a_later_pass_are_what_json_writes():
    # integral, subnormal, signed zero and 1e12..1e16 parts, whose '%.12g'
    # and repr spellings differ, in the second and the last, short pass
    rng = np.random.default_rng(73)
    n = 50
    report = build_analysis_report(with_spectrum(rng, np.linspace(-3.0, 3.0, n)))
    edges = list(chain.from_iterable(_pairs(EDGE_VALUES).tolist()))
    assert len(edges) == 9
    matrix = copy.deepcopy(report.intertwiner["matrix"])
    for row in (_rows_per_pass(n), n - 2, n - 1):
        assert row >= _rows_per_pass(n)
        matrix[row][3:3 + len(edges)] = copy.deepcopy(edges)
    edited = dataclasses.replace(report, intertwiner={**report.intertwiner,
                                                      "matrix": matrix})
    assert cli._metric_array(edited.intertwiner) is not None
    assert edited.to_json() == json.dumps(dataclasses.asdict(edited), indent=2)
    assert AnalysisReport.from_json(edited.to_json()) == edited


def _assert_percent_rows(cells: np.ndarray) -> None:
    """``_csv_rows`` of ``cells`` is the reference, each cell written by
    ``'%.12g'`` on its own; a failure names the first row that differs."""
    rows = cli._csv_rows(cells).split("\n")
    expected = [",".join("%.12g" % v for v in row) for row in cells.tolist()] + [""]
    wrong = next((k for k, pair in enumerate(zip(rows, expected))
                  if pair[0] != pair[1]), None)
    assert wrong is None, (wrong, rows[wrong], expected[wrong])
    assert len(rows) == len(expected)


def _writer_corpus():
    """~450k floats that probe the '%.12g' writer: random bit patterns,
    both sides of every 10^k, integers, 13-digit ties and specials, each
    with its negation, shuffled."""
    rng = np.random.default_rng(97)
    bits = np.frombuffer(rng.bytes(8 * 201_000), dtype=float)
    powers = [float(f"1e{k}") for k in range(-310, 309)]
    # the 13th digit a tie, in 13-digit integers
    halves = rng.integers(10 ** 11, 10 ** 12, 2000) * 10 + 5
    specials = [1234567890125.0, 9.9999999999995, 999999999999.5, 1e-4, 1e12,
                0.0, -0.0, 5e-324, 2.5e-320, 1e-310, 2.2250738585072009e-308,
                2.2250738585072014e-308, 1.7976931348623157e308,
                np.inf, -np.inf, np.nan, 2.0 ** 53, 2.0 ** 53 - 1]
    with np.errstate(over="ignore"):  # the largest float's upper neighbour
        corpus = np.concatenate([
            bits[np.isfinite(bits)][:200_000],
            np.nextafter(powers, -np.inf), powers, np.nextafter(powers, np.inf),
            rng.integers(-2 ** 53, 2 ** 53, 20_000, endpoint=True).astype(float),
            halves.astype(float),
            specials, np.nextafter(specials, -np.inf), np.nextafter(specials, np.inf)])
    corpus = np.concatenate([corpus, -corpus])
    return corpus[rng.permutation(corpus.size)]


def test_g12_writer_matches_percent_format(monkeypatch):
    corpus = _writer_corpus()
    # one and five columns; each table spans many passes of the writer
    for width in (1, 5):
        cells = corpus[:corpus.size // width * width].reshape(-1, width)
        assert cells.size > 10 * cli._G12_CHUNK
        _assert_percent_rows(cells)
    texts = ["%.12g" % v for v in corpus[:5000].tolist()]
    assert cli._g12_texts(corpus[:5000]) == texts
    # a first guess two decades off settles in no step: '%.12g' writes it
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + 2)
    _assert_percent_rows(corpus[:20_000].reshape(-1, 5))


def test_g12_writer_covers_every_layout():
    # every notation kind at its edge exponents, each with every digit
    # count and both signs
    exponents = [*range(-5, 13), -99, -100, 99, 100, -258, -259, 279, 280]
    cells = [float(f"{sign}{digits}e{e - count + 1}")
             for e in exponents for count in range(1, 13) for sign in "+-"
             for digits in ["".join(str(1 + 7 * k % 9) for k in range(count))]]
    assert len({"%.12g" % v for v in cells}) == len(cells)
    # cells '%.12g' writes itself, and halves
    cells += [np.nan, np.inf, -np.inf, 5e-324, -1e-270, 1e-300, 1e300,
              0.5, 2.5, 999999999999.5]
    values = np.array(cells)
    # at every shift of every width, each cell also ends a row
    for width in (1, 2, 3, 5, 7):
        for shift in range(width):
            padded = np.concatenate([np.full(shift, 1.5), values])
            padded = np.concatenate([padded, np.full(-padded.size % width, 1.5)])
            _assert_percent_rows(padded.reshape(-1, width))
    _assert_rounds_as_percent(values)
    assert len(cli._g12_tables().templates) == 20 * 12 + 19


def test_g12_power_table_rows_are_nearest_doubles():
    # row i holds 10^k for k = 11 - e, e from the top of _G12_EXPONENTS
    # down: hi is the double nearest 10^k, lo the double nearest the rest,
    # and the split halves add up to hi
    low, high = cli._G12_EXPONENTS
    powers = cli._g12_tables().powers
    assert len(powers) == high - low + 1
    for k, (hi, top, bottom, lo) in zip(range(11 - high, 12 - low), powers.tolist()):
        exact = Fraction(10) ** k
        assert hi == float(exact), k
        assert lo == float(exact - Fraction(hi)), k
        assert top + bottom == hi, k


def _assert_rounds_as_percent(values: np.ndarray) -> None:
    """``_g12_round`` of ``values`` is ``float('%.12g' % v)`` bit for bit,
    the sign of zero and of nan included; a failure names the first
    value that differs."""
    got = cli._g12_round(values)
    assert got.shape == values.shape
    expected = np.array([float("%.12g" % v) for v in values.tolist()])
    wrong = np.flatnonzero(got.view(np.int64) != expected.view(np.int64))
    assert wrong.size == 0, (values[wrong[0]], got[wrong[0]], expected[wrong[0]])


def test_g12_round_matches_percent_format(monkeypatch):
    tiny = np.finfo(float).tiny
    subnormals = np.concatenate([[5e-324, tiny - 5e-324, tiny / 3],
                                 np.random.default_rng(7).uniform(0, tiny, 1000)])
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    with np.errstate(over="ignore"):
        sides = [np.nextafter(powers, -np.inf), np.nextafter(powers, np.inf)]
    # 12-digit decimals m 10^7, many of them halfway between two doubles
    midpoints = np.random.default_rng(11).integers(10 ** 11, 10 ** 12, 2000) * 1e7
    edges = np.concatenate([EDGE_VALUES.view(float).ravel(), [np.inf, -np.inf, np.nan],
                            subnormals, -subnormals, powers, -powers, *sides, midpoints])
    corpus = np.concatenate([_writer_corpus(), edges])
    _assert_rounds_as_percent(corpus)
    # a first guess two decades off settles in no step: '%.12g' rounds it
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + 2)
    _assert_rounds_as_percent(corpus[:20_000])


def _traced_peak(call):
    """Peak bytes that ``call()`` allocates on top of what is live."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_g12_round_works_in_bounded_passes():
    values = np.random.default_rng(79).standard_normal(1 << 17)
    cli._g12_round(values[:8])  # the writer's tables are built on first use
    # the result is one input's bytes; a pass's temporaries, a few
    # _G12_CHUNK cells each, come on top
    assert _traced_peak(lambda: cli._g12_round(values)) <= 2 * values.nbytes


def test_to_json_holds_about_two_copies_of_its_text():
    # a Hermitian matrix gives a metric at any n; the text is ~1.2 MB
    report = build_analysis_report(_hermitian_matrix(np.random.default_rng(83), 128))
    text = report.to_json()
    assert len(text) > 10 ** 6
    # the block and the output; the floats' array and json's text are small
    assert _traced_peak(report.to_json) <= 3 * len(text)


class _Sink:
    """A stdout that keeps only the count of characters written to it."""

    size = 0

    def write(self, text):
        self.size += len(text)

    def flush(self):
        pass


def test_analyze_holds_no_pair_lists(tmp_path):
    # as lists of pairs, the metric's 2 n^2 floats outweigh its text
    path = _write(tmp_path, _matrix_text(_hermitian_matrix(np.random.default_rng(97), 128)))
    with contextlib.redirect_stdout(_Sink()):
        assert main(["analyze", path]) == 0  # the writer's tables are built on first use
    sink = _Sink()
    with contextlib.redirect_stdout(sink):
        peak = _traced_peak(lambda: main(["analyze", path]))
    assert sink.size > 10 ** 6
    # the file's text and its parse, then the rounded metric and the
    # output: about 2.7 outputs, against about 4.5 with the metric held as
    # lists of pairs
    assert peak <= 3.5 * sink.size


def test_analyze_report_round_trip():
    rng = np.random.default_rng(43)
    for matrix in (np.diag([2.0, 2.0]), np.diag([1j, 2j]),
                   np.array([[1.0, 0.4j], [-0.15j, 1.0]]),
                   with_spectrum(rng, kramers_spectrum(rng, 32))):
        report = build_analysis_report(matrix)
        assert AnalysisReport.from_json(report.to_json()) == report
        assert report.to_json() == json.dumps(dataclasses.asdict(report), indent=2)
    # metrics holding edge values, unrounded floats, non-finite values,
    # ints, ragged rows and an empty matrix are written as json writes them
    unrounded = rng.standard_normal((3, 5, 2)).tolist()
    for metric in (_pairs(EDGE_VALUES).tolist(), unrounded,
                   [[[0.5, float("inf")], [float("-inf"), 1.0]]],
                   [[[1, 0.5]], [[2.0, True]]], [[[0.5, 1.0]], [[1.5, 2.0], [3.0, 4.0]]],
                   [[[0.5, 1.0, 2.0]]], []):
        edited = dataclasses.replace(report, intertwiner={"matrix": metric,
                                                          "residual": 1e-13})
        assert AnalysisReport.from_json(edited.to_json()) == edited
        assert edited.to_json() == json.dumps(dataclasses.asdict(edited), indent=2)
    # a grid of finite floats takes the writer, rounded or not
    for metric in (_pairs(EDGE_VALUES).tolist(), unrounded):
        assert cli._metric_array({"matrix": metric}) is not None
    # a string field that spells the writer's stand-in for the metric
    odd = dataclasses.replace(report, version="\0intertwiner matrix\0")
    assert odd.to_json() == json.dumps(dataclasses.asdict(odd), indent=2)

def _written_as_json(report):
    return report.to_json() == json.dumps(dataclasses.asdict(report), indent=2)


def _edits():
    """In-place edits of a built report's metric, each by name."""
    def equal_float(m):
        new = m[0][0][0] + 0.0
        assert new == m[0][0][0] and new is not m[0][0][0]
        m[0][0][0] = new

    def negative_zero(m):
        assert m[0][0][1] == 0.0  # imaginary part of a Hermitian diagonal
        m[0][0][1] = -0.0

    def other_float(m):
        m[1][0][0] = 0.5 if m[1][0][0] != 0.5 else 0.25

    def next_float(m):
        # one ulp off its 12-digit value: no '%.12g' text spells it
        m[1][0][0] = math.nextafter(m[1][0][0], math.inf)

    def three_entries(m):
        m[0][1].append(1.0)

    def pair_moved(m):
        # same float objects, one pair longer and one shorter
        m[0][0].append(m[0][1].pop(0))

    def drop_row(m):
        del m[-1]

    def reshape(m):
        # the same pairs, in the same order, as one row
        flat = [pair for row in m for pair in row]
        m[:] = [flat]

    def tuple_pair(m):
        m[0][0] = tuple(m[0][0])

    return (equal_float, negative_zero, other_float, next_float, three_entries,
            pair_moved, drop_row, reshape, tuple_pair)


def test_edited_metric_is_written_afresh():
    rng = np.random.default_rng(47)
    h = with_spectrum(rng, kramers_spectrum(rng, 4))
    for edit in _edits():
        report = build_analysis_report(h)
        assert _written_as_json(report)
        edit(report.intertwiner["matrix"])
        assert _written_as_json(report), edit.__name__
        # a shallow copy shares the metric; replace() builds a new report
        assert _written_as_json(copy.copy(report)), edit.__name__
        assert _written_as_json(dataclasses.replace(report, dim=5)), edit.__name__
    # a 1 x 1 metric grown by a pair keeps every float it had, in order
    single = build_analysis_report(np.array([[2.0]]))
    single.intertwiner["matrix"][0].append([0.5, 0.25])
    assert _written_as_json(single)
    report = build_analysis_report(h)
    shallow = copy.copy(report)
    shallow.intertwiner = copy.deepcopy(report.intertwiner)
    shallow.intertwiner["matrix"][0][0][1] = -0.0
    assert _written_as_json(shallow) and _written_as_json(report)
    assert shallow.to_json() != report.to_json()
    # the report stores no text: a read-back report is equal in every view
    parsed = AnalysisReport.from_json(report.to_json())
    assert parsed == report and repr(parsed) == repr(report)
    assert dataclasses.asdict(parsed) == dataclasses.asdict(report)
    assert [f.name for f in dataclasses.fields(report)] == list(
        json.loads(report.to_json()))


def test_each_metric_is_formatted_once(monkeypatch):
    formatted = []
    cells = []
    g12_texts = cli._g12_texts

    def counted(values):
        formatted.append(len(values))
        cells.append(np.array(values))
        return g12_texts(values)

    monkeypatch.setattr(cli, "_g12_texts", counted)
    rng = np.random.default_rng(53)
    z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    # a Hermitian matrix's metric holds noise near 1e-16 off the diagonal
    for n, h in ((6, with_spectrum(rng, kramers_spectrum(rng, 6))),
                 (5, with_spectrum(rng, odd_real_spectrum(rng, 5))),
                 (6, z + z.conj().T)):
        formatted.clear()
        report = build_analysis_report(h)
        text = report.to_json()
        # once, and no float was rounded through its text
        assert formatted == [2 * n * n]
        assert text == json.dumps(dataclasses.asdict(report), indent=2)
    # n = 48 renders in passes of 4032 and 576 cells: together the calls
    # cover the metric's 2 n^2 cells in order, each exactly once
    n = 48
    cells.clear()
    report = build_analysis_report(_hermitian_matrix(rng, n))
    text = report.to_json()
    assert [values.size for values in cells] == [4032, 576]
    metric = np.array(list(chain.from_iterable(chain.from_iterable(
        report.intertwiner["matrix"]))))
    assert np.concatenate(cells).tobytes() == metric.tobytes()
    assert text == json.dumps(dataclasses.asdict(report), indent=2)


def test_read_back_and_copied_reports_write_the_metric_by_the_writer(monkeypatch):
    formatted = []
    g12_texts = cli._g12_texts

    def counted(values):
        formatted.append(len(values))
        return g12_texts(values)

    monkeypatch.setattr(cli, "_g12_texts", counted)
    rng = np.random.default_rng(59)
    report = build_analysis_report(with_spectrum(rng, kramers_spectrum(rng, 6)))
    text = report.to_json()
    for other in (AnalysisReport.from_json(text), dataclasses.replace(report),
                  dataclasses.replace(report, intertwiner=copy.deepcopy(report.intertwiner))):
        formatted.clear()
        assert other.to_json() == text
        assert formatted.count(2 * 6 * 6) == 1
        assert text == json.dumps(dataclasses.asdict(other), indent=2)


def test_cli_writes_the_library_bytes(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(89)
    cases = {
        "dense64": with_spectrum(rng, kramers_spectrum(rng, 64)),
        "diag8": np.diag([1, 1, 1, 1, 2j, 2j, -2j, -2j]),
        # metric parts of -1e-270, below the writer's range
        "below": np.array([[1, 1e-270], [0, 2]]),
        # metric parts of 2e12: integral, and past 1e12
        "integral": np.array([[1, 1e6], [0, 2]]),
        "odd": with_spectrum(rng, odd_real_spectrum(rng, 5)),
    }
    for name, h in cases.items():
        text = _matrix_text(h)
        report = build_analysis_report(MatrixFile.parse(text).to_matrix())
        assert _run(capsys, ["analyze", _write(tmp_path, text)]) == (
            0, report.to_json() + "\n", ""), name
        assert report.to_json() == json.dumps(dataclasses.asdict(report), indent=2)
        parts = np.array(report.intertwiner["matrix"])
        assert {"dense64": report.admits_symmetry,
                "diag8": report.admits_symmetry and 0.0 in parts,
                "below": np.abs(parts[parts != 0]).min() < cli._G12_RANGE[0],
                "integral": np.abs(parts).max() >= 1e12,
                "odd": report.pseudohermitian and not report.all_even}[name]
    # the metric's exact zeros, signed negative, leave its residual as it is
    intertwiner = cli._intertwiner

    def negative_zeros(system, cls):
        eta = intertwiner(system, cls)
        return np.where(eta == 0, complex(-0.0, -0.0), eta)

    monkeypatch.setattr(cli, "_intertwiner", negative_zeros)
    text = _matrix_text(cases["diag8"])
    report = build_analysis_report(MatrixFile.parse(text).to_matrix())
    assert _run(capsys, ["analyze", _write(tmp_path, text)]) == (0, report.to_json() + "\n", "")
    assert report.to_json() == json.dumps(dataclasses.asdict(report), indent=2)
    parts = np.array(report.intertwiner["matrix"])
    assert np.signbit(parts[parts == 0]).any()


def test_analyze_rounds_each_metric_part_once(tmp_path, capsys, monkeypatch):
    rounded = []
    g12_round = cli._g12_round

    def counted(values):
        rounded.append(values.size)
        return g12_round(values)

    monkeypatch.setattr(cli, "_g12_round", counted)
    rng = np.random.default_rng(61)
    h = with_spectrum(rng, kramers_spectrum(rng, 6))
    code, out, _ = _run(capsys, ["analyze", _write(tmp_path, _matrix_text(h))])
    assert code == 0 and json.loads(out)["admits_symmetry"]
    # the spectrum's group values, then the metric's 2 n^2 parts, once
    assert rounded == [2 * len(json.loads(out)["spectrum"]), 2 * 6 * 6]


def test_refused_metric_is_never_formatted(tmp_path, capsys, monkeypatch):
    formatted = []
    g12_texts = cli._g12_texts

    def counted(values):
        formatted.append(len(values))
        return g12_texts(values)

    monkeypatch.setattr(cli, "_g12_texts", counted)
    # every metric's condition number is at least 1: each one is refused
    monkeypatch.setattr(symmetry, "SINGULAR_COND", 0.5)
    rng = np.random.default_rng(67)
    h = with_spectrum(rng, kramers_spectrum(rng, 6))
    tokens = " ".join(f"{v.real!r}+{v.imag!r}i".replace("+-", "-")
                      for v in h.ravel().tolist())
    code, out, err = _run(capsys, ["analyze", _write(tmp_path, f"6 {tokens}")])
    assert (code, out) == (2, "")
    assert err.startswith("pseudoherm: numeric error: metric condition number")
    assert 2 * 6 * 6 not in formatted
    with pytest.raises(symmetry.SingularIntertwinerError):
        build_analysis_report(h)
    assert 2 * 6 * 6 not in formatted


def test_matrix_pairs_match_elementwise_rounding():
    m = np.array([[-0.0, 1e-300 - 0.0j, 3.0 + 1e300j],
                  [-7.0 + 2.0j, 0.1 + 1.0 / 3.0 * 1j, complex(2 ** 53, -0.0)]])
    for matrix in (m, EDGE_VALUES, EDGE_VALUES.T):
        expected = [[[_g12(z.real), _g12(z.imag)] for z in row] for row in matrix]
        # json spells out -0.0, which == would not tell from 0.0
        assert json.dumps(_pairs(matrix).tolist()) == json.dumps(expected)
        assert json.dumps(_pairs(matrix[0]).tolist()) == json.dumps(expected[0])


def test_analyze_output_is_deterministic(tmp_path, capsys):
    rng = np.random.default_rng(11)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = z + z.conj().T
    tokens = " ".join(f"{v.real!r}+{v.imag!r}i".replace("+-", "-")
                      for v in h.ravel().tolist())
    path = _write(tmp_path, f"3 {tokens}")
    first = _run(capsys, ["analyze", path])
    second = _run(capsys, ["analyze", path])
    assert first == second
    assert first[0] == 0 and json.loads(first[1])["dim"] == 3


# ---------------------------------------------------------------- model

def test_model_reference_point(capsys):
    code, out, _ = _run(capsys, [
        "model", "--muB", "0.1", "--k2", "0.5",
        "--t-start", "1", "--t-stop", "1", "--t-count", "1"])
    assert code == 0
    summary, header, rows = _split_model_output(out)
    assert header == "t,spin_flip,probe_forward,probe_backward,asymmetry"
    assert abs(summary["coupling_ratio"] - 8.0 / 3.0) <= 1e-11
    assert abs(summary["level_splitting"][0] - 0.244948974278) <= 1e-11
    assert summary["level_splitting"][1] == 0.0
    assert summary["real_spectrum_regime"] is True
    assert summary["hermitian"] is False
    assert summary["intertwiner_diag"] == [0.375, 1.0]
    assert summary["regime_note"] is None
    values = [float(x) for x in rows[0].split(",")]
    assert values[0] == 1.0
    assert abs(values[1] - 0.156825490578) <= 1e-11
    assert abs(values[2] - 0.933198872312) <= 1e-11
    assert abs(values[3] - 0.164817059299) <= 1e-11
    assert abs(values[4] - 0.768381813013) <= 1e-11


def test_model_hermitian_defaults(capsys):
    code, out, _ = _run(capsys, ["model", "--t-count", "11"])
    assert code == 0
    summary, _, rows = _split_model_output(out)
    assert summary["hermitian"] is True
    assert summary["coupling_ratio"] == 1.0
    assert summary["exceeds_unit_probability"] is False
    assert len(rows) == 11


def test_model_flags_probability_excursions(capsys):
    code, out, _ = _run(capsys, ["model", "--muB", "0.1", "--k2", "0.5"])
    assert code == 0
    summary, _, rows = _split_model_output(out)
    assert summary["exceeds_unit_probability"] is True
    flips = [float(row.split(",")[1]) for row in rows]
    assert max(flips) > 1.0  # raw values stay unclamped in the CSV


def test_model_complex_regime(capsys):
    code, out, _ = _run(capsys, [
        "model", "--muB", "0.3", "--k2", "0.5", "--t-count", "3"])
    assert code == 0
    summary, _, _ = _split_model_output(out)
    assert summary["real_spectrum_regime"] is False
    assert summary["coupling_ratio"] == -4.0
    assert summary["eigenvalues"] == [[1.0, -0.1], [1.0, 0.1]]
    assert summary["intertwiner_diag"] is None
    assert "metric undefined" in summary["regime_note"]


def test_model_degenerate_regimes_exit_4(capsys):
    code, _, err = _run(capsys, ["model", "--muB", "0.25", "--k2", "0.5"])
    assert code == 4 and "model regime" in err
    code, _, err = _run(capsys, ["model", "--muB", "0.5", "--k2", "0.6"])
    assert code == 4 and "model regime" in err


def test_model_hermitian_flag_is_relative_to_the_couplings(capsys):
    # |alpha - beta| against the coupling scale alone: a large E neither
    # hides a difference of 5e-8 nor is needed to forgive one of 5e-16
    for k2, hermitian in (("1.0000001", False), ("1.000000000000001", True)):
        code, out, _ = _run(capsys, ["model", "--E=1e6", f"--k2={k2}", "--t-count=3"])
        assert code == 0
        assert _split_model_output(out)[0]["hermitian"] is hermitian


def _model_flags(case):
    return [f"--{name}={value!r}"
            for name, value in zip(("E", "muB", "omega2", "k1", "k2"), case)]


def _close_cells(got, expected):
    """CSV cells equal to printed rounding, blanks included."""
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert (a == b == "") or abs(float(a) - float(b)) <= 1e-10 * (1 + abs(float(b)))


@pytest.mark.parametrize("c", MODEL_SCALES)
def test_model_and_scan_survive_scaling(capsys, c):
    # E, muB and omega2 times c, and the time grid over c: the same exit
    # code, flags, curves and scan row as the unscaled model
    for case in MODEL_REGIMES:
        scaled = scaled_model(case, c)
        base = _run(capsys, ["model", *_model_flags(case), "--t-count=5"])
        got = _run(capsys, ["model", *_model_flags(scaled), f"--t-stop={10.0 / c!r}",
                            "--t-count=5"])
        assert got[0] == base[0]
        if base[0] == 0:
            (summary, _, rows), (expected, _, expected_rows) = (
                _split_model_output(got[1]), _split_model_output(base[1]))
            for key in ("real_spectrum_regime", "hermitian",
                        "exceeds_unit_probability", "regime_note"):
                assert summary[key] == expected[key]
            _close_cells([_fmt(summary["coupling_ratio"])],
                         [_fmt(expected["coupling_ratio"])])
            for row, expected_row in zip(rows, expected_rows):
                _close_cells(row.split(",")[1:], expected_row.split(",")[1:])
        base = _run(capsys, ["scan", *_model_flags(case), "--t-count=5"])
        got = _run(capsys, ["scan", *_model_flags(scaled), f"--t-stop={10.0 / c!r}",
                            "--t-count=5"])
        assert got[0] == base[0] == 0
        row, expected_row = (out.splitlines()[1].split(",") for _, out, _ in (got, base))
        assert row[3:5] == expected_row[3:5]
        _close_cells(row[5:], expected_row[5:])


def test_model_csv_matches_per_time_scalar_calls(capsys):
    cases = [  # (model flags, time grid)
        (dict(muB=0.3, k2=0.5), (-3.0, 3.0, 7)),      # complex regime
        (dict(muB=0.6, k2=0.5), (-3.0, 3.0, 7)),      # alpha < 0: -0 asymmetry at t = 0
        (dict(muB=0.1, k2=0.5), (-2e-7, 1e12, 5)),    # exponents
        (dict(), (-10.0, 10.0, 41)),                  # Hermitian limit
        (dict(muB=0.1, k2=0.5, E=-2.0), (-7.5, 31.0, 23)),
    ]
    cells = set()
    for flags, (start, stop, count) in cases:
        params = ModelParams(**{"E": 1.0, "omega2": 1.0, "k1": 1.0, **flags})
        argv = ["model", *(f"--{key}={value!r}" for key, value in flags.items()),
                f"--t-start={start!r}", f"--t-stop={stop!r}", f"--t-count={count}"]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        _, _, rows = _split_model_output(out)
        expected = [",".join(_fmt(x) for x in (
            t, spin_flip_probability(params, t), probe_probability(params, t),
            probe_probability(params, -t), probe_asymmetry(params, t)))
            for t in np.linspace(start, stop, count).tolist()]
        assert rows == expected
        cells.update(",".join(rows).split(","))
    assert "-0" in cells and "0" in cells and "-3" in cells
    assert any("e-" in cell for cell in cells) and "1e+12" in cells


def test_model_overflow_exits_2(capsys):
    # every exponent is in range, but the probabilities overflow
    code, out, err = _run(capsys, [
        "model", "--k1=2000", "--k2=-2e-6", "--t-start=11000",
        "--t-stop=11060", "--t-count=4"])
    assert code == 2 and out == ""
    assert "numeric error" in err and "t = 11000 overflows" in err
    # out of exponent range: the spin flip's 2|Im R t| at the first time,
    # as the per-time loop reported it
    code, out, err = _run(capsys, [
        "model", "--muB", "0.3", "--k2", "0.5", "--t-start=-8000",
        "--t-stop=8000", "--t-count=9"])
    assert code == 2 and out == ""
    assert "|Im(R t)| = 1.600e+03 exceeds" in err


def test_overflowing_exponent_warns_nothing(capsys):
    # R t overflows to inf: model refuses the grid, scan blanks the cell
    flags = ["--k1=1e150", "--k2=-1e150", "--t-stop=1e300", "--t-count=3"]
    code, out, err = _run(capsys, ["model", *flags])
    assert (code, out) == (2, "") and "Warning" not in err
    assert err == ("pseudoherm: numeric error: |Im(R t)| = inf exceeds "
                   "the representable exponent range 700\n")
    code, out, err = _run(capsys, ["scan", *flags])
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["1e+150,-1e+150,0,false,true,"]


def test_model_bad_time_grid_exits_3(capsys):
    assert _run(capsys, ["model", "--t-start", "5", "--t-stop", "1"])[0] == 3
    assert _run(capsys, ["model", "--t-count", "0"])[0] == 3
    code, out, err = _run(capsys, ["model", "--t-start=nan"])
    assert code == 3 and out == "" and "bounds must be finite" in err
    # a grid too large to allocate fails at once, committing no memory
    code, out, err = _run(capsys, ["model", f"--t-count={10**15}"])
    assert code == 3 and out == "" and "input error: Unable to allocate" in err


def test_overflowing_coupling_exits_3(capsys):
    flags = ["--k1=1e308", "--omega2=10"]
    code, out, err = _run(capsys, ["model", *flags])
    assert code == 3 and out == ""
    assert "input error: k1*omega2/2 - muB must be finite" in err
    code, out, err = _run(capsys, ["scan", *flags])
    assert code == 3 and out.startswith("k1,k2,muB,") and len(out.splitlines()) == 1
    assert "input error: k1*omega2/2 - muB must be finite" in err
    # finite couplings whose squares overflow the generator's norm
    for flags in (["--k1=1e200", "--k2=1e200"], ["--k1=1e200", "--k2=1e-100"]):
        code, out, err = _run(capsys, ["model", *flags, "--t-count", "3"])
        assert code == 3 and out == ""
        assert err == ("pseudoherm: input error: the squared generator norm "
                       "2*E**2 + alpha**2 + beta**2 must be finite\n")
        code, out, err = _run(capsys, ["scan", *flags, "--t-count", "3"])
        assert code == 3 and len(out.splitlines()) == 1
        assert "Warning" not in err and "squared generator norm" in err


def test_overflowing_grid_span_exits_3(capsys):
    # finite bounds whose span overflows: refused before linspace warns
    span = ["--t-start=-1e308", "--t-stop=1e308", "--t-count=3"]
    for command in ("model", "scan"):
        code, out, err = _run(capsys, [command, *span])
        assert (code, out) == (3, "")
        assert err == ("pseudoherm: input error: time grid span "
                       "t_stop - t_start must be finite\n")
    for token in ("-1e308:1e308:3", "inf:1:3"):
        code, out, err = _run(capsys, ["scan", f"--k1={token}", "--t-count=3"])
        assert (code, out) == (3, "")
        assert err == (f"pseudoherm: input error: span stop - start of range "
                       f"'{token}' must be finite\n")


def test_scan_refusal_mid_grid_keeps_earlier_rows(capsys):
    code, out, err = _run(capsys, ["scan", "--k1=0:1e308:3", "--omega2=10",
                                   "--t-count=3"])
    assert code == 3
    assert out.splitlines() == [
        "k1,k2,muB,real_spectrum_regime,kramers_all_even,max_abs_asymmetry",
        "0,1,0,false,,0"]
    assert err == "pseudoherm: input error: k1*omega2/2 - muB must be finite\n"


def test_scan_refusal_in_a_later_block_keeps_earlier_rows(capsys):
    # the squared norm overflows from the 269th point on, in the second block
    code, out, err = _run(capsys, ["scan", "--k1=0:1e155:1000", "--t-count=3"])
    assert code == 3
    header, *rows = out.splitlines()
    assert header.startswith("k1,k2,muB,") and len(rows) == 268 > cli._SCAN_BLOCK
    k1 = np.linspace(0.0, 1e155, 1000)
    assert [row.split(",")[0] for row in rows] == [_fmt(v) for v in k1[:268]]
    assert err == ("pseudoherm: input error: the squared generator norm "
                   "2*E**2 + alpha**2 + beta**2 must be finite\n")


@pytest.mark.parametrize("flag, name", [("--E=nan", "E"), ("--omega2=inf", "omega2")])
def test_scan_non_finite_scalar_field_prints_header_only(capsys, flag, name):
    code, out, err = _run(capsys, ["scan", "--k1=-1:1:3", flag, "--t-count=3"])
    assert code == 3
    assert out == "k1,k2,muB,real_spectrum_regime,kramers_all_even,max_abs_asymmetry\n"
    assert err == f"pseudoherm: input error: {name} must be finite\n"


def test_scan_builds_no_model_params_on_a_valid_grid(capsys, monkeypatch):
    built = []
    post_init = ModelParams.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ModelParams, "__post_init__", counted)
    code, _, _ = _run(capsys, ["scan", "--k1=-1:1:9", "--k2=-1:1:9",
                               "--muB=-0.5:0.5:5", "--t-count=3"])
    assert code == 0 and built == []
    # a refused point raises the model's own error, from one ModelParams
    code, _, _ = _run(capsys, ["scan", "--k1=0:1e308:3", "--omega2=10", "--t-count=3"])
    assert code == 3 and len(built) == 1


# ---------------------------------------------------------------- scan

def test_scan_single_point(capsys):
    argv = ["scan", "--k1", "1", "--k2", "0.5", "--muB", "0.1",
            "--t-start", "0", "--t-stop", "5", "--t-count", "51"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == ("k1,k2,muB,real_spectrum_regime,"
                      "kramers_all_even,max_abs_asymmetry")
    cells = row.split(",")
    assert cells[:5] == ["1", "0.5", "0.1", "true", "false"]
    from pseudoherm import ModelParams, probe_asymmetry
    params = ModelParams(E=1.0, muB=0.1, omega2=1.0, k1=1.0, k2=0.5)
    expected = max(abs(probe_asymmetry(params, t))
                   for t in np.linspace(0.0, 5.0, 51))
    assert abs(float(cells[5]) - expected) <= 1e-9


def test_scan_grid_straddles_regime_boundary(capsys):
    argv = ["scan", "--k1", "1", "--k2", "0.5", "--muB=-0.4:0.4:3",
            "--t-count", "11"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[2] for r in rows] == ["-0.4", "0", "0.4"]
    assert [r[3] for r in rows] == ["true", "true", "false"]
    # real-regime points have two simple real levels; the complex-regime
    # point has no real levels at all, so evenness holds vacuously
    assert [r[4] for r in rows] == ["false", "false", "true"]
    assert all(float(r[5]) > 0 for r in rows)


def test_scan_regime_follows_the_model_vanishing_rule(capsys):
    # a range is linear, so each k2 is its own scan; beta = k2 / 2 vanishes
    # against the coupling scale 0.5 below 5e-13, where model exits 4
    rows = []
    for k2 in ("1e-10", "1e-14", "1e-18", "1e-20"):
        code, out, _ = _run(capsys, ["scan", "--k1=1", f"--k2={k2}", "--t-count=3"])
        assert code == 0
        rows += [line.split(",") for line in out.strip().splitlines()[1:]]
        assert _run(capsys, ["model", "--k1=1", f"--k2={k2}", "--t-count=3"])[0] == (
            0 if k2 == "1e-10" else 4)
    assert [row[3] for row in rows] == ["true", "false", "false", "false"]
    # criterion 6 on every row: a real-regime point is odd, with asymmetry
    for row in rows:
        if row[3] == "true":
            assert row[4] == "false" and float(row[5]) > 1e-6, row


def test_scan_blank_cells_at_defective_point(capsys):
    argv = ["scan", "--k1", "1", "--k2", "0.5", "--muB", "0.25",
            "--t-count", "5"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    cells = out.strip().splitlines()[1].split(",")
    assert cells[3] == "false"
    assert cells[4] == ""  # Jordan block, no Kramers verdict
    assert cells[5] == "5"  # the Jordan limit 2 alpha t at t = 10


def test_scan_defective_point_blanks_only_its_cells(capsys):
    argv = ["scan", "--k1", "1", "--k2", "0.5", "--muB=0.15:0.35:3",
            "--t-count", "5"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    # muB = 0.25 makes k2*omega2/2 - muB vanish: a Jordan block
    assert [r[:5] for r in rows] == [["1", "0.5", "0.15", "true", "false"],
                                     ["1", "0.5", "0.25", "false", ""],
                                     ["1", "0.5", "0.35", "false", "true"]]
    # the Jordan point's asymmetry is its closed form's Jordan limit
    jordan = ModelParams(muB=0.25, k1=1.0, k2=0.5)
    peak = np.abs(probe_asymmetry(jordan, np.linspace(0.0, 10.0, 5))).max()
    assert rows[1][5] == _fmt(peak) and float(rows[0][5]) > 0 and float(rows[2][5]) > 0


def test_scan_column_matches_per_point_kramers_test(capsys):
    # more points than one stacked block, with Jordan blocks and
    # Hermitian points among them
    k1 = np.linspace(-1.0, 1.0, 9)
    mu = np.linspace(-0.5, 0.5, 5)
    assert len(k1) * len(k1) * len(mu) > cli._SCAN_BLOCK
    code, out, _ = _run(capsys, ["scan", "--k1=-1:1:9", "--k2=-1:1:9",
                                 "--muB=-0.5:0.5:5", "--t-count=3"])
    assert code == 0
    rows = out.strip().splitlines()[1:]
    expected = []
    for a, b, m in ((a, b, m) for a in k1 for b in k1 for m in mu):
        h = effective_hamiltonian(ModelParams(muB=m, k1=a, k2=b))
        try:
            expected.append("true" if kramers_test(h).all_even else "false")
        except NotDiagonalizableError:
            expected.append("")
    assert [row.split(",")[4] for row in rows] == expected
    assert "" in expected and "true" in expected and "false" in expected


# (k1, k2, muB, t_start, t_stop, t_count) scan flags
ASYMMETRY_SCANS = [
    # more points than one block: Jordan blocks (k2 = 0.5, muB = 0.25),
    # Hermitian points, and complex-regime points whose growth is out of
    # range by t = 2000
    ("-1:1:9", "-1:1:9", "-0.5:0.5:5", 0.0, 2000.0, 7),
    # |Im(2 R t)| = 705 at the last time: out of range, yet finite
    ("1", "0.5", "0.3", 0.0, 3525.0, 2),
    # every exponent in range, the asymmetry itself overflows
    ("2e4", "-2e-7", "0", 11000.0, 11060.0, 4),
]


@pytest.mark.parametrize("cells", [None, 50])
def test_scan_asymmetry_matches_per_point_probe_asymmetry(capsys, monkeypatch, cells):
    # a small cell budget makes blocks of a few points each
    if cells is not None:
        monkeypatch.setattr(cli, "_SCAN_CELLS", cells)
    refusals = set()
    for k1, k2, mu, t_start, t_stop, t_count in ASYMMETRY_SCANS:
        code, out, err = _run(capsys, [
            "scan", f"--k1={k1}", f"--k2={k2}", f"--muB={mu}",
            f"--t-start={t_start}", f"--t-stop={t_stop}", f"--t-count={t_count}"])
        assert (code, err) == (0, "")
        grid = np.linspace(t_start, t_stop, t_count)
        expected = []
        for a, b, m in product(*map(cli._parse_range, (k1, k2, mu))):
            try:
                params = ModelParams(muB=m, k1=a, k2=b)
                expected.append(_fmt(np.abs(probe_asymmetry(params, grid)).max()))
            except (DegenerateModelError, EvolutionRangeError) as exc:
                expected.append("")
                refusals.add(str(exc).split(" ")[-1])
        rows = out.strip().splitlines()[1:]
        assert [row.split(",")[5] for row in rows] == expected
    assert len(rows) == 1
    # growth out of range and an overflowing value; a Jordan block has
    # the closed forms' polynomial limits, so no refusal
    assert refusals == {"700", "precision"}


def test_scan_evaluates_asymmetry_per_block(capsys, monkeypatch):
    calls, passes = [], []
    stack = spin_rotation._closed_form_stack

    def counted_stack(fields, t, form):
        passes.append(len(fields.k1))
        return stack(fields, t, form)

    def counted_probe(*args):
        calls.append(args)
        return probe_asymmetry(*args)

    monkeypatch.setattr(cli, "_closed_form_stack", counted_stack)
    for module in (cli, spin_rotation):
        monkeypatch.setattr(module, "probe_asymmetry", counted_probe)
    flags = ["scan", "--k1=-1:1:9", "--k2=-1:1:9", "--muB=-0.5:0.5:5"]
    code, _, _ = _run(capsys, [*flags, "--t-count=101"])
    assert code == 0
    assert calls == [] and passes == [cli._SCAN_BLOCK, 405 - cli._SCAN_BLOCK]
    # a long time grid caps each block, and so each pass, in size
    passes.clear()
    code, _, _ = _run(capsys, [*flags, "--t-count=1000"])
    assert code == 0
    assert sum(passes) == 405 and passes[0] == cli._SCAN_CELLS // 1000
    assert max(passes) * 1000 <= cli._SCAN_CELLS


def test_scan_classifies_once_per_block(capsys, monkeypatch):
    stacks = []
    classify = cli._real_groups

    def counted(values, mults, counts, radii, errors):
        stacks.append(len(counts))
        return classify(values, mults, counts, radii, errors)

    monkeypatch.setattr(cli, "_real_groups", counted)
    # two blocks; k2 = 0.5 with muB = 0.25 is a Jordan block, left out
    code, out, _ = _run(capsys, ["scan", "--k1=-1:1:9", "--k2=-1:1:9",
                                 "--muB=-0.5:0.5:5", "--t-count=3"])
    assert code == 0
    blanks = [line.split(",")[4] for line in out.splitlines()[1:]].count("")
    assert blanks > 0
    assert len(stacks) == 2 and sum(stacks) == 405 - blanks


def test_scan_pairs_no_groups(capsys, monkeypatch):
    # scan reads realness and parity alone: no pairing runs on a block
    flags = ["scan", "--k1=-1:1:9", "--k2=-1:1:9", "--muB=-0.5:0.5:5", "--t-count=3"]
    expected = _run(capsys, flags)
    parity = {line.split(",")[4] for line in expected[1].splitlines()[1:]}
    assert parity == {"true", "false", ""}

    def refuse(system):
        raise AssertionError("scan paired groups")

    for module in (spectral, symmetry):
        monkeypatch.setattr(module, "_classification", refuse)
    assert _run(capsys, flags) == expected
    with pytest.raises(AssertionError, match="paired"):
        spectral.classify_spectrum(spectral.biorthonormal_system(np.eye(2)))


def test_scan_builds_no_system(capsys, monkeypatch):
    # scan classifies the grouping's arrays: no inverse, no system object
    built = []
    init = spectral.BiorthonormalSystem.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(spectral.BiorthonormalSystem, "__init__", counted)
    code, out, _ = _run(capsys, ["scan", "--k1=-1:1:9", "--k2=-1:1:9",
                                 "--muB=-0.5:0.5:5", "--t-count=3"])
    assert code == 0 and len(out.splitlines()) == 406
    assert built == []
    # the count sees a system built anywhere else
    spectral.biorthonormal_system(np.eye(2))
    assert len(built) == 1


def test_scan_bad_range_exits_3(capsys):
    assert _run(capsys, ["scan", "--k1", "1:2"])[0] == 3
    assert _run(capsys, ["scan", "--k1", "oops"])[0] == 3
    code, out, err = _run(capsys, ["scan", "--k1=1:2:0"])
    assert code == 3 and out == "" and "with count >= 1" in err
    code, out, err = _run(capsys, ["scan", "--k1=nan"])
    assert code == 3 and out == "" and "contains non-finite values" in err
    code, out, err = _run(capsys, ["scan", f"--k1=0:1:{10**15}"])
    assert code == 3 and out == "" and "input error: Unable to allocate" in err


# ---------------------------------------------------------------- parser

def test_missing_subcommand_exits_3(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 3


def test_unknown_flag_exits_3(capsys):
    with pytest.raises(SystemExit) as info:
        main(["analyze", "--bogus"])
    assert info.value.code == 3
    assert capsys.readouterr().err.endswith(
        "pseudoherm analyze: error: the following arguments are required: input\n")
    # the kept parser answers a second bad call as it did the first
    for _ in range(2):
        with pytest.raises(SystemExit) as info:
            main(["analyze", "matrix.txt", "--bogus"])
        assert info.value.code == 3
        assert capsys.readouterr().err == (
            "usage: pseudoherm [-h] [--version] {analyze,model,scan} ...\n"
            "pseudoherm: error: unrecognized arguments: --bogus\n")


def test_parser_is_built_once(monkeypatch, capsys):
    built = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.prog)

    monkeypatch.setattr(cli, "_Parser", Counted)
    cli._build_parser.cache_clear()
    try:
        assert main(["model", "--t-count", "2"]) == 0
        assert main(["scan", "--t-count", "2"]) == 0
    finally:
        cli._build_parser.cache_clear()
    assert built == ["pseudoherm", "pseudoherm analyze", "pseudoherm model",
                     "pseudoherm scan"]


def test_commands_are_looked_up_per_call(monkeypatch, capsys):
    # the parser is built before the command is replaced
    assert main(["model", "--t-count", "2"]) == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_model", lambda args: calls.append(args) or 5)
    assert main(["model", "--k1", "0.5"]) == 5
    assert [args.k1 for args in calls] == [0.5]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "pseudoherm" in capsys.readouterr().out

"""Command-line interface: parsing, report schema, exit codes, determinism."""

import dataclasses
import json

import numpy as np
import pytest
from conftest import kramers_spectrum, with_spectrum

from pseudoherm import (
    ModelParams,
    probe_asymmetry,
    probe_probability,
    spin_flip_probability,
)
from pseudoherm.cli import (
    AnalysisReport,
    MatrixFile,
    MatrixFormatError,
    _fmt,
    _matrix_pairs,
    _pair,
    build_analysis_report,
    main,
)


def _write(tmp_path, text):
    path = tmp_path / "matrix.txt"
    path.write_text(text)
    return str(path)


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
    assert parsed.entries == [1 + 2j, -3j, 2.5 + 0j, 4j]
    assert np.array_equal(parsed.to_matrix(),
                          np.array([[1 + 2j, -3j], [2.5, 4j]]))
    scientific = MatrixFile.parse("1 1e-3+2e2I")
    assert scientific.entries == [0.001 + 200j]
    # a token is whatever complex() accepts once i and I read as j
    accepted = MatrixFile.parse("2 4J (1+2i) 1_0 (-3)")
    assert accepted.entries == [4j, 1 + 2j, 10 + 0j, -3 + 0j]


def test_matrix_file_row_major_order():
    parsed = MatrixFile.parse("2\n1 2\n3 4\n")
    assert np.array_equal(parsed.to_matrix(), np.array([[1, 2], [3, 4]]))


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


# floats whose '%.12g' and repr spellings differ, or that sit next to them
EDGE_VALUES = np.array([
    [complex(5e-324, 2.5e-310), complex(1e12, -1e12), complex(-0.0, 42.0)],
    [complex(9.99999999999e11, 123456789012.0), complex(1e15, 1e16),
     complex(-1e-5, 1e-4)],
    [complex(1234567890123.0, 1.5e16), complex(-3.0, 0.0), complex(0.5, -0.0)],
])


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
    for metric in (_matrix_pairs(EDGE_VALUES), unrounded,
                   [[[0.5, float("inf")], [float("-inf"), 1.0]]],
                   [[[1, 0.5]], [[2.0, True]]], [[[0.5, 1.0]], [[1.5, 2.0], [3.0, 4.0]]],
                   [[[0.5, 1.0, 2.0]]], []):
        edited = dataclasses.replace(report, intertwiner={"matrix": metric,
                                                          "residual": 1e-13})
        assert AnalysisReport.from_json(edited.to_json()) == edited
        assert edited.to_json() == json.dumps(dataclasses.asdict(edited), indent=2)
    # a string field that spells the writer's stand-in for the metric
    odd = dataclasses.replace(report, version="\0intertwiner matrix\0")
    assert odd.to_json() == json.dumps(dataclasses.asdict(odd), indent=2)

def test_matrix_pairs_match_elementwise_rounding():
    m = np.array([[-0.0, 1e-300 - 0.0j, 3.0 + 1e300j],
                  [-7.0 + 2.0j, 0.1 + 1.0 / 3.0 * 1j, complex(2 ** 53, -0.0)]])
    for matrix in (m, EDGE_VALUES, EDGE_VALUES.T):
        expected = [[_pair(z) for z in row] for row in matrix]
        # json spells out -0.0, which == would not tell from 0.0
        assert json.dumps(_matrix_pairs(matrix)) == json.dumps(expected)


def test_analyze_output_is_deterministic(tmp_path, capsys):
    rng = np.random.default_rng(11)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = z + z.conj().T
    tokens = " ".join(f"{v.real!r}+{v.imag!r}i".replace("+-", "-")
                      for v in h.ravel())
    path = _write(tmp_path, f"3 {tokens}")
    first = _run(capsys, ["analyze", path])
    second = _run(capsys, ["analyze", path])
    assert first == second


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


def test_model_csv_matches_per_time_scalar_calls(capsys):
    cases = [  # (model flags, time grid)
        (dict(muB=0.3, k2=0.5), (-3.0, 3.0, 7)),      # -0 flip at t = 0
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


def test_model_bad_time_grid_exits_3(capsys):
    assert _run(capsys, ["model", "--t-start", "5", "--t-stop", "1"])[0] == 3
    assert _run(capsys, ["model", "--t-count", "0"])[0] == 3


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


def test_scan_blank_cells_at_defective_point(capsys):
    argv = ["scan", "--k1", "1", "--k2", "0.5", "--muB", "0.25",
            "--t-count", "5"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    cells = out.strip().splitlines()[1].split(",")
    assert cells[3] == "false"
    assert cells[4] == ""  # Jordan block, no Kramers verdict
    assert cells[5] == ""  # degenerate denominator, no asymmetry curve


def test_scan_bad_range_exits_3(capsys):
    assert _run(capsys, ["scan", "--k1", "1:2"])[0] == 3
    assert _run(capsys, ["scan", "--k1", "oops"])[0] == 3


# ---------------------------------------------------------------- parser

def test_missing_subcommand_exits_3(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 3


def test_unknown_flag_exits_3(capsys):
    with pytest.raises(SystemExit) as info:
        main(["analyze", "--bogus"])
    assert info.value.code == 3


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "pseudoherm" in capsys.readouterr().out

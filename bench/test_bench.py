"""Tests of the benchmark's own code: span arithmetic, generator, checks.

Run from the root of a source checkout::

    python3 -m pytest -q bench
"""

import gzip
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from pseudoherm import cli, kramers_test, symmetry  # noqa: E402
from pseudoherm.exceptions import NotDiagonalizableError  # noqa: E402
from spans import NO_PARENT, Recorder, Span, self_times, totals_by_name  # noqa: E402


class FakeClock:
    """Advances by one tick per reading, so every duration is exact."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 1
        return self.now


def test_self_times_subtract_children_exactly():
    spans = [Span("op", 0, 100, NO_PARENT, 0, busy=100),
             Span("a", 10, 60, 0, 0, busy=50),
             Span("b", 20, 30, 1, 0, busy=10),
             Span("leaf", 62, 90, 0, 0, count=3, busy=20)]
    assert self_times(spans) == [30, 40, 10, 20]
    totals = totals_by_name(spans)
    assert totals["leaf"] == {"self": 20, "busy": 20, "count": 3}
    assert sum(self_times(spans)) == spans[0].busy


def test_recorder_nests_spans_and_sums_leaves():
    rec = Recorder(clock=FakeClock())
    inner = rec.wrap(lambda: leaf() + leaf(), "inner")
    leaf = rec.wrap_leaf(lambda: 1, "leaf")
    for op_id in range(2):
        with rec.op(op_id):
            assert inner() == 2
            leaf()
    names = [(s.name, s.parent, s.op, s.count) for s in rec.spans]
    assert names == [("op", -1, 0, 1), ("inner", 0, 0, 1), ("leaf", 1, 0, 2),
                     ("leaf", 0, 0, 1), ("op", -1, 1, 1), ("inner", 4, 1, 1),
                     ("leaf", 5, 1, 2), ("leaf", 4, 1, 1)]
    roots = sum(s.busy for s in rec.spans if s.parent == NO_PARENT)
    assert sum(self_times(rec.spans)) == roots
    assert all(own >= 0 for own in self_times(rec.spans))


def test_recorder_closes_spans_when_the_call_raises(tmp_path):
    rec = Recorder()

    def boom():
        raise ValueError("refused")

    with rec.op(0):
        with pytest.raises(ValueError):
            rec.wrap(boom, "boom")()
    assert [s.name for s in rec.spans] == ["op", "boom"]
    assert all(s.end >= s.start and s.busy == s.end - s.start for s in rec.spans)
    with pytest.raises(RuntimeError):
        rec.end(rec.begin("x") - 1)

    path = tmp_path / "spans.jsonl.gz"
    rec.dump(path, {"run": 1})
    with gzip.open(path, "rt") as lines:
        rows = [json.loads(line) for line in lines]
    assert rows[0] == {"run": 1}
    assert [row[0] for row in rows[1:]] == ["op", "boom", "x"]


def test_instrumented_restores_every_attribute():
    before = {(m.__name__, a): getattr(m, a) for m in workloads.MODULES
              for a in [*workloads.SPANS, *workloads.LEAVES] if a in vars(m)}
    parse = vars(cli.MatrixFile)["parse"]
    with pytest.raises(KeyError):
        with workloads.instrumented(Recorder(), workloads.GroupTally()):
            assert symmetry.kramers_test is not before[("pseudoherm.symmetry",
                                                        "kramers_test")]
            raise KeyError("leave early")
    after = {(m.__name__, a): getattr(m, a) for m in workloads.MODULES
             for a in [*workloads.SPANS, *workloads.LEAVES] if a in vars(m)}
    assert after == before
    assert vars(cli.MatrixFile)["parse"] is parse


def test_generator_reaches_n512_quickly():
    rng = np.random.default_rng(5)
    start = time.perf_counter()
    case = inputs.case(rng, 512, "even")
    assert time.perf_counter() - start < 10.0
    values = case.spectrum.values
    assert case.matrix.shape == (512, 512) and len(values) == 512
    distinct = np.unique(values)
    gaps = np.abs(distinct[:, None] - distinct[None, :]) + np.eye(len(distinct)) * 1e9
    assert gaps.min() >= inputs.SPACING - 1e-12
    assert len(distinct) == case.spectrum.groups


@pytest.mark.parametrize("kind", inputs.KINDS)
@pytest.mark.parametrize("n", [2, 3, 6, 16, 64])
def test_sampled_verdicts_match_the_library(kind, n):
    if kind == "even" and n % 2:
        pytest.skip("an even spectrum needs an even dimension")
    rng = np.random.default_rng(1000 * n + inputs.KINDS.index(kind))
    for _ in range(3):
        case = inputs.case(rng, n, kind)
        spec = case.spectrum
        if kind == "defective":
            with pytest.raises(NotDiagonalizableError):
                kramers_test(case.matrix)
            continue
        report = kramers_test(case.matrix)
        assert (report.pseudohermitian, report.all_even, report.admits_symmetry) == (
            spec.pseudohermitian, spec.all_even, spec.admits_symmetry)
        assert [m for _, m in report.real_degeneracies] == [m for _, m in spec.real_groups]


def test_matrix_text_parses_back_exactly():
    case = inputs.case(np.random.default_rng(3), 5, "odd")
    parsed = cli.MatrixFile.parse(inputs.matrix_text(case.matrix)).to_matrix()
    assert np.array_equal(parsed, case.matrix)


@pytest.mark.parametrize("build", [workloads.verdict_small, workloads.time_grid])
def test_requests_pass_their_checks_and_catch_a_changed_output(build, tmp_path):
    requests = build(np.random.default_rng(11), tmp_path)
    for request in requests:
        outcome = run.execute(request)
        assert request.check(outcome) is None
        assert request.check(run.execute(request)) is None
    request = requests[-1]
    if isinstance(request, workloads.AsymmetryRequest):
        changed = run.execute(request) * (1 + 1e-12)
    else:
        changed = kramers_test(np.diag([1.0, 2.0]))
    assert request.check(changed) is not None


def test_analyze_check_rejects_a_wrong_verdict(tmp_path):
    rng = np.random.default_rng(2)
    case = inputs.case(rng, 8, "odd")
    path = tmp_path / "m.txt"
    path.write_text(inputs.matrix_text(case.matrix))
    request = workloads.AnalyzeRequest(case, path)
    outcome = run.execute(request)
    assert request.verify(outcome) is None
    case.spectrum.kind = "unpaired"
    assert request.verify(outcome) is not None


def test_tail_keeps_ten_samples_beyond():
    percentile, value = run.tail([float(k) for k in range(100)])
    assert (percentile, value) == (90.0, 89.0)
    assert run.tail([1.0, 2.0, 3.0])[1] == 2.0
    percentile, value = run.tail([float(k) for k in range(10_000)])
    assert (percentile, value) == (99.0, 9899.0)

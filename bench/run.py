"""Benchmark of the pseudoherm package: one workload, one seed, one run.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload analyze-dense --seed 0 --seconds 30 --trace 0

The package is imported from ``src/`` of that checkout.  Inputs are
generated from ``--seed``; the loop is closed (one client, one op at a
time) and runs for ``--seconds`` of wall time after one untimed op of
each shape.  Every output is checked against its construction.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each op
twice, untraced and then with every public call into the package
recorded as a span, prints the per-layer metrics, and writes the spans to
``bench/out/spans-<workload>-<seed>.jsonl.gz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine and the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# closed loop on one core: the steadiest setting on a shared machine
BLAS_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 11
IMPORT_PROBE = ("import time; start = time.perf_counter(); import pseudoherm.cli; "
                "print(time.perf_counter() - start)")
TAIL_BEYOND = 10
TAIL_CAP = 99.0
MAX_REPORTED_FAILURES = 5


def _pin_threads() -> None:
    for name in THREAD_VARIABLES:
        os.environ[name] = str(BLAS_THREADS)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def machine_record() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "loadavg": os.getloadavg(),
    }


def setup_seconds() -> float:
    """Median wall time of ``import pseudoherm.cli`` in fresh interpreters.

    One unmeasured import first, so bytecode is compiled as it would be
    after installation.
    """
    times = []
    for attempt in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                              env=_child_env(), capture_output=True, text=True,
                              timeout=120, check=True)
        if attempt:
            times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def execute(request):
    """Run one op; a raised error is an outcome for the request to judge."""
    try:
        return request.run()
    except Exception as exc:  # the check decides whether it was a typed refusal
        return exc


class Tally:
    """Attempted and failed ops, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, request, outcome) -> None:
        self.attempted += 1
        problem = request.check(outcome)
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < MAX_REPORTED_FAILURES:
                self.reasons.append(f"{type(request).__name__}: {problem}")


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it, and its value.

    Bounded below by the median (under 2 * TAIL_BEYOND + 1 samples the
    percentile would fall beneath it) and above by TAIL_CAP: out of tens of
    thousands of samples the top ten are set by pauses of a shared machine,
    and their run-to-run spread would swamp any change in the package.
    """
    ordered = sorted(latencies)
    count = len(ordered)
    rank = min(count - TAIL_BEYOND - 1, math.ceil(TAIL_CAP / 100.0 * count) - 1)
    rank = max(rank, (count - 1) // 2)
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


def run_untraced(requests, warmup: int, seconds: float, tally: Tally) -> dict:
    for request in requests[:warmup]:
        execute(request)
    latencies = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        request = requests[len(latencies) % len(requests)]
        start = time.perf_counter()
        outcome = execute(request)
        latencies.append(time.perf_counter() - start)
        tally.record(request, outcome)
    percentile, tail_value = tail(latencies)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "metrics": {
            "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "latency_tail_ms": (1e3 * tail_value, "ms"),
            "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
        },
        "tail": {"percentile": percentile, "samples": len(latencies)},
    }


def run_traced(requests, warmup: int, seconds: float, tally: Tally) -> dict:
    import numpy as np

    from spans import Recorder, self_times, totals_by_name
    from workloads import GroupTally, instrumented

    for request in requests[:warmup]:
        execute(request)
    recorder = Recorder()
    groups = GroupTally()
    untraced_ns = floor_ns = floor_count = groups_built = 0
    cli_bytes = cli_ops = 0
    time_points: dict[str, int] = {}
    ops = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        request = requests[ops % len(requests)]
        # alternate which of the pair goes first, so cache warmth from the
        # first run does not land on one side of the overhead
        for traced in (ops % 2, 1 - ops % 2):
            if traced:
                with instrumented(recorder, groups), recorder.op(ops):
                    outcome = execute(request)
            else:
                start = time.perf_counter_ns()
                outcome = execute(request)
                untraced_ns += time.perf_counter_ns() - start
            tally.record(request, outcome)
        for matrix in request.floor:
            start = time.perf_counter_ns()
            np.linalg.eig(matrix)
            floor_ns += time.perf_counter_ns() - start
        floor_count += len(request.floor)
        groups_built += request.groups
        size = request.output_bytes(outcome)
        if size is not None:
            cli_bytes += size
            cli_ops += 1
        for name, points in request.time_points.items():
            time_points[name] = time_points.get(name, 0) + points
        ops += 1

    totals = totals_by_name(recorder.spans)

    def self_ns(name):
        return totals.get(name, {}).get("self", 0)

    def calls(name):
        return totals.get(name, {}).get("count", 0)

    def per_call_ms(*names):
        count = calls(names[0])
        return sum(self_ns(n) for n in names) / count / 1e6 if count else 0.0

    def per_point_ms(name):
        points = time_points.get(name, 0)
        return self_ns(name) / points / 1e6 if points else 0.0

    roots = [span for span in recorder.spans if span.parent == -1]
    traced_ns = sum(span.busy for span in roots)
    own = self_times(recorder.spans)
    if sum(own) != traced_ns:
        tally.failed += 1
        tally.reasons.append("span self times do not add up to the op times")
    witnesses = calls("symmetry.build_antilinear_symmetry")
    verdicts = calls("symmetry.kramers_test") + calls("cli.build_analysis_report")
    eigen_ns = self_ns("spectral.biorthonormal_system") + self_ns("spectral.classify_spectrum")
    metrics = {
        "spectral.eig_floor_ms": (floor_ns / floor_count / 1e6 if floor_count else 0.0, "ms"),
        "spectral.biorthonormal_system_ms": (per_call_ms("spectral.biorthonormal_system"), "ms"),
        "spectral.classify_spectrum_ms": (per_call_ms("spectral.classify_spectrum"), "ms"),
        "spectral.overhead_ratio": (eigen_ns / floor_ns if floor_ns else 0.0, "ratio"),
        "spectral.groups_match_ratio": (groups.found / groups_built if groups_built else 0.0,
                                        "ratio"),
        "symmetry.kramers_test_ms": (per_call_ms("symmetry.kramers_test"), "ms"),
        "symmetry.build_intertwiner_ms": (per_call_ms("symmetry.build_intertwiner"), "ms"),
        "symmetry.intertwining_residual_ms": (per_call_ms("symmetry.intertwining_residual"),
                                              "ms"),
        "symmetry.build_antilinear_symmetry_ms": (
            per_call_ms("symmetry.build_antilinear_symmetry"), "ms"),
        "symmetry.witness_residuals_ms": (
            per_call_ms("symmetry.commutator_residual", "symmetry.square_residual"), "ms"),
        "symmetry.witnesses_built": (witnesses / ops, "1/op"),
        "symmetry.refusals": ((verdicts - witnesses) / ops, "1/op"),
        "cli.parse_ms": (per_call_ms("cli.parse"), "ms"),
        "cli.build_analysis_report_ms": (per_call_ms("cli.build_analysis_report"), "ms"),
        "cli.to_json_ms": (per_call_ms("cli.to_json"), "ms"),
        "cli.output_bytes": (cli_bytes / cli_ops if cli_ops else 0.0, "bytes"),
        "cli.cmd_model_ms": (per_call_ms("cli.cmd_model"), "ms"),
        "cli.cmd_scan_ms": (per_call_ms("cli.cmd_scan"), "ms"),
        "evolution.time_asymmetry_ms": (per_point_ms("evolution.time_asymmetry"), "ms"),
        "spin_rotation.closed_forms_ms": (per_point_ms("spin_rotation.closed_forms"), "ms"),
        "trace.untraced_op_ms": (untraced_ns / ops / 1e6, "ms"),
        "trace.traced_op_ms": (traced_ns / ops / 1e6, "ms"),
        "trace.overhead_ms": ((traced_ns - untraced_ns) / ops / 1e6, "ms"),
        "trace.unattributed_ms": (self_ns("op") / ops / 1e6, "ms"),
    }
    return {"metrics": metrics, "spans": recorder, "traced_ops": ops}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pseudoherm" / "__init__.py").is_file():
        print(f"bench: no package source under {SRC}", file=sys.stderr)
        return 2
    _pin_threads()
    sys.path[:0] = [str(SRC), str(BENCH)]
    import numpy as np

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    build, warmup = WORKLOADS[args.workload]
    machine = machine_record()

    OUT.mkdir(exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as workdir:
        requests = build(np.random.default_rng(args.seed), Path(workdir))
        if args.trace:
            dump_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz"
            result = run_traced(requests, warmup, args.seconds, tally)
        else:
            result = run_untraced(requests, warmup, args.seconds, tally)
            result["metrics"]["setup_s"] = (setup_seconds(), "s")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine,
              "failed_ops_ratio": tally.failed / tally.attempted,
              "failures": tally.reasons}
    if args.trace:
        record["traced_ops"] = result["traced_ops"]
        result["spans"].dump(dump_path, record)
        record["spans"] = str(dump_path.relative_to(ROOT))
    else:
        record["tail"] = result["tail"]
    for reason in tally.reasons:
        print(f"bench: FAILED {reason}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

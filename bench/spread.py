"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a source checkout::

    python3 bench/spread.py --seeds 10 --out bench/out/spread.json

Runs ``bench/run.py`` once per seed and workload with the settings of
``BENCHMARK.json`` and reports, per workload and metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=workloads)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    report: dict = {"run_seconds": config["run_seconds"]}
    for workload in args.workload or workloads:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            done = subprocess.run(
                [*config["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(config["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
            *_, record, result = (json.loads(line) for line in done.stdout.splitlines())
            report.setdefault("machine", record["machine"])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect\n{done.stderr}", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        report[workload] = {name: summarize(v) for name, v in values.items()}
        for name, s in report[workload].items():
            print(f"{workload:14} {name:16} median {s['median']:12.6g} "
                  f"spread {s['spread']:7.4f} bound {bounds[name]}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark ``--runs`` times per workload, each with another seed,
and prints for every end-to-end metric the median and the interquartile
range as a share of the median (``statistics.quantiles(values, n=4)``),
next to the metric's bound, the spread of the unscaled unit-time median
and the calibration kernel's own spread::

    python3 signoffbench/steadiness.py --runs 10 [--workload chip_warm] [--seconds 20]

Runs are sequential; on a 2-core machine parallel runs would measure each
other.  Raw results are written as JSON lines to ``--out`` when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    failures = 0
    for workload in workloads:
        rows = []
        for run in range(args.runs):
            seed = args.first_seed + run
            command = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", "0"]
            started = time.perf_counter()
            lines = subprocess.run(command, cwd=ROOT, check=True, capture_output=True, text=True, timeout=600).stdout.splitlines()
            wall = time.perf_counter() - started
            detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
            rows.append({"workload": workload, "seed": seed, "wall_s": wall, "result": result, "detail": detail})
            failures += result["failed"] + (not result["correct"])
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed={seed} wall={wall:.0f}s correct={result['correct']} failed={result['failed']} {values}", flush=True)
            if args.out is not None:
                with args.out.open("a") as handle:
                    handle.write(json.dumps(rows[-1]) + "\n")
        print(f"--- {workload}: {len(rows)} runs")
        for name, bound in bounds.items():
            median, share = spread([row["result"]["metrics"][name]["value"] for row in rows])
            flag = "ok" if share <= bound / 3 else ("within bound" if share <= bound else "TOO NOISY")
            print(f"{name:16s} median={median:10.4g} iqr/median={share:6.3f} bound={bound} {flag}")
        raw = [statistics.median(row["detail"]["unit_seconds"]) for row in rows]
        median, share = spread(raw)
        print(f"{'unscaled p50':16s} median={median:10.4g} iqr/median={share:6.3f} (s, before scaling to the reference speed)")
        kernel = [statistics.median(row["detail"]["kernel_ms"]) for row in rows]
        median, share = spread(kernel)
        print(f"{'calibration':16s} median={median:10.4g} iqr/median={share:6.3f} (calibration pass, ms)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

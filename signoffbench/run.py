"""End-to-end sign-off benchmark: SPEF -> extract -> characterize -> analyze -> NRC -> report.

Usage (from the root of a checkout)::

    python3 signoffbench/run.py --workload chip_warm --seed 0 --seconds 15 --trace 0

The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  The line
before it records the environment, the machine-jitter calibration taken
before and after the measured phase, and every unit's time.

The program is driven only through its public API (``repro.api``,
``repro.sna``, ``repro.service``), imported from ``src/`` of the checkout
this script sits in; without that tree the script exits with an error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def declared_metrics():
    """``{name: unit}`` for the end-to-end and per-layer tables of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return end_to_end, per_layer


def percentile(values, share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    from envinfo import REFERENCE_KERNEL_MS, calibrate, environment
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()

    scratch = ROOT / ".signoffbench_tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        calibration_before = calibrate()
        ctx = Context(ROOT, scratch, args.seed, args.seconds, bool(args.trace))
        outcome = WORKLOADS[args.workload](ctx)
        calibration_after = calibrate()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    # Times are reported at the reference machine speed: each unit is scaled
    # by REFERENCE_KERNEL_MS over the calibration pass time around it.  On a
    # shared machine the speed drifts by up to 2.5 times over minutes and
    # the pass follows it; the raw times stay in the per-layer table.
    units = outcome.unit_seconds
    samples = outcome.kernel_ms
    speed = [2.0 * REFERENCE_KERNEL_MS / (before + after) for before, after in zip(samples, samples[1:])]
    scaled = [seconds * factor for seconds, factor in zip(units, speed)]
    traced = set(outcome.traced_units)
    plain = [i for i in range(len(units)) if i not in traced]
    run_speed = REFERENCE_KERNEL_MS / statistics.median(samples)
    values = {
        "signoff_p50_s": statistics.median(scaled[i] for i in plain),
        "clusters_per_s": outcome.clusters_checked / sum(scaled),
        "setup_s": outcome.setup_s * run_speed,
        "peak_rss_mb": outcome.peak_rss_mb,
        "signoff_p90_s": percentile([scaled[i] for i in plain], 0.9),
        "raw.signoff_p50_s": statistics.median(units[i] for i in plain),
        "raw.clusters_per_s": outcome.clusters_checked / sum(units),
        "raw.setup_s": outcome.setup_s,
        "machine.kernel_ms": statistics.median(samples),
        "units": float(len(units)),
        "setup.warmup_s": outcome.warmup_s,
        **outcome.layers,
    }
    wanted = per_layer if args.trace else end_to_end
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in wanted.items()}
    correct = outcome.failed == 0 and not outcome.problems and outcome.attempted > 0
    detail = {
        "workload": args.workload,
        "environment": environment(ROOT, args.seed),
        "calibration_before": calibration_before,
        "calibration_after": calibration_after,
        "unit_seconds": units,
        "kernel_ms": samples,
        "traced_units": sorted(traced),
        "problems": outcome.problems,
        "layers": outcome.trace_table,
    }
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, outcome.attempted),
                "failed": outcome.failed if outcome.attempted else 1,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Transient-kernel scaling benchmark: vectorized assembly + LU-reuse fast path.

Sweeps circuit size for the two linear workload shapes that dominate the
characterisation and cluster flows -- Thevenin-driven RC ladders and
multi-net coupled clusters -- and times each against the pre-optimization
kernel (``legacy_kernel.transient_legacy``: full element-by-element Python
assembly on every Newton iteration of every time point).  A transistor-loaded variant
measures the Newton-path win (cached base matrices; only nonlinear elements
re-stamped per iteration).

Every linear case is additionally cross-checked: the fast-path and Newton
(lane stepper) solutions must agree within 1e-9 V, and the speedup over the legacy kernel
must be at least ``MIN_LINEAR_SPEEDUP``.

Results are written to ``BENCH_transient.json`` (see ``--output``); run with
``--quick`` for the CI smoke configuration.

Usage::

    PYTHONPATH=src python benchmarks/bench_transient_scaling.py [--quick]
"""

import argparse
import datetime
import json
import math
import os
import platform
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from legacy_kernel import transient_legacy
from repro.circuit import Circuit, SaturatedRamp, transient, transient_lanes
from repro.circuit.mosfet import MOSFETParams
from repro.units import fF, ps

#: Acceptance floor for the linear-circuit fast path vs the legacy kernel.
MIN_LINEAR_SPEEDUP = 3.0
#: Fast path and Newton path must agree to this tolerance (volts).
MAX_CROSSCHECK_DV = 1e-9

T_STOP = ps(500)
DT = ps(1)

_NMOS = MOSFETParams(polarity="n", vto=0.35, kp=3e-4, lambda_=0.06)
_PMOS = MOSFETParams(polarity="p", vto=0.35, kp=1.2e-4, lambda_=0.08)


def rc_ladder(num_segments):
    """Characterisation-style workload: Thevenin driver into an RC ladder."""
    circuit = Circuit(f"rc_ladder_{num_segments}")
    circuit.add_voltage_source(
        "VTH", "drv", "0", SaturatedRamp(0.0, 1.2, delay=ps(50), transition=ps(40))
    )
    circuit.add_resistor("RTH", "drv", "n0", 200.0)
    for i in range(num_segments):
        circuit.add_resistor(f"R{i}", f"n{i}", f"n{i + 1}", 120.0)
        circuit.add_capacitor(f"C{i}", f"n{i + 1}", "0", fF(4))
        circuit.add_capacitor(f"CC{i}", f"n{i}", f"n{i + 1}", fF(1))
    circuit.add_resistor("RHOLD", f"n{num_segments}", "0", 5e4)
    return circuit


def coupled_cluster(num_segments, num_aggressors=2, nonlinear_receivers=False):
    """Golden-cluster-style workload: coupled victim/aggressor nets.

    The victim net is held by a resistor (its driver is quiet) while the
    aggressor nets are driven by Thevenin ramps; neighbouring nets couple
    capacitively segment by segment.  With ``nonlinear_receivers`` each net
    gets an inverter receiver, which forces the Newton path.
    """
    circuit = Circuit(f"cluster_{num_segments}x{num_aggressors + 1}")
    nets = ["vic"] + [f"agg{k}" for k in range(num_aggressors)]
    circuit.add_resistor("RHOLD_vic", "vic_0", "0", 400.0)
    for k in range(num_aggressors):
        circuit.add_voltage_source(
            f"VTH_{k}",
            f"agg{k}_src",
            "0",
            SaturatedRamp(0.0, 1.2, delay=ps(40 + 15 * k), transition=ps(50)),
        )
        circuit.add_resistor(f"RTH_{k}", f"agg{k}_src", f"agg{k}_0", 250.0)
    for net in nets:
        for i in range(num_segments):
            circuit.add_resistor(f"R_{net}_{i}", f"{net}_{i}", f"{net}_{i + 1}", 90.0)
            circuit.add_capacitor(f"Cg_{net}_{i}", f"{net}_{i + 1}", "0", fF(3))
    for a, b in zip(nets, nets[1:]):
        for i in range(num_segments + 1):
            circuit.add_capacitor(f"Cc_{a}_{b}_{i}", f"{a}_{i}", f"{b}_{i}", fF(1.5))
    if nonlinear_receivers:
        circuit.add_voltage_source("VDD", "vdd", "0", 1.2)
        for net in nets:
            tail = f"{net}_{num_segments}"
            circuit.add_mosfet(f"MN_{net}", f"{net}_out", tail, "0", _NMOS, w=1e-6)
            circuit.add_mosfet(f"MP_{net}", f"{net}_out", tail, "vdd", _PMOS, w=2e-6)
            circuit.add_capacitor(f"CL_{net}", f"{net}_out", "0", fF(2))
    else:
        for net in nets:
            circuit.add_capacitor(f"CL_{net}", f"{net}_{num_segments}", "0", fF(2))
    return circuit


def _newton(circuit, t_stop, dt):
    """The Newton path on any circuit: the lane stepper, one lane."""
    (result,) = transient_lanes(circuit, t_stop, dt, [{}])
    if isinstance(result, Exception):
        raise result
    return result


def _time_run(factory, run, repeats):
    """Best-of-``repeats`` wall-clock of one transient configuration."""
    best = math.inf
    result = None
    for _ in range(repeats):
        circuit = factory()
        start = time.perf_counter()
        result = run(circuit, T_STOP, DT)
        best = min(best, time.perf_counter() - start)
    return best, result


def run_case(name, factory, *, repeats, linear):
    """Benchmark one circuit: legacy baseline vs the optimized kernel."""
    t_legacy, r_legacy = _time_run(factory, transient_legacy, repeats)
    t_new, r_new = _time_run(factory, transient, repeats)
    max_dv = float(np.max(np.abs(r_legacy.solutions - r_new.solutions)))

    row = {
        "case": name,
        "linear": linear,
        "num_unknowns": int(r_new.solutions.shape[1]),
        "time_points": int(r_new.stats.num_time_points),
        "legacy_seconds": t_legacy,
        "optimized_seconds": t_new,
        "speedup": t_legacy / t_new,
        "max_dv_vs_legacy": max_dv,
        "fast_path": bool(r_new.stats.fast_path),
        "newton_iterations": int(r_new.stats.newton_iterations),
        "assemblies_avoided": int(r_new.stats.assemblies_avoided),
        "lu_reuse_hits": int(r_new.stats.lu_reuse_hits),
        "matrix_factorizations": int(r_new.stats.matrix_factorizations),
    }
    if linear:
        # Cross-check the LU fast path against the generic Newton path.
        _, r_newton = _time_run(factory, _newton, 1)
        row["max_dv_fast_vs_newton"] = float(
            np.max(np.abs(r_new.solutions - r_newton.solutions))
        )
    print(
        f"{name:32s} n={row['num_unknowns']:4d}  "
        f"legacy={t_legacy * 1e3:8.1f} ms  optimized={t_new * 1e3:7.1f} ms  "
        f"speedup={row['speedup']:6.1f}x  max|dV|={max_dv:.2e}"
    )
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small sweep for CI smoke runs"
    )
    parser.add_argument(
        "--output",
        default=os.path.join(os.path.dirname(__file__), "..", "BENCH_transient.json"),
        help="path of the JSON report (default: repo-root BENCH_transient.json)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        # Best-of-3 timing even in quick mode: the speedup floor gates CI,
        # and a single sample on a shared runner is too noisy to gate on.
        ladder_sizes, cluster_sizes, repeats = [10, 25], [6], 3
    else:
        ladder_sizes, cluster_sizes, repeats = [10, 20, 40, 80], [4, 8, 16], 3

    rows = []
    print("--- linear workloads (LU-reuse fast path vs legacy kernel) ---")
    for size in ladder_sizes:
        rows.append(
            run_case(
                f"characterization_rc_ladder_{size}",
                lambda s=size: rc_ladder(s),
                repeats=repeats,
                linear=True,
            )
        )
    for size in cluster_sizes:
        rows.append(
            run_case(
                f"cluster_linear_{size}seg",
                lambda s=size: coupled_cluster(s),
                repeats=repeats,
                linear=True,
            )
        )
    print("--- nonlinear workload (vectorized Newton path vs legacy kernel) ---")
    rows.append(
        run_case(
            "cluster_golden_mosfet_receivers",
            lambda: coupled_cluster(
                cluster_sizes[0], nonlinear_receivers=True
            ),
            repeats=repeats,
            linear=False,
        )
    )

    linear_rows = [row for row in rows if row["linear"]]
    speedups = [row["speedup"] for row in linear_rows]
    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    worst_dv = max(row["max_dv_fast_vs_newton"] for row in linear_rows)
    summary = {
        "linear_speedup_min": min(speedups),
        "linear_speedup_geomean": geomean,
        "linear_max_dv_fast_vs_newton": worst_dv,
        "nonlinear_speedups": {
            row["case"]: row["speedup"] for row in rows if not row["linear"]
        },
    }
    report = {
        "benchmark": "bench_transient_scaling",
        "recorded_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "quick": args.quick,
        "t_stop_seconds": T_STOP,
        "dt_seconds": DT,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "results": rows,
        "summary": summary,
    }
    output = os.path.abspath(args.output)
    with open(output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    print(
        f"\nlinear speedup: min {summary['linear_speedup_min']:.1f}x, "
        f"geomean {geomean:.1f}x  (floor: {MIN_LINEAR_SPEEDUP}x); "
        f"fast-vs-Newton max|dV| = {worst_dv:.2e}"
    )
    print(f"wrote {output}")

    failures = []
    if summary["linear_speedup_min"] < MIN_LINEAR_SPEEDUP:
        failures.append(
            f"linear speedup {summary['linear_speedup_min']:.2f}x is below the "
            f"{MIN_LINEAR_SPEEDUP}x floor"
        )
    if worst_dv > MAX_CROSSCHECK_DV:
        failures.append(
            f"fast path deviates from Newton by {worst_dv:.2e} V (> {MAX_CROSSCHECK_DV})"
        )
    for row in linear_rows:
        if not row["fast_path"]:
            failures.append(f"linear case {row['case']} did not take the fast path")
    if failures:
        print("FAILED:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Reduced-order vs sparse transient benchmark: the macromodeling payoff.

Sweeps synthetic interconnect victims (fixed-wire RC ladders, meshes, trees
and coupled pairs from :mod:`repro.interconnect.synth`) at and beyond the
thousand-node mark, and compares a PRIMA-reduced transient
(:func:`repro.reduction.reduce_circuit`, projection time *included*) against
the sparse-backend linear fast path.  Every case is differentially gated:
the reduced receiver waveform must stay within ``MAX_REL_ERROR`` relative
error of the sparse reference, and the geometric-mean speedup over the
gated (>= 1000 unknowns) cases must clear ``MIN_SPEEDUP_GEOMEAN`` -- the
workload-class claim the reduction subsystem exists for.

All cases use fixed-wire scaling: the *total* wire resistance and
capacitance are held constant while the segment count grows, so a
5000-node ladder models the same physical wire -- same ~120 ps time
constant -- as a 100-node one, and the 500 ps analysis window exercises
the full waveform at every size.

Results are written to ``BENCH_reduction.json`` (see ``--output``); CI runs
``--quick`` and gates ``summary.reduction_speedup_geomean`` against the
committed baseline with ``check_regression.py``.  ``--smoke`` runs a single
1000-node ladder end to end for the sweep-smoke job.

Usage::

    PYTHONPATH=src python benchmarks/bench_reduction.py [--quick|--smoke]
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

from repro.circuit import transient
from repro.interconnect import (
    make_coupled_pair,
    make_driven_circuit,
    make_rc_ladder,
    make_rc_mesh,
    make_rc_tree,
    make_victim_aggressor_circuit,
)
from repro.reduction import DEFAULT_REDUCTION_ORDER, reduce_circuit
from repro.units import fF, ps

#: Reduced receiver waveform must stay within this relative error of the
#: sparse reference on every case (normalised by the reference peak).
MAX_REL_ERROR = 1e-3
#: Acceptance floor: geomean reduced-over-sparse speedup on the gated
#: (>= GATE_MIN_UNKNOWNS) cases, projection time included.
MIN_SPEEDUP_GEOMEAN = 5.0
#: Cases at or above this unknown count feed the gated geomean.
GATE_MIN_UNKNOWNS = 1000

#: A noise-analysis window: fine enough (0.5 ps) to resolve ps-scale
#: glitch peaks, long enough (1 ns) to cover injection plus settling.
T_STOP = ps(1000)
DT = ps(0.5)

#: Fixed wire budget shared by every case: ~120 ps distributed time
#: constant, fully developed inside the 500 ps window.
TOTAL_R = 1.2e3
TOTAL_C = fF(200)


def ladder_circuit(num_nodes):
    network = make_rc_ladder(
        num_nodes,
        segment_resistance=TOTAL_R / num_nodes,
        node_capacitance=TOTAL_C / num_nodes,
    )
    return network, make_driven_circuit(network), f"vic:{num_nodes}"


def mesh_circuit(side):
    # 2 * side segments on the corner-to-corner path; capacitance spread
    # over side^2 nodes.
    network = make_rc_mesh(
        side,
        side,
        segment_resistance=TOTAL_R / (2 * side),
        node_capacitance=TOTAL_C / (side * side),
    )
    return network, make_driven_circuit(network), f"mesh:{side - 1}.{side - 1}"


def tree_circuit(num_nodes, branching=3):
    network = make_rc_tree(
        num_nodes,
        branching=branching,
        segment_resistance=TOTAL_R / num_nodes,
        node_capacitance=TOTAL_C / num_nodes,
    )
    return network, make_driven_circuit(network), f"tree:{num_nodes}"


def pair_circuit(num_nodes):
    network = make_coupled_pair(
        num_nodes,
        segment_resistance=TOTAL_R / num_nodes,
        node_capacitance=TOTAL_C / num_nodes,
        coupling_capacitance=fF(100) / num_nodes,
    )
    return network, make_victim_aggressor_circuit(network), f"vic:{num_nodes}"


def run_case(name, factory, *, repeats, order=DEFAULT_REDUCTION_ORDER):
    """Benchmark one circuit: sparse reference vs reduced macromodel."""
    best_sparse = best_reduced = math.inf
    reference = reduced_result = None
    observe = None
    for _ in range(repeats):
        _, circuit, observe = factory()
        start = time.perf_counter()
        reference = transient(
            circuit, t_stop=T_STOP, dt=DT, backend="sparse"
        )
        best_sparse = min(best_sparse, time.perf_counter() - start)

        _, circuit, observe = factory()
        start = time.perf_counter()
        macromodel = reduce_circuit(circuit, order=order)
        reduced_result = macromodel.transient(T_STOP, DT)
        best_reduced = min(best_reduced, time.perf_counter() - start)

    ref_wave = reference.node_voltage(observe).values
    red_wave = reduced_result.node_voltage(observe)
    scale = float(np.max(np.abs(ref_wave)))
    rel_error = float(np.max(np.abs(red_wave - ref_wave)) / scale)
    stats = reduced_result.stats
    row = {
        "case": name,
        "num_unknowns": int(stats.num_unknowns),
        "reduced_order": int(stats.order),
        "time_points": int(stats.num_time_points),
        "sparse_seconds": best_sparse,
        "reduced_seconds": best_reduced,
        "reduction_setup_seconds": float(stats.setup_seconds),
        "reduction_speedup": best_sparse / best_reduced,
        "rel_error": rel_error,
        "gated": int(stats.num_unknowns) >= GATE_MIN_UNKNOWNS,
    }
    print(
        f"{name:24s} n={row['num_unknowns']:5d} q={row['reduced_order']:3d}  "
        f"sparse={best_sparse * 1e3:8.1f} ms  reduced={best_reduced * 1e3:7.1f} ms  "
        f"speedup={row['reduction_speedup']:6.2f}x  rel_err={rel_error:.2e}"
    )
    return row


def run_smoke():
    """Sweep-smoke: one 1000-node ladder through the reduction path."""
    _, circuit, observe = ladder_circuit(1000)
    start = time.perf_counter()
    macromodel = reduce_circuit(circuit)
    result = macromodel.transient(T_STOP, DT)
    elapsed = time.perf_counter() - start
    _, circuit, _ = ladder_circuit(1000)
    reference = transient(circuit, t_stop=T_STOP, dt=DT)
    ref_wave = reference.node_voltage(observe).values
    red_wave = result.node_voltage(observe)
    rel_error = float(
        np.max(np.abs(red_wave - ref_wave)) / np.max(np.abs(ref_wave))
    )
    print(
        f"1000-node ladder smoke: order {result.stats.order} of "
        f"{result.stats.num_unknowns} unknowns ({elapsed * 1e3:.1f} ms), "
        f"rel_err vs sparse = {rel_error:.2e}"
    )
    failures = []
    if result.stats.order >= result.stats.num_unknowns:
        failures.append("the projection did not reduce the system")
    if not np.all(np.isfinite(result.states)):
        failures.append("reduced transient produced non-finite states")
    if rel_error > MAX_REL_ERROR:
        failures.append(
            f"reduced deviates from the reference by {rel_error:.2e} "
            f"(> {MAX_REL_ERROR})"
        )
    if failures:
        print("FAILED:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 1
    print("OK: reduction smoke passed")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small sweep for CI gate runs"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run only the 1000-node reduction smoke (no JSON record)",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(os.path.dirname(__file__), "..", "BENCH_reduction.json"),
        help="path of the JSON report (default: repo-root BENCH_reduction.json)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke()

    cases = [
        ("rc_ladder_1000", lambda: ladder_circuit(1000)),
        ("rc_ladder_2000", lambda: ladder_circuit(2000)),
        ("rc_mesh_32x32", lambda: mesh_circuit(32)),
        ("coupled_pair_600", lambda: pair_circuit(600)),
    ]
    repeats = 2
    if not args.quick:
        cases += [
            ("rc_ladder_5000", lambda: ladder_circuit(5000)),
            ("rc_mesh_40x40", lambda: mesh_circuit(40)),
            ("rc_tree_2000", lambda: tree_circuit(2000)),
            ("coupled_pair_1000", lambda: pair_circuit(1000)),
        ]
        repeats = 3

    rows = []
    print(f"--- PRIMA order {DEFAULT_REDUCTION_ORDER} vs sparse fast path ---")
    for name, factory in cases:
        rows.append(run_case(name, factory, repeats=repeats))

    # The gate averages the >= 1000-unknown cases the subsystem targets; the
    # smaller ones document behaviour near the auto threshold and are
    # deliberately not gated.
    gated = [row for row in rows if row["gated"]]
    speedups = [row["reduction_speedup"] for row in gated]
    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    worst_error = max(row["rel_error"] for row in rows)
    summary = {
        "reduction_speedup_geomean": geomean,
        "reduction_max_rel_error": worst_error,
        "reduction_order": DEFAULT_REDUCTION_ORDER,
        "gate_min_unknowns": GATE_MIN_UNKNOWNS,
        "num_gated_cases": len(gated),
    }
    report = {
        "benchmark": "bench_reduction",
        "recorded_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "quick": args.quick,
        "t_stop_seconds": T_STOP,
        "dt_seconds": DT,
        "total_resistance_ohm": TOTAL_R,
        "total_capacitance_farad": TOTAL_C,
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
        f"\nreduction speedup: geomean {geomean:.1f}x over the "
        f"{len(gated)} gated cases (floor: {MIN_SPEEDUP_GEOMEAN}x); "
        f"max rel error = {worst_error:.2e} (limit: {MAX_REL_ERROR})"
    )
    print(f"wrote {output}")

    failures = []
    if geomean < MIN_SPEEDUP_GEOMEAN:
        failures.append(
            f"gated geomean speedup {geomean:.2f}x is below the "
            f"{MIN_SPEEDUP_GEOMEAN}x floor"
        )
    if worst_error > MAX_REL_ERROR:
        failures.append(
            f"reduced deviates from the sparse reference by {worst_error:.2e} "
            f"(> {MAX_REL_ERROR})"
        )
    if failures:
        print("FAILED:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Dense-vs-sparse solver backend benchmark: the crossover curve.

Sweeps synthetic interconnect victims (series RC ladders and 2-D resistive
meshes from :mod:`repro.interconnect.synth`) across node counts spanning the
dense/sparse crossover, and times a fixed-step linear transient under each
forced backend.  Every case is differentially gated: the two backends must
agree within ``MAX_BACKEND_DV`` volts, and the 2000-node ladder must show at
least ``MIN_SPEEDUP_2000`` sparse-over-dense speedup -- the workload-class
claim this backend exists for.

Results are written to ``BENCH_sparse.json`` (see ``--output``); CI runs
``--quick`` and gates ``summary.sparse_speedup_geomean`` against the
committed baseline with ``check_regression.py``.  ``--smoke`` runs a single
1000-node ladder end to end (auto backend selection included) for the
sweep-smoke job.

Usage::

    PYTHONPATH=src python benchmarks/bench_sparse_backend.py [--quick|--smoke]
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
from repro.circuit.stamping import SPARSE_AUTO_THRESHOLD
from repro.interconnect import make_driven_circuit, make_rc_ladder, make_rc_mesh
from repro.units import ps

#: The two backends must agree to this tolerance (volts) on every case.
MAX_BACKEND_DV = 1e-9
#: Acceptance floor: sparse speedup on the 2000-node RC ladder transient.
MIN_SPEEDUP_2000 = 5.0

T_STOP = ps(500)
DT = ps(1)


def ladder_circuit(num_nodes):
    return make_driven_circuit(make_rc_ladder(num_nodes))


def mesh_circuit(side):
    return make_driven_circuit(make_rc_mesh(side, side))


def _time_run(factory, backend, repeats):
    """Best-of-``repeats`` wall-clock of one linear transient configuration."""
    best = math.inf
    result = None
    for _ in range(repeats):
        circuit = factory()
        start = time.perf_counter()
        result = transient(
            circuit, t_stop=T_STOP, dt=DT, backend=backend
        )
        best = min(best, time.perf_counter() - start)
    return best, result


def run_case(name, factory, *, repeats):
    """Benchmark one circuit under both forced backends."""
    t_dense, r_dense = _time_run(factory, "dense", repeats)
    t_sparse, r_sparse = _time_run(factory, "sparse", repeats)
    max_dv = float(np.max(np.abs(r_dense.solutions - r_sparse.solutions)))
    num_unknowns = int(r_sparse.solutions.shape[1])
    row = {
        "case": name,
        "num_unknowns": num_unknowns,
        "time_points": int(r_sparse.stats.num_time_points),
        "dense_seconds": t_dense,
        "sparse_seconds": t_sparse,
        "sparse_speedup": t_dense / t_sparse,
        "max_dv_sparse_vs_dense": max_dv,
        "auto_backend": "sparse" if num_unknowns >= SPARSE_AUTO_THRESHOLD else "dense",
        "lu_reuse_hits": int(r_sparse.stats.lu_reuse_hits),
        "matrix_factorizations": int(r_sparse.stats.matrix_factorizations),
    }
    print(
        f"{name:24s} n={num_unknowns:5d}  dense={t_dense * 1e3:8.1f} ms  "
        f"sparse={t_sparse * 1e3:7.1f} ms  speedup={row['sparse_speedup']:6.2f}x  "
        f"max|dV|={max_dv:.2e}"
    )
    return row


def run_smoke():
    """Sweep-smoke: a 1000-node ladder through the *auto* path, end to end."""
    circuit = make_driven_circuit(make_rc_ladder(1000))
    start = time.perf_counter()
    result = transient(circuit, t_stop=T_STOP, dt=DT)
    elapsed = time.perf_counter() - start
    reference = transient(
        make_driven_circuit(make_rc_ladder(1000)),
        t_stop=T_STOP,
        dt=DT,
        backend="dense",
    )
    max_dv = float(np.max(np.abs(result.solutions - reference.solutions)))
    print(
        f"1000-node ladder smoke: backend={result.stats.backend} "
        f"({elapsed * 1e3:.1f} ms), max|dV| vs dense = {max_dv:.2e}"
    )
    failures = []
    if result.stats.backend != "sparse":
        failures.append(
            f"auto backend picked '{result.stats.backend}' for a 1000-node ladder"
        )
    if not result.stats.fast_path:
        failures.append("the linear 1000-node ladder did not take the fast path")
    if not np.all(np.isfinite(result.solutions)):
        failures.append("smoke transient produced non-finite values")
    if max_dv > MAX_BACKEND_DV:
        failures.append(f"sparse deviates from dense by {max_dv:.2e} V")
    if failures:
        print("FAILED:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 1
    print("OK: large-network smoke passed")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small sweep for CI gate runs"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run only the 1000-node auto-backend smoke (no JSON record)",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(os.path.dirname(__file__), "..", "BENCH_sparse.json"),
        help="path of the JSON report (default: repo-root BENCH_sparse.json)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke()

    if args.quick:
        # The 2000-node acceptance case stays in quick mode: it is the row
        # the committed baseline and the CI gate are about.
        ladder_sizes, mesh_sides, repeats = [200, 1000, 2000], [32], 2
    else:
        ladder_sizes, mesh_sides, repeats = [100, 200, 500, 1000, 2000, 3000], [24, 40], 3

    rows = []
    print("--- RC ladders (tridiagonal structure) ---")
    for size in ladder_sizes:
        rows.append(
            run_case(f"rc_ladder_{size}", lambda s=size: ladder_circuit(s), repeats=repeats)
        )
    print("--- RC meshes (grid structure) ---")
    for side in mesh_sides:
        rows.append(
            run_case(f"rc_mesh_{side}x{side}", lambda s=side: mesh_circuit(s), repeats=repeats)
        )

    # The gate metric averages the cases the auto policy actually routes to
    # the sparse backend; the small cases document the dense side of the
    # crossover and are deliberately not gated (dense is *supposed* to win).
    gated = [row for row in rows if row["auto_backend"] == "sparse"]
    speedups = [row["sparse_speedup"] for row in gated]
    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    worst_dv = max(row["max_dv_sparse_vs_dense"] for row in rows)
    ladder_2000 = next(row for row in rows if row["case"] == "rc_ladder_2000")
    # Largest benchmarked size where dense still won: documents the measured
    # crossover relative to SPARSE_AUTO_THRESHOLD.
    dense_wins = [row["num_unknowns"] for row in rows if row["sparse_speedup"] < 1.0]
    summary = {
        "sparse_speedup_geomean": geomean,
        "sparse_speedup_2000_ladder": ladder_2000["sparse_speedup"],
        "max_dv_sparse_vs_dense": worst_dv,
        "auto_threshold_unknowns": SPARSE_AUTO_THRESHOLD,
        "largest_dense_win_unknowns": max(dense_wins) if dense_wins else 0,
    }
    report = {
        "benchmark": "bench_sparse_backend",
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
        f"\nsparse speedup: geomean {geomean:.1f}x over auto-sparse cases, "
        f"{ladder_2000['sparse_speedup']:.1f}x on the 2000-node ladder "
        f"(floor: {MIN_SPEEDUP_2000}x); sparse-vs-dense max|dV| = {worst_dv:.2e}"
    )
    print(f"wrote {output}")

    failures = []
    if ladder_2000["sparse_speedup"] < MIN_SPEEDUP_2000:
        failures.append(
            f"2000-node ladder sparse speedup {ladder_2000['sparse_speedup']:.2f}x "
            f"is below the {MIN_SPEEDUP_2000}x floor"
        )
    if worst_dv > MAX_BACKEND_DV:
        failures.append(
            f"sparse deviates from dense by {worst_dv:.2e} V (> {MAX_BACKEND_DV})"
        )
    if failures:
        print("FAILED:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

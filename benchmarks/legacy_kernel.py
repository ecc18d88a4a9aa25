"""The pre-kernel transient: element-by-element assembly on every iteration.

``repro.circuit`` assembles MNA systems from a compiled stamping kernel
(cached base matrices, vectorized right-hand sides).  This module keeps the
original procedure -- rebuild the full dense system element by element on
every Newton iteration of every time point -- for two uses:

* the baseline ``benchmarks/bench_transient_scaling.py`` times the kernel
  against;
* the reference the kernel's correctness tests compare with (the tests load
  this file by path).

It is not part of the ``repro`` package: nothing in the library runs it,
and importing it needs ``src/`` on the path, as the benchmarks set up.
"""

import numpy as np

from repro.circuit.transient import (
    TransientResult,
    _initial_state,
    _run_newton_path,
    build_time_axis,
)


def assemble_legacy(circuit, ctx):
    """Rebuild the full dense system ``(A, z)`` element by element.

    This is the pre-kernel behaviour, including the per-call ``prepare()``
    guard.
    """
    circuit.prepare()
    n = circuit.num_unknowns
    A = np.zeros((n, n))
    z = np.zeros(n)
    for element in circuit.elements:
        element.stamp(A, z, ctx)
    # Minimum conductance from every node to ground: keeps the matrix
    # non-singular when nodes are floating (e.g. gate nodes driven only by
    # capacitors at DC).
    if ctx.gmin > 0.0:
        idx = np.arange(circuit.num_nodes)
        A[idx, idx] += ctx.gmin
    return A, z


def transient_legacy(circuit, t_stop, dt, *, method="trap", max_newton=50, vtol=1e-6):
    """A transient on the legacy assembly, dense end to end.

    The initial DC operating point is dense too, so a timing of this call
    never hides a sparse solve.  Every time point runs damped Newton with
    :func:`assemble_legacy` and each element's own ``update_state``, on
    linear circuits as on nonlinear ones.
    """
    circuit.prepare()
    times = build_time_axis(circuit, t_stop, dt)
    x = _initial_state(circuit, None, None, False, "dense")
    solutions = np.zeros((len(times), circuit.kernel.n))
    solutions[0] = x
    stats = _run_newton_path(
        circuit, times, x, solutions, method=method, max_newton=max_newton,
        vtol=vtol, backend="dense", assembler=assemble_legacy,
    )
    stats.num_time_points = len(times) - 1
    return TransientResult(
        circuit, times, solutions, newton_iterations=stats.newton_iterations, stats=stats
    )

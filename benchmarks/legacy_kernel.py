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
and importing it needs ``src/`` on the path, as the benchmarks set up.  It
runs its own damped-Newton step loop (the library's, with the same retry
rungs and damping) so the library keeps no assembly seam for it.
"""

import numpy as np

from repro.circuit.dc import ConvergenceError, dc_operating_point
from repro.circuit.elements import StampContext
from repro.circuit.mna import solve_linear_system
from repro.circuit.stamping import RETRY_RUNGS
from repro.circuit.transient import TransientResult, TransientStats, build_time_axis


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


def newton_legacy(circuit, x0, *, time, dt, method, prev_x, prev_state,
                  max_iterations, vtol, damping_limit=1.0, itol=1e-9):
    """Damped Newton on :func:`assemble_legacy`; returns ``(x, iterations)``.

    The same iteration and convergence test as
    :func:`repro.circuit.dc.newton_solve`, on a dense system rebuilt on
    every iteration.
    """
    x = np.array(x0, dtype=float, copy=True)
    apply_damping = circuit.is_nonlinear()
    for iteration in range(1, max_iterations + 1):
        ctx = StampContext(
            x=x, prev_x=prev_x, time=time, dt=dt, method=method,
            gmin=circuit.gmin, prev_state=prev_state,
        )
        A, z = assemble_legacy(circuit, ctx)
        residual = A @ x - z
        x_new = solve_linear_system(A, z)
        dx = x_new - x

        max_dx = float(np.max(np.abs(dx))) if dx.size else 0.0
        if apply_damping and max_dx > damping_limit:
            dx *= damping_limit / max_dx
            x = x + dx
        else:
            x = x_new

        num_nodes = circuit.num_nodes
        max_residual = float(np.max(np.abs(residual[:num_nodes]))) if num_nodes else 0.0
        if max_dx < vtol and max_residual < max(itol, 1e-6 * (1.0 + max_residual)):
            return x, iteration
        if max_dx < vtol and iteration > 1:
            return x, iteration
    raise ConvergenceError(
        f"Newton did not converge in {max_iterations} iterations "
        f"(last max dV = {max_dx:.3e})"
    )


def transient_legacy(circuit, t_stop, dt, *, method="trap", max_newton=50, vtol=1e-6):
    """A transient on the legacy assembly, dense end to end.

    The initial DC operating point is dense too, so a timing of this call
    never hides a sparse solve.  Every time point runs :func:`newton_legacy`
    (falling back through the library's ``RETRY_RUNGS`` to backward Euler)
    and each element's own ``update_state``, on linear circuits as on
    nonlinear ones.
    """
    circuit.prepare()
    times = build_time_axis(circuit, t_stop, dt)
    x = np.array(dc_operating_point(circuit, backend="dense").x, copy=True)
    solutions = np.zeros((len(times), circuit.kernel.n))
    solutions[0] = x

    prev_state = {}
    ctx0 = StampContext(
        x=x, prev_x=x, time=0.0, dt=None, method=method, gmin=circuit.gmin, state=prev_state
    )
    for element in circuit.elements:
        element.update_state(ctx0)
    prev_x = x
    total_newton = 0
    recoveries = []
    for step_index in range(1, len(times)):
        t = float(times[step_index])
        # Twelve significant digits, as the library quantizes uniform steps.
        step_dt = float(f"{float(times[step_index] - times[step_index - 1]):.12e}")
        step = dict(time=t, dt=step_dt, prev_x=prev_x, prev_state=prev_state, vtol=vtol)
        step_method = method
        try:
            x_new, iters = newton_legacy(
                circuit, prev_x, method=method, max_iterations=max_newton, **step
            )
        except ConvergenceError:
            for rung_index, (rung, budget_scale, damping) in enumerate(RETRY_RUNGS):
                try:
                    x_new, iters = newton_legacy(
                        circuit, prev_x, method="be", max_iterations=max_newton * budget_scale,
                        damping_limit=damping, **step,
                    )
                except ConvergenceError:
                    if rung_index == len(RETRY_RUNGS) - 1:
                        raise
                    continue
                recoveries.append(f"t={t:.4e}: {rung}")
                break
            step_method = "be"
        total_newton += iters

        new_state = {}
        ctx_accept = StampContext(
            x=x_new, prev_x=prev_x, time=t, dt=step_dt, method=step_method,
            gmin=circuit.gmin, state=new_state, prev_state=prev_state,
        )
        for element in circuit.elements:
            element.update_state(ctx_accept)
        solutions[step_index] = x_new
        prev_x = x_new
        prev_state = new_state

    stats = TransientStats(
        num_time_points=len(times) - 1,
        newton_iterations=total_newton,
        matrix_factorizations=total_newton,  # one dense solve per iteration
        recoveries=recoveries,
    )
    return TransientResult(
        circuit, times, solutions, newton_iterations=total_newton, stats=stats
    )

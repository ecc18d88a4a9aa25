"""DC operating-point analysis.

The solver is a damped Newton-Raphson iteration on the MNA equations with two
classical continuation fall-backs when plain Newton fails to converge:

* **gmin stepping** -- solve a sequence of problems with a large conductance
  to ground added at every node, progressively reduced to the target value;
* **source stepping** -- ramp all independent sources from zero to their full
  value, using each converged solution as the initial guess of the next.

These are the same strategies production SPICE engines use; for the CMOS
noise-cluster circuits in this library plain Newton almost always converges
in a handful of iterations, but the fall-backs make the characterisation
sweeps (which visit unusual bias points) dependable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .elements import GROUND, StampContext, VoltageSource
from .mna import SingularMatrixError, solve_linear_system
from .netlist import Circuit
from .stamping import ConvergenceError, resolve_backend

__all__ = ["DCSolution", "ConvergenceError", "dc_operating_point", "newton_solve"]


@dataclass
class DCSolution:
    """Result of a DC operating-point analysis."""

    circuit: Circuit
    x: np.ndarray
    iterations: int
    gmin: float
    #: Which strategy converged: "newton" (plain), "gmin-stepping" or
    #: "source-stepping" -- surfaces *how hard* the operating point was,
    #: which the degradation ladder and reports use as a conditioning hint.
    strategy: str = "newton"

    def voltage(self, node_name: str) -> float:
        """Voltage of the named node (0.0 for ground)."""
        idx = self.circuit.node_index(node_name)
        if idx == GROUND:
            return 0.0
        return float(self.x[idx])

    def voltages(self) -> Dict[str, float]:
        """Dictionary of all node voltages."""
        return {name: float(self.x[i]) for i, name in enumerate(self.circuit.node_names)}

    def source_current(self, source_name: str) -> float:
        """Branch current of a voltage source (positive from + to - inside)."""
        element = self.circuit[source_name]
        if not isinstance(element, VoltageSource):
            raise TypeError(f"'{source_name}' is not a voltage source")
        return element.branch_current(self.x)

    def __getitem__(self, node_name: str) -> float:
        return self.voltage(node_name)


def newton_solve(
    circuit: Circuit,
    x0: np.ndarray,
    *,
    gmin: float,
    source_scale: float = 1.0,
    max_iterations: int = 100,
    vtol: float = 1e-6,
    itol: float = 1e-9,
    damping_limit: float = 1.0,
    time: float = 0.0,
    dt: Optional[float] = None,
    method: str = "trap",
    prev_x: Optional[np.ndarray] = None,
    prev_state: Optional[dict] = None,
    backend: str = "auto",
) -> tuple:
    """Damped Newton iteration; returns ``(x, iterations)``.

    ``damping_limit`` caps the per-iteration change of any unknown, which is
    a cheap but effective globalisation for MOSFET circuits.

    The circuit must already be prepared; the default assembly path starts
    every iteration from the kernel's cached base matrix and the linear
    right-hand side computed once per call (it is constant over the Newton
    iterations -- only nonlinear companion stamps depend on the iterate).
    ``backend`` selects the matrix substrate (``"auto"``/``"dense"``/
    ``"sparse"``, see :func:`repro.circuit.stamping.resolve_backend`); large
    sparse systems factorise with ``scipy.sparse.linalg.splu`` instead of
    dense LAPACK.
    """
    kernel = circuit.kernel  # asserts the circuit is prepared
    x = np.array(x0, dtype=float, copy=True)
    n_unknowns = kernel.n
    if x.shape != (n_unknowns,):
        raise ValueError(f"initial guess has wrong size {x.shape}, expected {n_unknowns}")
    backend = resolve_backend(backend, n_unknowns)

    # Damping is a globalisation aid for non-linear circuits; a purely linear
    # circuit converges in a single full Newton step, which damping would
    # needlessly truncate (e.g. high-voltage linear nodes).
    apply_damping = circuit.is_nonlinear()
    point = None

    for iteration in range(1, max_iterations + 1):
        ctx = StampContext(
            x=x,
            prev_x=prev_x,
            time=time,
            dt=dt,
            method=method,
            gmin=gmin,
            source_scale=source_scale,
            prev_state=prev_state or {},
        )
        # Base matrix, cache key and linear RHS are constant over the Newton
        # iterations of this point -- compute them once.
        if point is None:
            point = kernel.point(ctx, backend=backend)
        A, z = point.assemble(ctx)
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


def dc_operating_point(
    circuit: Circuit,
    x0: Optional[np.ndarray] = None,
    *,
    max_iterations: int = 100,
    vtol: float = 1e-6,
    gmin: Optional[float] = None,
    use_gmin_stepping: bool = True,
    use_source_stepping: bool = True,
    backend: str = "auto",
) -> DCSolution:
    """Compute the DC operating point of ``circuit``.

    Parameters
    ----------
    circuit:
        The circuit to solve.
    x0:
        Optional initial guess for the unknown vector.
    max_iterations:
        Newton iteration budget per continuation step.
    vtol:
        Convergence tolerance on the node-voltage update (volts).
    gmin:
        Target minimum conductance (defaults to the circuit's ``gmin``).
    use_gmin_stepping / use_source_stepping:
        Enable/disable the continuation fall-backs.
    backend:
        Solver backend (``"auto"``/``"dense"``/``"sparse"``); forwarded to
        every Newton call, continuation steps included.
    """
    circuit.prepare()
    target_gmin = circuit.gmin if gmin is None else gmin
    n = circuit.num_unknowns
    if x0 is None:
        x0 = np.zeros(n)

    # 1. Plain Newton.
    try:
        x, iterations = newton_solve(
            circuit, x0, gmin=target_gmin, max_iterations=max_iterations, vtol=vtol,
            backend=backend,
        )
        return DCSolution(circuit, x, iterations, target_gmin)
    except (ConvergenceError, SingularMatrixError):
        pass

    # 2. gmin stepping.
    if use_gmin_stepping:
        try:
            x = np.array(x0, copy=True)
            total_iterations = 0
            gmin_value = 1e-2
            while gmin_value >= target_gmin * 0.99:
                x, iters = newton_solve(
                    circuit, x, gmin=gmin_value, max_iterations=max_iterations, vtol=vtol,
                    backend=backend,
                )
                total_iterations += iters
                if gmin_value <= target_gmin:
                    break
                gmin_value = max(gmin_value / 10.0, target_gmin)
            return DCSolution(
                circuit, x, total_iterations, target_gmin, strategy="gmin-stepping"
            )
        except (ConvergenceError, SingularMatrixError):
            pass

    # 3. Source stepping.
    if use_source_stepping:
        try:
            x = np.array(x0, copy=True)
            total_iterations = 0
            for scale in np.linspace(0.1, 1.0, 10):
                x, iters = newton_solve(
                    circuit,
                    x,
                    gmin=target_gmin,
                    source_scale=float(scale),
                    max_iterations=max_iterations,
                    vtol=vtol,
                    backend=backend,
                )
                total_iterations += iters
            return DCSolution(
                circuit, x, total_iterations, target_gmin, strategy="source-stepping"
            )
        except (ConvergenceError, SingularMatrixError):
            pass

    raise ConvergenceError(
        f"DC operating point of '{circuit.name}' did not converge "
        "(Newton, gmin stepping and source stepping all failed)"
    )

"""Reference Newton loop of the dedicated noise engine.

:class:`ReferenceNoiseEngine` runs :class:`DedicatedNoiseEngine`'s
trapezoidal Newton loop in its straightforward form: ``scipy.linalg``
``lu_factor``/``lu_solve`` for the factorised base, ``np.linalg.solve`` for
the k x k Woodbury system, time-dependent sources evaluated through
``MacromodelNetwork.source_vector`` at every step, and the caller's ``dt``
as the integration step.  The differential tests pin the engine's fast loop
to it bit for bit, so it must stay free of the engine's shortcuts.

Only runs whose ``dt`` divides ``t_stop`` are comparable: for other steps
the engine integrates with the step of its output axis instead.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from repro.circuit.mna import solve_linear_system
from repro.circuit.netlist import Circuit
from repro.circuit.stamping import SingularMatrixError, SparseLinearSolver
from repro.circuit.transient import _quantize_dt
from repro.noise.engine import DedicatedNoiseEngine
from repro.waveform import Waveform


class LuSolveSolver:
    """``lu_factor`` once, ``lu_solve`` per right-hand side, finite-checked."""

    def __init__(self, A: np.ndarray):
        self._factors = lu_factor(A)

    def solve(self, z: np.ndarray) -> np.ndarray:
        x = lu_solve(self._factors, z, check_finite=False)
        if not np.all(np.isfinite(x)):
            raise SingularMatrixError("solution contains non-finite values")
        return x


class ReferenceNoiseEngine(DedicatedNoiseEngine):
    """The dedicated engine with its reference Newton loop."""

    def _acquire_solver(self, matrix, dt_key: Optional[float]):
        if self.solver_cache is not None:
            raise ValueError("the reference engine runs without a solver cache")
        self.statistics.matrix_factorizations += 1
        if isinstance(matrix, np.ndarray):
            return LuSolveSolver(matrix)
        return SparseLinearSolver(matrix)

    def _basis_columns(self, solver, nodes: np.ndarray) -> np.ndarray:
        n = self.network.num_nodes
        if not nodes.size:
            return np.zeros((n, 0))
        E = np.zeros((n, nodes.size))
        E[nodes, np.arange(nodes.size)] = 1.0
        W = np.asarray(solver.solve(E))
        self.statistics.batched_solves += 1
        return W

    def _reference_solve(self, solver, W, base, nodes, didv, rhs) -> np.ndarray:
        y = solver.solve(rhs)
        if not nodes.size or not np.any(didv):
            return y
        m = np.eye(nodes.size) - didv[:, np.newaxis] * W[nodes, :]
        try:
            u = np.linalg.solve(m, didv * y[nodes])
            x = y + W @ u
        except np.linalg.LinAlgError:
            x = None
        if x is not None and np.all(np.isfinite(x)):
            return x
        return solve_linear_system(self._explicit_jacobian(base, nodes, didv), rhs)

    @staticmethod
    def _support(nonlinear):
        nodes = sorted({node for node, _ in nonlinear if node >= 0})
        return np.array(nodes, dtype=int), {node: i for i, node in enumerate(nodes)}

    def _newton(self, solver, W, base, nodes, slot, nonlinear, t, v, linear_residual):
        residual = linear_residual
        didv_sum = np.zeros(nodes.size)
        for node, func in nonlinear:
            if node < 0:
                continue
            current, didv = func(t, float(v[node]))
            residual[node] -= current
            didv_sum[slot[node]] += didv
        dv = self._reference_solve(solver, W, base, nodes, didv_sum, -residual)
        max_dv = float(np.max(np.abs(dv))) if dv.size else 0.0
        if max_dv > self.damping_limit:
            dv *= self.damping_limit / max_dv
        v += dv
        return max_dv

    def dc_solve(self, t: float = 0.0, v0: Optional[np.ndarray] = None) -> np.ndarray:
        n = self.network.num_nodes
        v = np.zeros(n) if v0 is None else np.array(v0, dtype=float, copy=True)
        sources = self.network.source_vector(t)
        nonlinear = self.network.nonlinear_sources
        if not nonlinear:
            for _ in range(self.max_newton_iterations):
                residual = self._G @ v - sources
                dv = solve_linear_system(self._G, -residual)
                max_dv = float(np.max(np.abs(dv))) if dv.size else 0.0
                if max_dv > self.damping_limit:
                    dv *= self.damping_limit / max_dv
                v += dv
                self.statistics.newton_iterations += 1
                if max_dv < self.newton_tolerance:
                    break
            return v
        nodes, slot = self._support(nonlinear)
        solver = self._acquire_solver(self._G, None)
        W = self._basis_columns(solver, nodes)
        for _ in range(self.max_newton_iterations):
            max_dv = self._newton(
                solver, W, self._G, nodes, slot, nonlinear, t, v, self._G @ v - sources
            )
            self.statistics.newton_iterations += 1
            if max_dv < self.newton_tolerance:
                break
        return v

    def simulate(
        self,
        t_stop: float,
        dt: float,
        *,
        v0: Optional[np.ndarray] = None,
        observe: Optional[Sequence[str]] = None,
    ) -> Dict[str, Waveform]:
        if t_stop <= 0 or dt <= 0 or dt > t_stop:
            raise ValueError("invalid t_stop/dt combination")
        start_time = time.perf_counter()

        n = self.network.num_nodes
        num_steps = int(round(t_stop / dt))
        times = np.linspace(0.0, t_stop, num_steps + 1)

        v = self.dc_solve(0.0, v0)
        results = np.zeros((len(times), n))
        results[0] = v
        cap_current = np.zeros(n)

        a_const = self._G + (2.0 / dt) * self._C
        two_c_over_dt = (2.0 / dt) * self._C
        nonlinear = self.network.nonlinear_sources
        dt_key = _quantize_dt(dt)

        total_newton = 0
        linear_solver = None
        if not nonlinear:
            linear_solver = self._acquire_solver(a_const, dt_key)
            self.statistics.fast_path_runs += 1
        else:
            nodes, slot = self._support(nonlinear)
            newton_solver = self._acquire_solver(a_const, dt_key)
            W = self._basis_columns(newton_solver, nodes)

        for step in range(1, len(times)):
            t = float(times[step])
            rhs_const = two_c_over_dt @ v + cap_current + self.network.source_vector(t)
            if linear_solver is not None:
                v_new = linear_solver.solve(rhs_const)
                if step > 1:
                    self.statistics.lu_reuse_hits += 1
            else:
                v_new = v.copy()
                for _ in range(self.max_newton_iterations):
                    self.statistics.assemblies_avoided += 1
                    max_dv = self._newton(
                        newton_solver, W, a_const, nodes, slot, nonlinear, t, v_new,
                        a_const @ v_new - rhs_const,
                    )
                    total_newton += 1
                    if max_dv < self.newton_tolerance:
                        break
            cap_current = two_c_over_dt @ (v_new - v) - cap_current
            v = v_new
            results[step] = v

        self.statistics.num_time_points += len(times) - 1
        self.statistics.newton_iterations += total_newton
        self.statistics.runtime_seconds += time.perf_counter() - start_time

        observe_set = set(Circuit.canonical_node_name(o) for o in observe) if observe else None
        return {
            name: Waveform(times, results[:, index])
            for index, name in enumerate(self.network.node_names)
            if observe_set is None or name in observe_set
        }

"""Reduced-order macromodel engine with nonlinear victim feedback.

:class:`ReducedOrderEngine` is the projection-side twin of
:class:`repro.noise.engine.DedicatedNoiseEngine`: it takes the same
:class:`~repro.noise.engine.MacromodelNetwork` (coupled interconnect,
Norton aggressor drivers, holding resistors, table-VCCS victim driver) but
integrates a PRIMA-projected state vector of a few dozen entries instead of
the full node-voltage vector.

The construction projects the network's nodal ``(G, C)`` onto the block
Krylov space seeded by the injection sites (every time-dependent and
nonlinear current source), so the reduced model matches the transfer from
each source to every node up to the chosen moment count.  Nonlinear sources
stay exact: at each Newton iteration the victim node voltage is lifted
through its basis row (``v_k = V[k] @ x``), the table VCCS is evaluated on
it, and its current/derivative are folded back as a rank-one update of the
reduced Jacobian.  The stepping scheme -- fixed-step trapezoidal companion
integration with a factor-once linear fast path -- mirrors the dedicated
engine line for line so the two are differential-testable against each
other.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy import sparse

from ..circuit.netlist import Circuit
from ..circuit.stamping import LinearSolver
from ..noise.engine import EngineStatistics, MacromodelNetwork, fixed_step_axis
from ..waveform import Waveform
from .prima import DEFAULT_REDUCTION_ORDER, ReducedSystem, prima_reduce_system

__all__ = ["ReducedOrderEngine"]


class ReducedOrderEngine:
    """Trapezoidal integrator on a PRIMA projection of a macromodel network.

    Parameters mirror :class:`~repro.noise.engine.DedicatedNoiseEngine`;
    ``reduction_order`` is the number of block-Arnoldi iterations (matched
    moments per injection site).  Newton damping and convergence use the
    2-norm of the reduced update, which upper-bounds the largest node
    voltage change (the basis is orthonormal), so the criteria are
    conservative relative to the dedicated engine's ``max |dv|``.
    """

    def __init__(
        self,
        network: MacromodelNetwork,
        *,
        reduction_order: int = DEFAULT_REDUCTION_ORDER,
        gmin: float = 1e-9,
        newton_tolerance: float = 1e-7,
        max_newton_iterations: int = 40,
        damping_limit: float = 1.0,
        s0: float = 0.0,
    ):
        self.network = network
        self.gmin = gmin
        self.newton_tolerance = newton_tolerance
        self.max_newton_iterations = max_newton_iterations
        self.damping_limit = damping_limit
        self.statistics = EngineStatistics()

        n = network.num_nodes
        sources = [(node, src) for node, src in network.time_sources if node >= 0]
        nonlinear = [(node, src) for node, src in network.nonlinear_sources if node >= 0]

        # One descriptor input column per distinct injection site.
        input_nodes: List[int] = []
        seen = set()
        for node, _ in sources + nonlinear:
            if node not in seen:
                seen.add(node)
                input_nodes.append(node)
        if not input_nodes:
            raise ValueError(
                f"macromodel network '{network.name}' has no current injection "
                "site to seed the Krylov basis"
            )

        setup_start = time.perf_counter()
        G, C = network.build_matrices_sparse()
        G = (G + gmin * sparse.identity(n, format="csc")).tocsc()

        B = np.zeros((n, len(input_nodes)))
        for column, node in enumerate(input_nodes):
            B[node, column] = 1.0
        self.reduced: ReducedSystem = prima_reduce_system(
            G, C, B, order=reduction_order, s0=s0
        )
        self.setup_seconds = time.perf_counter() - setup_start
        self.statistics.matrix_factorizations += 1  # the Krylov factorization

        V = self.reduced.projection
        # Per-source reduced injection rows: b_r(t) = sum_j u_j(t) * rows[j].
        self._sources = sources
        self._source_rows = (
            np.stack([V[node] for node, _ in sources]) if sources else np.zeros((0, V.shape[1]))
        )
        self._nonlinear = [(node, V[node], src) for node, src in nonlinear]

    # ------------------------------------------------------------------ helpers

    @property
    def order(self) -> int:
        return self.reduced.order

    @property
    def num_unknowns(self) -> int:
        """Node count of the *unreduced* network."""
        return self.reduced.num_unknowns

    def _reduced_source(self, t: float) -> np.ndarray:
        b = np.zeros(self.reduced.order)
        if self._sources:
            u = np.array([source(t) for _, source in self._sources])
            b = self._source_rows.T @ u
        return b

    # ---------------------------------------------------------------- DC solve

    def dc_solve(self, t: float = 0.0, x0: Optional[np.ndarray] = None) -> np.ndarray:
        """Quiescent reduced state at time ``t`` (Newton on the table VCCS)."""
        Gr = self.reduced.Gr
        x = (
            np.zeros(self.reduced.order)
            if x0 is None
            else np.array(x0, dtype=float, copy=True)
        )
        b = self._reduced_source(t)
        for _ in range(self.max_newton_iterations):
            residual = Gr @ x - b
            jacobian = Gr.copy()
            for _node, row, func in self._nonlinear:
                current, didv = func(t, float(row @ x))
                residual -= current * row
                jacobian -= didv * np.outer(row, row)
            dx = np.linalg.solve(jacobian, -residual)
            step = float(np.linalg.norm(dx)) if dx.size else 0.0
            if step > self.damping_limit:
                dx *= self.damping_limit / step
            x += dx
            self.statistics.newton_iterations += 1
            if step < self.newton_tolerance:
                break
        return x

    # --------------------------------------------------------------- transient

    def simulate(
        self,
        t_stop: float,
        dt: float,
        *,
        v0: Optional[np.ndarray] = None,
        observe: Optional[Sequence[str]] = None,
    ) -> Dict[str, Waveform]:
        """Integrate the reduced macromodel from 0 to ``t_stop``.

        ``v0`` is an optional initial *node-voltage* vector (as for the
        dedicated engine); it is projected onto the basis.  As in the
        dedicated engine, the step integrated is that of the uniform output
        axis (:func:`~repro.noise.engine.fixed_step_axis`).  Returns lifted
        waveforms of the observed nodes (all nodes by default).
        """
        if t_stop <= 0 or dt <= 0 or dt > t_stop:
            raise ValueError("invalid t_stop/dt combination")
        start_time = time.perf_counter()

        q = self.reduced.order
        times, dt = fixed_step_axis(t_stop, dt)

        x0 = None
        if v0 is not None:
            v0 = np.asarray(v0, dtype=float)
            if v0.shape != (self.num_unknowns,):
                raise ValueError(
                    f"v0 has shape {v0.shape}, expected ({self.num_unknowns},)"
                )
            x0 = self.reduced.projection.T @ v0
        x = self.dc_solve(0.0, x0)
        states = np.zeros((len(times), q))
        states[0] = x
        cap_current = np.zeros(q)  # Cr dx/dt, zero in the quiescent state

        Gr, Cr = self.reduced.Gr, self.reduced.Cr
        a_const = Gr + (2.0 / dt) * Cr
        two_c_over_dt = (2.0 / dt) * Cr

        total_newton = 0
        linear_solver = None
        if not self._nonlinear:
            linear_solver = LinearSolver(a_const)
            self.statistics.matrix_factorizations += 1
            self.statistics.fast_path_runs += 1

        for step in range(1, len(times)):
            t = float(times[step])
            rhs_const = two_c_over_dt @ x + cap_current + self._reduced_source(t)
            if linear_solver is not None:
                x_new = linear_solver.solve(rhs_const)
                if step > 1:
                    self.statistics.lu_reuse_hits += 1
            else:
                x_new = x.copy()
                for _ in range(self.max_newton_iterations):
                    residual = a_const @ x_new - rhs_const
                    jacobian = a_const.copy()
                    self.statistics.assemblies_avoided += 1
                    for _node, row, func in self._nonlinear:
                        current, didv = func(t, float(row @ x_new))
                        residual -= current * row
                        jacobian -= didv * np.outer(row, row)
                    dx = np.linalg.solve(jacobian, -residual)
                    step_norm = float(np.linalg.norm(dx)) if dx.size else 0.0
                    if step_norm > self.damping_limit:
                        dx *= self.damping_limit / step_norm
                    x_new += dx
                    total_newton += 1
                    if step_norm < self.newton_tolerance:
                        break
            cap_current = two_c_over_dt @ (x_new - x) - cap_current
            x = x_new
            states[step] = x

        self.statistics.num_time_points += len(times) - 1
        self.statistics.newton_iterations += total_newton
        self.statistics.runtime_seconds += time.perf_counter() - start_time

        names = self.network.node_names
        observe_set = (
            set(Circuit.canonical_node_name(o) for o in observe) if observe else None
        )
        V = self.reduced.projection
        waveforms: Dict[str, Waveform] = {}
        for index, name in enumerate(names):
            if observe_set is not None and name not in observe_set:
                continue
            waveforms[name] = Waveform(times, states @ V[index])
        return waveforms

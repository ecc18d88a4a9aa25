"""Reduced-order transient analysis of linear RC circuits.

:func:`reduce_circuit` exports a :class:`~repro.circuit.Circuit`'s compiled
kernel as a sparse descriptor system ``G x + C dx/dt = B u(t)`` (one column
of ``B`` per independent source), PRIMA-projects it, and wraps the result in
a :class:`ReducedLinearCircuit` whose :meth:`~ReducedLinearCircuit.transient`
mirrors the full simulator's linear fast path: the same quantized-``dt``
trapezoidal companion stepping, the same breakpoint-merged time axis (via
:func:`repro.circuit.build_time_axis`), and a DC initial condition.  With
``order`` at least the number of unknowns the projection is square and the
reduced run reproduces the full ``transient()`` to solver precision; at
paper-default orders it collapses thousand-node interconnect clusters into
a few dozen states.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..circuit.netlist import Circuit
from ..circuit.elements import GROUND
from ..circuit.stamping import LinearSolver
from ..circuit.transient import build_time_axis, _quantize_dt
from .prima import (
    DEFAULT_REDUCTION_ORDER,
    ReducedSystem,
    default_shift,
    prima_reduce_system,
)


def _sparse_diag(values: np.ndarray):
    from scipy import sparse

    return sparse.diags(values).tocsc()

__all__ = [
    "ReducedLinearCircuit",
    "ReducedTransientResult",
    "ReductionStats",
    "reduce_circuit",
]


@dataclass
class ReductionStats:
    """Bookkeeping of one reduced-order transient run."""

    order: int = 0
    num_unknowns: int = 0
    num_inputs: int = 0
    setup_seconds: float = 0.0
    runtime_seconds: float = 0.0
    num_time_points: int = 0
    matrix_factorizations: int = 0
    lu_reuse_hits: int = 0
    #: Numerical fallbacks taken during the run (e.g. the shifted-expansion
    #: DC initialisation when ``Gr`` alone is singular).
    recoveries: List[str] = field(default_factory=list)


@dataclass
class ReducedTransientResult:
    """Reduced states over time plus the basis to lift them back to nodes."""

    circuit: Circuit
    times: np.ndarray
    states: np.ndarray  # (num_times, order)
    projection: np.ndarray  # (num_unknowns, order)
    stats: ReductionStats
    _cache: Dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    def node_voltage(self, name: str) -> np.ndarray:
        """Waveform of one node, lifted through the projection basis."""
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        index = self.circuit.node_index(name)
        if index == GROUND:
            waveform = np.zeros(len(self.times))
        else:
            waveform = self.states @ self.projection[index]
        self._cache[name] = waveform
        return waveform

    def voltages(self, names: Sequence[str]) -> Dict[str, np.ndarray]:
        return {name: self.node_voltage(name) for name in names}


class ReducedLinearCircuit:
    """A PRIMA macromodel of one linear RC circuit, ready to simulate.

    Holds the congruence-projected ``(Gr, Cr, Br)`` plus the per-source
    evaluation hooks needed to rebuild ``u(t)`` at every step, so a
    transient run never touches the original ``n``-sized matrices.
    """

    def __init__(
        self,
        circuit: Circuit,
        reduced: ReducedSystem,
        *,
        setup_seconds: float = 0.0,
    ):
        self.circuit = circuit
        self.reduced = reduced
        self.setup_seconds = setup_seconds
        self._descriptor = None  # set by reduce_circuit

    @property
    def order(self) -> int:
        return self.reduced.order

    @property
    def num_unknowns(self) -> int:
        return self.reduced.num_unknowns

    def transient(
        self,
        t_stop: float,
        dt: float,
        *,
        include_breakpoints: bool = True,
    ) -> ReducedTransientResult:
        """Trapezoidal transient of the reduced model.

        Mirrors the full fast path step for step: quantized per-step ``dt``,
        one ``order x order`` LU per unique ``dt``, and a DC solve for the
        initial state.  The companion-current trapezoidal update is folded
        into a precomputed two-term recurrence -- substituting the KCL
        identity ``i_{k-1} = Br u_{k-1} - Gr x_{k-1}`` into the companion
        step gives

            (Gr + 2/dt Cr) x_k = Br (u_k + u_{k-1}) + (2/dt Cr - Gr) x_{k-1}

        so each step is one ``order x order`` mat-vec against a precomputed
        transition matrix instead of assembling and solving a fresh
        right-hand side.
        """
        descriptor = self._descriptor
        if descriptor is None:  # pragma: no cover - defensive
            raise RuntimeError("ReducedLinearCircuit was not built by reduce_circuit")
        start = _time.perf_counter()
        reduced = self.reduced
        Gr, Cr, Br = reduced.Gr, reduced.Cr, reduced.Br

        times = build_time_axis(
            self.circuit, t_stop, dt, include_breakpoints=include_breakpoints
        )
        num_steps = len(times) - 1

        # DC initial condition in reduced coordinates: Gr x = Br u_dc.
        # (With it, the capacitor companion current starts at exactly zero,
        # which the two-term recurrence relies on for its induction base.)
        u_dc = descriptor.input_vector(0.0, dt=None)
        recoveries: List[str] = []
        try:
            x_hat = np.linalg.solve(Gr, Br @ u_dc)
            if not np.all(np.isfinite(x_hat)):
                raise np.linalg.LinAlgError("non-finite reduced DC solution")
        except np.linalg.LinAlgError:
            # The PRIMA shift fallback, generalized to the transient path:
            # a floating reduced net leaves Gr singular at DC, but the
            # shifted pencil about the network's corner frequency is
            # invertible and its solution limits to the right quasi-static
            # initial state as the shift stays far below 1/dt.
            s_dc = default_shift(Gr, Cr)
            x_hat = np.linalg.solve(Gr + s_dc * Cr, Br @ u_dc)
            recoveries.append(f"dc-init: shifted expansion at s0={s_dc:.3e}")

        # Source values at every step (same dt-aware evaluation the full
        # simulator uses), then the per-step drive term in reduced coords.
        step_dts = [
            _quantize_dt(float(times[k + 1] - times[k])) for k in range(num_steps)
        ]
        inputs = np.empty((len(times), reduced.num_inputs))
        inputs[0] = u_dc
        for k in range(num_steps):
            inputs[k + 1] = descriptor.input_vector(
                float(times[k + 1]), dt=step_dts[k]
            )

        # One LU per unique dt: transition matrix M = S^{-1}(2/dt Cr - Gr)
        # and the batched drive rows S^{-1} Br (u_k + u_{k-1}).
        groups: Dict[float, List[int]] = {}
        for k, step_dt in enumerate(step_dts):
            groups.setdefault(step_dt, []).append(k + 1)
        transition: Dict[float, np.ndarray] = {}
        drive = np.empty((len(times), reduced.order))
        for step_dt, step_indices in groups.items():
            solver = LinearSolver(Gr + (2.0 / step_dt) * Cr)
            transition[step_dt] = solver.solve((2.0 / step_dt) * Cr - Gr)
            forced = solver.solve(Br)
            indices = np.asarray(step_indices)
            drive[indices] = (inputs[indices] + inputs[indices - 1]) @ forced.T

        states = np.zeros((len(times), reduced.order))
        states[0] = x_hat
        for k in range(num_steps):
            x_hat = transition[step_dts[k]] @ x_hat + drive[k + 1]
            states[k + 1] = x_hat
        factorizations = len(groups) if num_steps else 0
        reuse_hits = num_steps - factorizations if num_steps else 0

        stats = ReductionStats(
            order=reduced.order,
            num_unknowns=reduced.num_unknowns,
            num_inputs=reduced.num_inputs,
            setup_seconds=self.setup_seconds,
            runtime_seconds=_time.perf_counter() - start,
            num_time_points=len(times) - 1,
            matrix_factorizations=factorizations,
            lu_reuse_hits=reuse_hits,
            recoveries=recoveries,
        )
        return ReducedTransientResult(
            circuit=self.circuit,
            times=times,
            states=states,
            projection=reduced.projection,
            stats=stats,
        )


def reduce_circuit(
    circuit: Circuit,
    *,
    order: int = DEFAULT_REDUCTION_ORDER,
    s0: float = 0.0,
    keep_nodes: Optional[List[str]] = None,
) -> ReducedLinearCircuit:
    """PRIMA-reduce a linear RC circuit into a :class:`ReducedLinearCircuit`.

    ``keep_nodes`` is accepted for interface symmetry with observation-aware
    reducers; the congruence basis already preserves the transfer to every
    node up to the matched moment count, so it only validates the names.
    """
    circuit.prepare()
    for name in keep_nodes or []:
        circuit.node_index(name)  # raises KeyError on unknown nodes
    start = _time.perf_counter()
    descriptor = circuit.kernel.descriptor_system(gmin=circuit.gmin)

    # PRIMA passivity form: negate the voltage-source branch rows so the
    # symmetric part of G becomes positive semi-definite
    # (``[[G, E], [-E', 0]]``).  The equations are merely rescaled by -1, so
    # the descriptor solutions -- and the congruence-projected transfer --
    # are unchanged, but low-order reduced models stay stable.
    num_branches = descriptor.num_unknowns - descriptor.num_nodes
    G, B = descriptor.G, descriptor.B
    if num_branches:
        signs = np.ones(descriptor.num_unknowns)
        signs[descriptor.num_nodes :] = -1.0
        G = _sparse_diag(signs) @ G
        B = signs[:, None] * B

    reduced = prima_reduce_system(G, descriptor.C, B, order=order, s0=s0)
    macromodel = ReducedLinearCircuit(
        circuit, reduced, setup_seconds=_time.perf_counter() - start
    )
    macromodel._descriptor = descriptor
    return macromodel

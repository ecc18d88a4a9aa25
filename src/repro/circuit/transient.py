"""Transient (time-domain) analysis.

The integrator uses the companion-model formulation implemented by the
elements themselves: backward Euler for the first step (and optionally
throughout) and trapezoidal integration afterwards.

Three execution paths share the same time axis and companion models, and
:func:`transient` picks one from the circuit alone:

* **linear fast path** -- circuits with no nonlinear element skip Newton
  entirely: each unique time step size is LU-factorised once
  (:class:`~repro.circuit.stamping.LinearTransientStepper`) and every time
  point is a single right-hand-side rebuild plus a back-substitution.  A
  uniform-``dt`` grid therefore pays for exactly one factorization over the
  whole run.  This is the hot path of the characterisation and cluster
  workloads, which are dominated by RC / Thevenin circuits.
* **Newton path** -- nonlinear circuits run through the lane stepper
  (:class:`~repro.circuit.stamping.NonlinearLaneStepper`): the damped
  Newton iteration of :mod:`repro.circuit.dc` with companion state in
  arrays, the cell's MOSFETs evaluated as one compiled block and each
  iteration started from the kernel's cached base matrix.
  :func:`transient` runs one lane; :func:`transient_lanes` runs several
  copies of a circuit that differ only in source waveforms in lockstep
  (heights of one glitch width, say), each lane's result equal to the
  lane run on its own.
* **per-element loop** -- circuits with elements the lane stepper cannot
  hold in arrays (custom dynamic or source elements, nonlinear elements
  with state of their own) run damped Newton with each element's own
  ``update_state`` on the compiled kernel.

The default time step is fixed, which keeps results deterministic and easy to
compare across the golden simulation, the macromodel engine and the linear
baselines.  All paths agree to solver precision (well below 1e-9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from ..waveform import Waveform
from .dc import ConvergenceError, dc_operating_point, newton_solve
from .elements import GROUND, StampContext, VoltageSource
from .netlist import Circuit
from .sources import SourceWaveform
from .stamping import (
    RETRY_RUNGS,
    LinearTransientStepper,
    NonlinearLaneStepper,
    resolve_backend,
)

__all__ = [
    "TransientResult",
    "TransientStats",
    "build_time_axis",
    "transient",
    "transient_lanes",
]


@dataclass
class TransientStats:
    """Execution counters of one transient run (perf observability).

    ``assemblies_avoided`` counts Newton iterations served from the cached
    base matrix instead of a full element-by-element rebuild;
    ``lu_reuse_hits`` counts fast-path time steps solved with an already
    computed LU factorization.
    """

    #: Resolved linear-algebra backend ("dense" or "sparse").
    backend: str = "dense"
    fast_path: bool = False
    num_time_points: int = 0
    newton_iterations: int = 0
    assemblies_avoided: int = 0
    lu_reuse_hits: int = 0
    matrix_factorizations: int = 0
    rhs_builds: int = 0
    #: Same-matrix batch groups this run participated in (0 = not batched).
    batch_groups: int = 0
    #: Stacked multi-RHS solves this run's steps were folded into.
    batched_solves: int = 0
    #: Factorizations the batch shared instead of recomputing for this run.
    factorizations_saved: int = 0
    #: One entry per time point rescued by a retry rung (backward Euler,
    #: then damped backward Euler), e.g. ``"t=1.2e-10: be"`` -- the
    #: transient-level analogue of DC gmin/source stepping.
    recoveries: List[str] = field(default_factory=list)


def _quantize_dt(dt: float) -> float:
    """Round a step size to 12 significant digits.

    ``np.linspace`` grids produce step sizes that differ in the last ulp;
    quantizing makes every uniform-grid step hit the same base-matrix / LU
    cache key while perturbing companion conductances by a relative 1e-12 at
    most (far below integration error).
    """
    return float(f"{dt:.12e}")


@dataclass
class TransientResult:
    """Result of a transient analysis.

    Node voltages are accessed by name and returned as
    :class:`~repro.waveform.Waveform` objects.
    """

    circuit: Circuit
    times: np.ndarray
    solutions: np.ndarray  # shape (n_times, n_unknowns)
    newton_iterations: int = 0
    stats: TransientStats = field(default_factory=TransientStats)

    def node_voltage(self, node_name: str) -> Waveform:
        """Voltage waveform of the named node.

        Ground aliases (``0``, ``gnd``, ``vss``...) return an exactly-zero
        waveform; an unknown node name raises :class:`KeyError`.
        """
        if not self.circuit.has_node(node_name):
            raise KeyError(
                f"unknown node '{node_name}' in circuit '{self.circuit.name}' "
                f"(known nodes: {', '.join(sorted(self.circuit.node_names)) or 'none'})"
            )
        idx = self.circuit.node_index(node_name)
        if idx == GROUND:
            values = np.zeros_like(self.times)
        else:
            values = self.solutions[:, idx]
        return Waveform(self.times, values)

    def __getitem__(self, node_name: str) -> Waveform:
        return self.node_voltage(node_name)

    def branch_current(self, source_name: str) -> Waveform:
        """Current waveform through a voltage source."""
        element = self.circuit[source_name]
        if not isinstance(element, VoltageSource):
            raise TypeError(f"'{source_name}' is not a voltage source")
        idx = element.branch_indices[0]
        return Waveform(self.times, self.solutions[:, idx])

    def final_voltages(self) -> Dict[str, float]:
        """Node voltages at the final time point."""
        return {
            name: float(self.solutions[-1, i])
            for i, name in enumerate(self.circuit.node_names)
        }

    def voltage_at(self, node_name: str, t: float) -> float:
        """Interpolated node voltage at time ``t``."""
        return self.node_voltage(node_name).value_at(t)

    @property
    def num_steps(self) -> int:
        return len(self.times) - 1


def _collect_breakpoints(
    circuit: Circuit, t_stop: float, waveforms: Optional[Mapping[str, SourceWaveform]] = None
) -> List[float]:
    """Source breakpoints inside the simulation window (informational)."""
    points = set()
    waveforms = waveforms or {}
    for element in circuit.elements:
        waveform = waveforms.get(element.name, getattr(element, "waveform", None))
        if waveform is None:
            continue
        for t in waveform.t_interesting():
            if 0.0 < t < t_stop:
                points.add(float(t))
    return sorted(points)


def build_time_axis(
    circuit: Circuit,
    t_stop: float,
    dt: float,
    *,
    include_breakpoints: bool = True,
    waveforms: Optional[Mapping[str, SourceWaveform]] = None,
) -> np.ndarray:
    """The simulation time axis: a uniform grid plus source breakpoints.

    Shared between :func:`transient` and the reduced-order transient driver
    (:mod:`repro.reduction.circuit`), so full and reduced runs of the same
    circuit integrate over identical time points and can be compared
    point-for-point.  ``waveforms`` (``{source name: waveform}``) replaces
    installed source waveforms, as a lane of :func:`transient_lanes` does.
    """
    num_steps = int(round(t_stop / dt))
    times = list(np.linspace(0.0, t_stop, num_steps + 1))
    if include_breakpoints:
        breakpoints = _collect_breakpoints(circuit, t_stop, waveforms)
        if breakpoints:
            merged = np.unique(np.concatenate([np.array(times), np.array(breakpoints)]))
            # Drop points that are pathologically close to an existing one.
            keep = [merged[0]]
            for t in merged[1:]:
                if t - keep[-1] > dt * 1e-6:
                    keep.append(t)
            times = keep
    return np.asarray(times, dtype=float)


def transient(
    circuit: Circuit,
    t_stop: float,
    dt: float,
    *,
    method: str = "trap",
    x0: Optional[np.ndarray] = None,
    initial_conditions: Optional[Dict[str, float]] = None,
    uic: bool = False,
    max_newton: int = 50,
    vtol: float = 1e-6,
    include_breakpoints: bool = True,
    backend: str = "auto",
) -> TransientResult:
    """Run a transient analysis from ``t = 0`` to ``t_stop``.

    Parameters
    ----------
    circuit:
        The circuit to simulate.
    t_stop:
        Final simulation time (seconds).
    dt:
        Base time step (seconds).  Source breakpoints are inserted as extra
        time points so sharp ramps are not stepped over.
    method:
        ``"trap"`` (default) or ``"be"``.
    x0:
        Optional full initial unknown vector; overrides the DC operating
        point.
    initial_conditions:
        Optional ``{node_name: voltage}`` dictionary.  With ``uic=True`` the
        DC operating point is skipped and these values (0 V for unspecified
        nodes) are used directly.
    uic:
        "Use initial conditions": skip the DC operating point.
    max_newton:
        Newton iteration budget per time point.
    vtol:
        Newton convergence tolerance (volts).
    include_breakpoints:
        Insert source breakpoints into the time axis.
    backend:
        ``"auto"``, ``"dense"`` or ``"sparse"`` (see
        :func:`~repro.circuit.stamping.resolve_backend`).

    A circuit with no nonlinear element takes the Newton-free LU-reuse fast
    path; a nonlinear one runs the lane stepper (one lane), or the
    per-element Newton loop when its elements cannot live in arrays.
    """
    _validate(t_stop, dt, method)

    circuit.prepare()
    kernel = circuit.kernel
    resolved_backend = resolve_backend(backend, kernel.n)
    times = build_time_axis(
        circuit, t_stop, dt, include_breakpoints=include_breakpoints
    )
    x = _initial_state(circuit, x0, initial_conditions, uic, resolved_backend)

    # Dispatch on the kernel's partitioning, not ``circuit.is_nonlinear()``:
    # a custom Element subclass may keep the conservative default partition
    # ("nonlinear", re-stamped per iteration) while reporting
    # ``is_nonlinear() == False`` -- such circuits must take the Newton path.
    if kernel.has_nonlinear and kernel.array_state:
        (result,) = _run_lanes(
            circuit, times, x, [{}], method=method,
            max_newton=max_newton, vtol=vtol, backend=resolved_backend,
        )
        if isinstance(result, Exception):
            raise result
        return result

    solutions = np.zeros((len(times), kernel.n))
    solutions[0] = x
    if kernel.has_nonlinear:
        stats = _run_newton_path(
            circuit, times, x, solutions, method=method, max_newton=max_newton,
            vtol=vtol, backend=resolved_backend,
        )
    else:
        stats = _run_fast_path(
            circuit, times, x, solutions, method=method, backend=resolved_backend
        )
    stats.backend = resolved_backend
    stats.num_time_points = len(times) - 1
    return TransientResult(
        circuit, times, solutions, newton_iterations=stats.newton_iterations, stats=stats
    )


def transient_lanes(
    circuit: Circuit,
    t_stop: float,
    dt: float,
    lanes: Sequence[Mapping[str, SourceWaveform]],
    *,
    x0: Optional[np.ndarray] = None,
) -> List[Union[TransientResult, Exception]]:
    """Transients of one circuit under several source waveforms, in lockstep.

    ``lanes`` holds one ``{source name: waveform}`` mapping per lane; the
    named independent sources take those waveforms in that lane only.  All
    lanes must produce the same time axis (source breakpoints included) and
    share the initial state: ``x0``, or the DC operating point of the
    circuit as built, so a lane's waveform must keep its source's DC value.

    Returns one entry per lane: its :class:`TransientResult`, equal to
    :func:`transient` (default settings) with that lane's waveforms
    installed, or the
    ``ConvergenceError`` / ``SingularMatrixError`` the lane failed with
    (the other lanes are unaffected).  The lanes step through
    :class:`~repro.circuit.stamping.NonlinearLaneStepper`, which raises
    :class:`ValueError` for circuits whose elements keep state of their own.
    """
    _validate(t_stop, dt, "trap")
    if not lanes:
        return []
    circuit.prepare()
    backend = resolve_backend("auto", circuit.kernel.n)
    for lane in lanes:
        for name, waveform in lane.items():
            installed = getattr(circuit[name], "waveform", None)
            if installed is None or waveform.dc_value() != installed.dc_value():
                raise ValueError(
                    f"lane waveform of '{name}' must replace a source waveform "
                    "with the same DC value"
                )
    times = build_time_axis(circuit, t_stop, dt, waveforms=lanes[0])
    for lane in lanes[1:]:
        if not np.array_equal(build_time_axis(circuit, t_stop, dt, waveforms=lane), times):
            raise ValueError("lanes must share one time axis")
    x = _initial_state(circuit, x0, None, False, backend)
    return _run_lanes(circuit, times, x, lanes, backend=backend)


def _validate(t_stop: float, dt: float, method: str) -> None:
    if t_stop <= 0:
        raise ValueError("t_stop must be positive")
    if dt <= 0 or dt > t_stop:
        raise ValueError("dt must be positive and smaller than t_stop")
    if method not in ("trap", "be"):
        raise ValueError("method must be 'trap' or 'be'")


def _initial_state(
    circuit: Circuit,
    x0: Optional[np.ndarray],
    initial_conditions: Optional[Dict[str, float]],
    uic: bool,
    backend: str,
) -> np.ndarray:
    """``x0``, the ``uic`` vector or the DC operating point, with overrides."""
    n = circuit.kernel.n
    if x0 is not None:
        x = np.array(x0, dtype=float, copy=True)
        if x.shape != (n,):
            raise ValueError(f"x0 has shape {x.shape}, expected ({n},)")
        return x
    x = np.zeros(n) if uic else np.array(
        dc_operating_point(circuit, backend=backend).x, copy=True
    )
    for name, value in (initial_conditions or {}).items():
        idx = circuit.node_index(name)
        if idx != GROUND:
            x[idx] = value
    return x


def _run_lanes(
    circuit: Circuit,
    times: np.ndarray,
    x: np.ndarray,
    lanes: Sequence[Mapping[str, SourceWaveform]],
    *,
    backend: str,
    method: str = "trap",
    max_newton: int = 50,
    vtol: float = 1e-6,
) -> List[Union[TransientResult, Exception]]:
    """Step ``lanes`` through the lane stepper and wrap each lane's result."""
    kernel = circuit.kernel
    position = {id(e): index for index, e in enumerate(kernel.source_elements)}
    waveforms = []
    for lane in lanes:
        mapping = {}
        for name, waveform in lane.items():
            index = position.get(id(circuit[name]))
            if index is None:
                raise ValueError(f"'{name}' is not an independent source")
            mapping[index] = waveform
        waveforms.append(mapping)
    stepper = NonlinearLaneStepper(
        kernel,
        len(lanes),
        method=method,
        gmin=circuit.gmin,
        backend=backend,
        max_newton=max_newton,
        vtol=vtol,
        damping=circuit.is_nonlinear(),
        waveforms=waveforms,
    )
    dts = [_quantize_dt(float(b - a)) for a, b in zip(times[:-1], times[1:])]
    run = stepper.run(times, dts, x)
    results: List[Union[TransientResult, Exception]] = []
    for lane in range(len(lanes)):
        error = run.errors[lane]
        if error is not None:
            results.append(error)
            continue
        iterations = int(run.newton_iterations[lane])
        stats = TransientStats(
            backend=backend,
            num_time_points=len(times) - 1,
            newton_iterations=iterations,
            assemblies_avoided=int(run.assemblies_avoided[lane]),
            matrix_factorizations=iterations,  # one dense solve per iteration
            rhs_builds=int(run.rhs_builds[lane]),
            recoveries=run.recoveries[lane],
        )
        results.append(
            TransientResult(
                circuit, times, run.solutions[lane], newton_iterations=iterations, stats=stats
            )
        )
    return results


def _run_fast_path(
    circuit: Circuit,
    times: np.ndarray,
    x: np.ndarray,
    solutions: np.ndarray,
    *,
    method: str,
    backend: str = "dense",
) -> TransientStats:
    """Newton-free stepping for linear circuits (one LU per unique dt)."""
    kernel = circuit.kernel
    rhs_before = kernel.stats.rhs_builds
    stepper = LinearTransientStepper(
        kernel, method=method, gmin=circuit.gmin, backend=backend
    )
    stepper.initialize(x)
    prev_x = x
    for step_index in range(1, len(times)):
        t = float(times[step_index])
        step_dt = _quantize_dt(float(times[step_index] - times[step_index - 1]))
        x_new = stepper.step(t, step_dt, prev_x)
        solutions[step_index] = x_new
        prev_x = x_new
    return TransientStats(
        fast_path=True,
        newton_iterations=0,
        lu_reuse_hits=stepper.lu_reuse_hits,
        matrix_factorizations=stepper.lu_factorizations,
        # No Newton iterations run at all on this path, so there are no
        # cache-served assemblies to count; ``lu_reuse_hits`` carries the
        # reuse story here.  Only measured counters are reported.
        assemblies_avoided=0,
        rhs_builds=kernel.stats.rhs_builds - rhs_before,
    )


def _run_newton_path(
    circuit: Circuit,
    times: np.ndarray,
    x: np.ndarray,
    solutions: np.ndarray,
    *,
    method: str,
    max_newton: int,
    vtol: float,
    backend: str = "dense",
) -> TransientStats:
    """Damped-Newton stepping with each element's own ``update_state``."""
    kernel = circuit.kernel
    kernel_before = kernel.stats.snapshot()

    # Initialise the per-element dynamic state at t = 0.
    state0: Dict = {}
    ctx0 = StampContext(
        x=x, prev_x=x, time=0.0, dt=None, method=method, gmin=circuit.gmin, state=state0
    )
    for element in circuit.elements:
        element.update_state(ctx0)
    prev_state = state0
    prev_x = x
    total_newton = 0
    recoveries: List[str] = []

    for step_index in range(1, len(times)):
        t = float(times[step_index])
        step_dt = _quantize_dt(float(times[step_index] - times[step_index - 1]))
        # Trapezoidal integration needs the previous element currents; the
        # elements fall back to backward Euler automatically when that state
        # is missing (i.e. for the first step).
        step_method = method

        try:
            x_new, iters = newton_solve(
                circuit,
                prev_x,
                gmin=circuit.gmin,
                max_iterations=max_newton,
                vtol=vtol,
                time=t,
                dt=step_dt,
                method=step_method,
                prev_x=prev_x,
                prev_state=prev_state,
                backend=backend,
            )
        except ConvergenceError:
            for rung_index, (rung, budget_scale, damping) in enumerate(RETRY_RUNGS):
                try:
                    x_new, iters = newton_solve(
                        circuit,
                        prev_x,
                        gmin=circuit.gmin,
                        max_iterations=max_newton * budget_scale,
                        vtol=vtol,
                        damping_limit=damping,
                        time=t,
                        dt=step_dt,
                        method="be",
                        prev_x=prev_x,
                        prev_state=prev_state,
                        backend=backend,
                    )
                except ConvergenceError:
                    if rung_index == len(RETRY_RUNGS) - 1:
                        raise
                    continue
                recoveries.append(f"t={t:.4e}: {rung}")
                break
            step_method = "be"
        total_newton += iters

        # Accept the step: save per-element dynamic state.
        new_state: Dict = {}
        ctx_accept = StampContext(
            x=x_new,
            prev_x=prev_x,
            time=t,
            dt=step_dt,
            method=step_method,
            gmin=circuit.gmin,
            state=new_state,
            prev_state=prev_state,
        )
        for element in circuit.elements:
            element.update_state(ctx_accept)

        solutions[step_index] = x_new
        prev_x = x_new
        prev_state = new_state

    delta = kernel.stats.delta_since(kernel_before)
    return TransientStats(
        fast_path=False,
        newton_iterations=total_newton,
        assemblies_avoided=delta.base_hits,
        matrix_factorizations=total_newton,  # one dense solve per iteration
        rhs_builds=delta.rhs_builds,
        recoveries=recoveries,
    )

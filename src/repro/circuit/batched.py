"""Batched linear transient core: one factorization per topology class.

Sweep workloads are dominated by *structurally identical* linear transients:
24 Monte Carlo samples of the same cluster share one MNA sparsity pattern,
one time axis and (when only sources vary) one base matrix.  The sequential
path still pays one LU factorization per scenario; this module amortizes it.

Two cooperating pieces:

* :class:`FactorizationCache` -- a thread-safe, content-addressed LRU of
  base-matrix factorizations, keyed by (structure, values, dt, method, gmin,
  backend).  A long-lived session owns one and shares it across every
  analysis it runs, so the *second* scenario with the same matrix never
  factorises at all.  Because a cached factorization of an identical matrix
  is bit-identical to a fresh one, cache hits cannot perturb results -- the
  sweep determinism guarantees (same results at any worker count) survive.
* :class:`BatchedTransientSolver` -- groups a list of :class:`TransientJob`
  by a structural fingerprint (unknown count + COO pattern hash + values +
  time axis + method + gmin + backend), factors the base matrix once per
  group, and steps all members in lockstep with stacked right-hand sides:
  ``lu_solve(lu, RHS_stack)`` is one BLAS triangular solve for N scenarios
  instead of N calls.  Nonlinear circuits (and ``batching="off"``) fall back
  to the sequential :func:`~repro.circuit.transient.transient` path
  unchanged, so the solver accepts arbitrary mixed job lists.

Per-member results are returned in input order and agree with the
sequential path to at most a few ulp (the stacked triangular solve is the
same LAPACK routine applied column by column); the differential test suite
pins the agreement at 1e-12.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .dc import dc_operating_point
from .elements import GROUND
from .netlist import Circuit
from .stamping import (
    LinearSolver,
    LinearTransientStepper,
    SparseLinearSolver,
    resolve_backend,
)
from .transient import (
    TransientResult,
    TransientStats,
    _quantize_dt,
    build_time_axis,
    transient,
)

__all__ = [
    "BATCHING_MODES",
    "TransientJob",
    "BatchRunStats",
    "FactorizationCache",
    "BatchedTransientSolver",
]

#: Valid values of every ``batching=`` parameter.
BATCHING_MODES = ("auto", "off")

#: Default :class:`FactorizationCache` bounds.  4096 entries hold the two
#: engine factorizations per cluster of a 2048-net design; 64 MiB is about
#: 13k dense factors of a ~25-node coupled-pi macromodel, or a few dozen
#: sparse factors of ``reduction="full"`` networks with thousands of nodes.
SESSION_CACHE_ENTRIES = 4096
SESSION_CACHE_BYTES = 64 * 2**20


@dataclass
class TransientJob:
    """One transient analysis request, batchable with others.

    Mirrors the keyword surface of :func:`~repro.circuit.transient.transient`
    for the linear fast path; ``label`` is carried through for reporting.
    """

    circuit: Circuit
    t_stop: float
    dt: float
    method: str = "trap"
    x0: Optional[np.ndarray] = None
    initial_conditions: Optional[Dict[str, float]] = None
    uic: bool = False
    include_breakpoints: bool = True
    label: str = ""


@dataclass
class BatchRunStats:
    """What one :meth:`BatchedTransientSolver.run` call actually did."""

    #: Same-matrix groups that went through the lockstep stepping loop.
    batch_groups: int = 0
    #: Jobs solved inside a batch group (including single-member groups).
    batched_jobs: int = 0
    #: Jobs that fell back to the sequential path (nonlinear, or batching off).
    sequential_jobs: int = 0
    #: Stacked multi-RHS solves performed (one per time step per group >= 2).
    batched_solves: int = 0
    #: Base-matrix factorizations actually computed.
    factorizations_built: int = 0
    #: Factorizations avoided -- group sharing plus session-cache hits.
    factorizations_saved: int = 0


class FactorizationCache:
    """Thread-safe content-addressed LRU of linear-system factorizations.

    Keys are value-level fingerprints (structure hash, value hash, dt,
    method, gmin, backend), so a hit is guaranteed to be a factorization of
    a bit-identical matrix -- reuse can never change results.  A session
    owns one instance and threads it through every engine and batched
    solver it creates; sweep workers expose the counters through
    ``SweepHealth``.

    The default bounds hold a design's working set -- every cluster of a
    design run needs two engine factorizations (DC and transient), and an
    LRU smaller than the working set evicts each entry before its rerun
    asks for it -- while ``max_bytes`` (summed ``solver.nbytes``) keeps a
    few large sparse factors from holding unbounded memory.
    """

    def __init__(self, max_entries: int = SESSION_CACHE_ENTRIES):
        self.max_entries = max_entries
        self.max_bytes = SESSION_CACHE_BYTES
        self._entries: "OrderedDict[tuple, object]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        #: Factorizations built and admitted (one per distinct matrix seen).
        self.entries_created = 0
        #: Lookups answered without factorising.
        self.hits = 0
        #: Stacked multi-RHS solves recorded against this cache.
        self.stacked_solves = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def solver(self, key: tuple, build: Callable[[], object]) -> Tuple[object, bool]:
        """The cached solver for ``key``, building (and admitting) on miss.

        Returns ``(solver, hit)``; ``hit`` is True when the factorization
        was served from the cache.  Admission evicts least-recently-used
        entries until both bounds hold again (the new entry always stays).
        """
        with self._lock:
            solver = self._entries.get(key)
            if solver is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return solver, True
            solver = build()
            self._entries[key] = solver
            self._bytes += getattr(solver, "nbytes", 0)
            while len(self._entries) > 1 and (
                len(self._entries) > self.max_entries or self._bytes > self.max_bytes
            ):
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= getattr(evicted, "nbytes", 0)
            self.entries_created += 1
            return solver, False

    def record_stacked_solves(self, count: int = 1) -> None:
        with self._lock:
            self.stacked_solves += count

    def counters(self) -> Dict[str, int]:
        """Counter snapshot under the sweep-telemetry names."""
        with self._lock:
            return {
                "batch_groups": self.entries_created,
                "batched_solves": self.stacked_solves,
                "factorizations_saved": self.hits,
            }


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def _structure_fingerprint(kernel) -> str:
    """Hash of the compiled COO pattern: positions, not values."""
    digest = hashlib.sha1()
    digest.update(np.array([kernel.n, kernel.num_nodes], dtype=np.int64).tobytes())
    for arr in (kernel._static_rows, kernel._static_cols, kernel._cap_a, kernel._cap_b):
        digest.update(np.asarray(arr, dtype=np.int64).tobytes())
        digest.update(b"|")
    for element in kernel.inductors:
        digest.update(
            f"{element.nodes}:{element.branch_indices}".encode("ascii", "replace")
        )
    return digest.hexdigest()


def _value_fingerprint(kernel) -> str:
    """Hash of the linear stamp values (resistances, capacitances, ...)."""
    digest = hashlib.sha1()
    for arr in (kernel._static_vals, kernel._cap_c):
        digest.update(np.asarray(arr, dtype=np.float64).tobytes())
        digest.update(b"|")
    inductances = np.array([e.inductance for e in kernel.inductors], dtype=np.float64)
    digest.update(inductances.tobytes())
    return digest.hexdigest()


def _axis_fingerprint(times: np.ndarray) -> str:
    return hashlib.sha1(np.asarray(times, dtype=np.float64).tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# The batched solver
# ---------------------------------------------------------------------------


@dataclass
class _Member:
    index: int
    job: TransientJob
    kernel: object
    times: np.ndarray
    backend: str


class BatchedTransientSolver:
    """Group same-matrix linear transients and solve them in lockstep.

    ``backend`` follows :func:`~repro.circuit.stamping.resolve_backend`
    semantics per job; ``batching="off"`` disables grouping (every job runs
    through the sequential path -- the differential-testing baseline); an
    optional :class:`FactorizationCache` adds cross-call factorization reuse
    inside a long-lived session.
    """

    def __init__(
        self,
        *,
        backend: str = "auto",
        batching: str = "auto",
        cache: Optional[FactorizationCache] = None,
    ):
        if batching not in BATCHING_MODES:
            raise ValueError(
                f"batching must be one of {BATCHING_MODES}, got '{batching}'"
            )
        self.backend = backend
        self.batching = batching
        self.cache = cache
        #: Statistics of the most recent :meth:`run` call.
        self.last_run = BatchRunStats()

    # ------------------------------------------------------------------ run

    def run(self, jobs: List[TransientJob]) -> List[TransientResult]:
        """Solve every job, returning results in input order."""
        stats = BatchRunStats()
        self.last_run = stats
        results: List[Optional[TransientResult]] = [None] * len(jobs)

        groups: "OrderedDict[tuple, List[_Member]]" = OrderedDict()
        for index, job in enumerate(jobs):
            self._validate(job)
            job.circuit.prepare()
            kernel = job.circuit.kernel
            backend = resolve_backend(self.backend, kernel.n)
            if self.batching == "off" or kernel.has_nonlinear:
                results[index] = self._run_sequential(job)
                stats.sequential_jobs += 1
                continue
            times = build_time_axis(
                job.circuit,
                job.t_stop,
                job.dt,
                include_breakpoints=job.include_breakpoints,
            )
            key = (
                _structure_fingerprint(kernel),
                _value_fingerprint(kernel),
                _axis_fingerprint(times),
                job.method,
                repr(job.circuit.gmin),
                backend,
            )
            groups.setdefault(key, []).append(
                _Member(index, job, kernel, times, backend)
            )

        for key, members in groups.items():
            stats.batch_groups += 1
            stats.batched_jobs += len(members)
            for member, result in zip(members, self._run_group(key, members, stats)):
                results[member.index] = result
        # Every index was filled by exactly one of the two paths above.
        return [result for result in results if result is not None]

    # ------------------------------------------------------------- internals

    @staticmethod
    def _validate(job: TransientJob) -> None:
        if job.t_stop <= 0:
            raise ValueError("t_stop must be positive")
        if job.dt <= 0 or job.dt > job.t_stop:
            raise ValueError("dt must be positive and smaller than t_stop")
        if job.method not in ("trap", "be"):
            raise ValueError("method must be 'trap' or 'be'")

    def _run_sequential(self, job: TransientJob) -> TransientResult:
        return transient(
            job.circuit,
            job.t_stop,
            job.dt,
            method=job.method,
            x0=job.x0,
            initial_conditions=job.initial_conditions,
            uic=job.uic,
            include_breakpoints=job.include_breakpoints,
            backend=self.backend,
        )

    @staticmethod
    def _initial_state(job: TransientJob, kernel, backend: str) -> np.ndarray:
        """Replicates the initial-condition logic of :func:`transient`."""
        n = kernel.n
        if job.x0 is not None:
            x = np.array(job.x0, dtype=float, copy=True)
            if x.shape != (n,):
                raise ValueError(f"x0 has shape {x.shape}, expected ({n},)")
            return x
        if job.uic:
            x = np.zeros(n)
            for name, value in (job.initial_conditions or {}).items():
                idx = job.circuit.node_index(name)
                if idx != GROUND:
                    x[idx] = value
            return x
        dc = dc_operating_point(job.circuit, backend=backend)
        x = np.array(dc.x, copy=True)
        for name, value in (job.initial_conditions or {}).items():
            idx = job.circuit.node_index(name)
            if idx != GROUND:
                x[idx] = value
        return x

    def _run_group(
        self, key: tuple, members: List[_Member], stats: BatchRunStats
    ) -> List[TransientResult]:
        lead = members[0]
        kernel = lead.kernel
        times = lead.times
        backend = lead.backend
        method = lead.job.method
        gmin = lead.job.circuit.gmin
        n = kernel.n
        k = len(members)
        num_steps = len(times) - 1

        steppers = [
            LinearTransientStepper(
                member.kernel, method=method, gmin=gmin, backend=backend
            )
            for member in members
        ]
        x_inits = [
            self._initial_state(member.job, member.kernel, backend)
            for member in members
        ]
        for stepper, x in zip(steppers, x_inits):
            stepper.initialize(x)

        all_solutions = [np.zeros((len(times), n)) for _ in members]
        for solutions, x in zip(all_solutions, x_inits):
            solutions[0] = x

        # One factorization per unique quantized dt, shared by the whole
        # group; the optional session cache extends the sharing across runs.
        local_solvers: Dict[float, object] = {}
        built = 0
        cache_hits = 0

        def acquire(step_dt: float):
            nonlocal built, cache_hits
            solver = local_solvers.get(step_dt)
            if solver is not None:
                return solver

            def build():
                base_key = (step_dt, method, gmin, steppers[0]._signature())
                if backend == "sparse":
                    return SparseLinearSolver(
                        kernel.base_matrix_sparse_for_key(base_key)
                    )
                return LinearSolver(kernel.base_matrix_for_key(base_key))

            if self.cache is not None:
                # The matrix is fully determined by (structure, values, dt,
                # method, gmin, backend) -- the time axis drops out.
                cache_key = key[:2] + (step_dt, method, key[4], backend)
                solver, hit = self.cache.solver(cache_key, build)
                if hit:
                    cache_hits += 1
                else:
                    built += 1
            else:
                solver = build()
                built += 1
            local_solvers[step_dt] = solver
            return solver

        prev_columns = [np.asarray(x, dtype=float) for x in x_inits]
        stacked_solves = 0
        for step_index in range(1, len(times)):
            t = float(times[step_index])
            step_dt = _quantize_dt(float(times[step_index] - times[step_index - 1]))
            solver = acquire(step_dt)
            if k == 1:
                z = steppers[0].build_rhs(t, step_dt, prev_columns[0])
                x_new = solver.solve(z)
                steppers[0].accept(x_new, step_dt, prev_columns[0])
                all_solutions[0][step_index] = x_new
                prev_columns[0] = x_new
            else:
                Z = np.empty((n, k))
                for m, stepper in enumerate(steppers):
                    Z[:, m] = stepper.build_rhs(t, step_dt, prev_columns[m])
                X = solver.solve(Z)
                stacked_solves += 1
                for m, stepper in enumerate(steppers):
                    x_new = np.ascontiguousarray(X[:, m])
                    stepper.accept(x_new, step_dt, prev_columns[m])
                    all_solutions[m][step_index] = x_new
                    prev_columns[m] = x_new

        if self.cache is not None and stacked_solves:
            self.cache.record_stacked_solves(stacked_solves)
        unique_dts = len(local_solvers)
        stats.batched_solves += stacked_solves
        stats.factorizations_built += built
        stats.factorizations_saved += cache_hits + unique_dts * (k - 1)

        results = []
        for m, member in enumerate(members):
            member_stats = TransientStats(
                backend=backend,
                fast_path=True,
                num_time_points=num_steps,
                newton_iterations=0,
                lu_reuse_hits=(num_steps - unique_dts) if m == 0 else 0,
                matrix_factorizations=built if m == 0 else 0,
                rhs_builds=num_steps,
                batch_groups=1,
                batched_solves=stacked_solves,
                factorizations_saved=cache_hits if m == 0 else unique_dts,
            )
            results.append(
                TransientResult(
                    member.job.circuit,
                    times.copy(),
                    all_solutions[m],
                    newton_iterations=0,
                    stats=member_stats,
                )
            )
        return results

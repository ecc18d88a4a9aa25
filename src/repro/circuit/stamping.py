"""Compiled, vectorized MNA stamping kernel.

The historical assembly path rebuilt the full dense MNA matrix
element-by-element (pure Python) on every Newton iteration of every time
point.  For the circuits this library simulates -- RC wiring, Thevenin
drivers and a handful of transistors -- almost all of those stamps are
identical from one iteration to the next: resistors, controlled sources and
source topologies never change, and capacitor/inductor companion models only
change when the time step or integration method changes.

This module compiles a :class:`Circuit` once (at ``Circuit.prepare()``) into
a :class:`CompiledKernel` that exploits exactly that structure:

* **static** stamps (``Resistor``, ``VCCS``, ``VCVS`` and the topology rows
  of ``VoltageSource``) are captured once into flat COO index/value arrays
  and scattered into a dense matrix in one ``np.add.at`` shot;
* **dynamic** stamps (``Capacitor`` / ``Inductor`` companion models) are
  captured per ``(dt, method, gmin, state-signature)`` key and the resulting
  *base matrix* is cached, so a fixed-step transient builds it once and every
  further Newton iteration starts from a cheap ``ndarray.copy()``;
* **nonlinear** elements (``MOSFET``, ``Diode``, ``BehavioralCurrentSource``
  and any future :class:`~repro.circuit.elements.Element` subclass that does
  not declare a linear partition) are the only ones stamped per iteration;
* the right-hand side is rebuilt once per *time point* (not per iteration):
  independent sources are evaluated directly and capacitor companion
  currents are gathered and scattered with vectorized NumPy operations.

For circuits with no nonlinear element at all, :class:`LinearTransientStepper`
skips Newton entirely: one LU factorization per unique ``(dt, method)`` is
reused across all time steps with only right-hand-side updates, so a
uniform-``dt`` grid pays for a single factorization over the whole run.

Nonlinear circuits step through :class:`NonlinearLaneStepper`: ``B``
same-topology *lanes* (the same circuit under different source waveforms)
advance in lockstep over one shared time axis.  Each lane keeps its own
Newton iterate, convergence mask and retry rungs, while every iteration
shares one cached base matrix, one :class:`~repro.circuit.mosfet.MOSFETBlock`
evaluation of all transistors of all lanes and one stacked
``np.linalg.solve``; capacitor and inductor companion state lives in
``(lanes, elements)`` arrays.  ``B = 1`` is the ordinary transient.

Two interchangeable linear-algebra backends share all of the machinery above:

* **dense** -- NumPy arrays factorised with ``scipy.linalg.lu_factor``; the
  right substrate for the paper's noise clusters (tens to a few hundred
  unknowns), where LAPACK's dense kernels beat any sparse bookkeeping;
* **sparse** -- the same COO stamp capture assembled into
  ``scipy.sparse`` CSC matrices and factorised with
  ``scipy.sparse.linalg.splu``.  Extracted RC interconnect is near-tree
  (a handful of nonzeros per row), so factorisation and solves scale
  roughly linearly with node count instead of O(n^3)/O(n^2) -- this is what
  opens the multi-thousand-node workload class.

:func:`resolve_backend` implements the ``"auto"`` policy: circuits at or
above :data:`SPARSE_AUTO_THRESHOLD` unknowns take the sparse backend, the
dense oracle keeps everything below it.  Both backends run the same stamps,
the same companion models and the same caches, so they agree to solver
precision (the differential suite in ``tests/circuit/test_sparse_backend.py``
pins sparse-vs-dense agreement at 1e-9).

The capture mechanism runs each element's *existing* ``stamp()`` method
against duck-typed accumulators, so there is exactly one authoritative
implementation of every stamp and the compiled kernel cannot drift from a
plain element-by-element assembly.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse as _sparse
from scipy.linalg import get_lapack_funcs as _get_lapack_funcs
from scipy.linalg import lu_factor as _lu_factor
from scipy.sparse.linalg import splu as _splu

from .. import faults
from .elements import (
    Capacitor,
    CurrentSource,
    Element,
    GROUND,
    Inductor,
    StampContext,
    VoltageSource,
)
from .mosfet import MOSFET, AlphaPowerModel, Level1Model, MOSFETBlock

if TYPE_CHECKING:  # pragma: no cover - import cycle (netlist builds the kernel)
    from .netlist import Circuit

__all__ = [
    "SingularMatrixError",
    "ConvergenceError",
    "KernelStats",
    "CompiledKernel",
    "DescriptorSystem",
    "AssembledPoint",
    "LinearSolver",
    "SparseLinearSolver",
    "LinearTransientStepper",
    "NonlinearLaneStepper",
    "LaneRun",
    "RETRY_RUNGS",
    "SPARSE_AUTO_THRESHOLD",
    "SOLVER_BACKENDS",
    "resolve_backend",
    "compilable",
]

#: Maximum number of cached base matrices per kernel (gmin stepping can visit
#: a dozen keys; anything beyond that is evicted least-recently-used).
_BASE_CACHE_SIZE = 32

#: Valid values of every ``backend=`` / ``solver_backend=`` parameter.
SOLVER_BACKENDS = ("auto", "dense", "sparse")

#: Unknown count at which ``backend="auto"`` switches to the sparse backend.
#: Measured on the RC-ladder workloads of ``benchmarks/bench_sparse_backend.py``:
#: below a few hundred unknowns LAPACK's dense kernels win, above it the
#: near-tree sparsity of extracted interconnect makes ``splu`` pull away.
SPARSE_AUTO_THRESHOLD = 500

#: Per-point retry rungs after plain Newton fails, as ``(name, budget scale,
#: damping limit)``; every rung integrates with backward Euler, which is more
#: forgiving near sharp transitions, and the heavily damped last rung with a
#: larger budget globalises the iteration when full steps oscillate.
RETRY_RUNGS = (
    ("be", 2, 1.0),
    ("be-damped", 4, 0.1),
)

def resolve_backend(backend: str, num_unknowns: int) -> str:
    """Resolve a requested solver backend to ``"dense"`` or ``"sparse"``.

    ``"auto"`` picks sparse at or above :data:`SPARSE_AUTO_THRESHOLD`
    unknowns, dense below it.
    """
    if backend not in SOLVER_BACKENDS:
        raise ValueError(
            f"backend must be one of {SOLVER_BACKENDS}, got '{backend}'"
        )
    if backend != "auto":
        return backend
    return "sparse" if num_unknowns >= SPARSE_AUTO_THRESHOLD else "dense"


class SingularMatrixError(RuntimeError):
    """Raised when the MNA matrix cannot be factorised."""


class ConvergenceError(RuntimeError):
    """Raised when the non-linear solver fails to converge."""


# ---------------------------------------------------------------------------
# Stamp-capture accumulators
# ---------------------------------------------------------------------------

class _COOMatrix:
    """Duck-typed matrix that records ``A[r, c] += v`` as COO triples."""

    __slots__ = ("rows", "cols", "vals")

    def __init__(self):
        self.rows: List[int] = []
        self.cols: List[int] = []
        self.vals: List[float] = []

    def __getitem__(self, key) -> float:
        return 0.0

    def __setitem__(self, key, value) -> None:
        row, col = key
        self.rows.append(row)
        self.cols.append(col)
        self.vals.append(value)


class _NullSink:
    """Duck-typed array that silently discards all reads and writes."""

    __slots__ = ()

    def __getitem__(self, key) -> float:
        return 0.0

    def __setitem__(self, key, value) -> None:
        pass


_NULL_SINK = _NullSink()


# ---------------------------------------------------------------------------
# Factor-once / solve-many linear solver
# ---------------------------------------------------------------------------

class LinearSolver:
    """An ``A x = z`` solver: one ``scipy.linalg.lu_factor``, many solves."""

    __slots__ = ("_lu", "_piv", "_getrs")

    def __init__(self, A: np.ndarray):
        try:
            self._lu, self._piv = _lu_factor(A)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise SingularMatrixError(str(exc)) from exc
        # The LAPACK routine scipy.linalg.lu_solve ends in, fetched once:
        # calling it directly skips lu_solve's argument checks and batching
        # wrapper, which cost ten times the back-substitution itself on a
        # noise cluster's ~25 unknowns.
        (self._getrs,) = _get_lapack_funcs(("getrs",), (self._lu,))

    def __getstate__(self):
        # LAPACK routine handles do not pickle; refetch them on load.
        return self._lu, self._piv

    def __setstate__(self, state) -> None:
        self._lu, self._piv = state
        (self._getrs,) = _get_lapack_funcs(("getrs",), (self._lu,))

    @property
    def nbytes(self) -> int:
        """Memory held by the factors (the cache's eviction weight)."""
        return self._lu.nbytes + self._piv.nbytes

    def solve(self, z: np.ndarray) -> np.ndarray:
        """Solve for one right-hand side (1-D) or a stacked block (n x k).

        A 2-D ``z`` is solved column-by-column inside one LAPACK call --
        the primitive the batched transient core builds on.
        """
        # The factors were validated at factor time and the solution is
        # checked below, so no input scan is needed (lu_solve's
        # check_finite would re-scan the n^2 factor block every solve).
        x, info = self._getrs(self._lu, self._piv, z)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of getrs")
        if not np.isfinite(x).all():
            raise SingularMatrixError("solution contains non-finite values")
        return x


class SparseLinearSolver:
    """Sparse ``A x = z`` solver: one ``splu`` factorisation, many solves.

    The sparse twin of :class:`LinearSolver`; accepts any scipy.sparse
    matrix (converted to CSC, the format ``splu`` factorises in place).
    """

    __slots__ = ("_lu",)

    def __init__(self, A):
        try:
            self._lu = _splu(_sparse.csc_matrix(A))
        except (RuntimeError, ValueError) as exc:
            raise SingularMatrixError(str(exc)) from exc

    @property
    def nbytes(self) -> int:
        """Approximate memory of the L+U factors (values, row indices, perms)."""
        return 12 * self._lu.nnz + 8 * self._lu.shape[0]

    def solve(self, z: np.ndarray) -> np.ndarray:
        """Solve for one right-hand side (1-D) or a stacked block (n x k)."""
        x = self._lu.solve(z)
        if not np.isfinite(x).all():
            raise SingularMatrixError("solution contains non-finite values")
        return x


# ---------------------------------------------------------------------------
# Kernel statistics
# ---------------------------------------------------------------------------

@dataclass
class KernelStats:
    """Counters of what the compiled kernel did (and did not) recompute."""

    #: Base matrices built from scratch (compile + np.add.at scatter).
    base_builds: int = 0
    #: Assemblies answered from the base-matrix cache -- each one is a full
    #: element-by-element reassembly the legacy path would have performed.
    base_hits: int = 0
    #: Right-hand-side rebuilds (one per time point, not per iteration).
    rhs_builds: int = 0
    #: Individual nonlinear-element stamp calls.
    nonlinear_stamps: int = 0

    def snapshot(self) -> "KernelStats":
        return KernelStats(
            self.base_builds, self.base_hits, self.rhs_builds, self.nonlinear_stamps
        )

    def delta_since(self, earlier: "KernelStats") -> "KernelStats":
        return KernelStats(
            self.base_builds - earlier.base_builds,
            self.base_hits - earlier.base_hits,
            self.rhs_builds - earlier.rhs_builds,
            self.nonlinear_stamps - earlier.nonlinear_stamps,
        )


@dataclass
class DescriptorSystem:
    """Linear MNA descriptor form ``G x + C dx/dt = B u(t)`` of one kernel.

    ``G`` and ``C`` are scipy.sparse CSC matrices over the full unknown
    vector (node voltages plus source branch currents), assembled straight
    from the compiled COO stamps -- the dense ``n x n`` arrays are never
    materialised.  ``B`` maps the independent sources onto the equations
    (one column per source) and :meth:`input_vector` evaluates their values
    at a time point, so ``B @ input_vector(t)`` reproduces the kernel's
    linear right-hand side exactly.  This is the handoff format of the
    model-order-reduction subsystem (:mod:`repro.reduction`).
    """

    G: object
    C: object
    B: np.ndarray
    sources: List[Element]
    num_unknowns: int
    num_nodes: int
    gmin: float

    @property
    def num_inputs(self) -> int:
        return self.B.shape[1]

    def input_vector(
        self, t: float, *, dt: Optional[float] = None, method: str = "trap"
    ) -> np.ndarray:
        """Source values ``u(t)``; ``dt=None`` evaluates the DC values."""
        ctx = StampContext(
            x=np.zeros(0), time=t, dt=dt, method=method, gmin=self.gmin
        )
        return np.array([element.value(ctx) for element in self.sources])


def _defining_class(cls: type, name: str) -> Optional[type]:
    """The most-derived class in ``cls``'s MRO that defines ``name``."""
    for klass in cls.__mro__:
        if name in vars(klass):
            return klass
    return None


def compilable(element: Element) -> bool:
    """True when ``element`` is a MOSFET :class:`MOSFETBlock` can reproduce.

    A subclass that overrides ``stamp`` or the evaluation methods, or a
    device whose static model is not exactly :class:`Level1Model` or
    :class:`AlphaPowerModel`, keeps its own ``stamp`` -- compiling it would
    silently bypass the override (as :func:`_effective_partition` demotes
    overridden linear elements).
    """
    return (
        isinstance(element, MOSFET)
        and all(
            _defining_class(type(element), name) is MOSFET
            for name in ("stamp", "_evaluate", "_evaluate_nmos")
        )
        and type(element._model) in (Level1Model, AlphaPowerModel)
    )


def _effective_partition(element: Element) -> str:
    """The partition the kernel may safely compile ``element`` under.

    A subclass that overrides ``stamp`` (or ``update_state``) without also
    overriding ``partition`` inherits a partition claim that describes the
    *parent's* stamps, not its own -- compiling it would silently freeze or
    bypass the override.  Such elements are demoted to ``"nonlinear"``, the
    always-correct per-iteration treatment (and they keep the Newton path,
    because the fast-path dispatch checks ``kernel.has_nonlinear``).
    """
    partition = element.partition()
    if partition == "nonlinear":
        return partition
    part_cls = _defining_class(type(element), "partition")
    # Any behaviour-defining method overridden *below* the class that made
    # the partition claim invalidates that claim: stamp/update_state change
    # the stamps themselves, value() changes how sources are evaluated, and
    # an is_nonlinear() override signals iterate-dependent behaviour.
    for method in ("stamp", "update_state", "value", "is_nonlinear"):
        method_cls = _defining_class(type(element), method)
        if (
            method_cls is not None
            and part_cls is not None
            and method_cls is not part_cls
            and issubclass(method_cls, part_cls)
        ):
            return "nonlinear"
    return partition


# ---------------------------------------------------------------------------
# The compiled kernel
# ---------------------------------------------------------------------------

class CompiledKernel:
    """Precompiled vectorized assembly for one prepared :class:`Circuit`.

    The kernel is built by ``Circuit.prepare()`` and invalidated whenever an
    element or node is added, or a compiled linear value (``resistance``,
    ``capacitance``, ``inductance``, ``gm``, ``gain``) is mutated -- the
    value setters notify the owning circuit.  Mutating a source's
    ``waveform`` does not invalidate (and need not): source values are read
    live on every right-hand-side rebuild.
    """

    def __init__(self, circuit: "Circuit"):
        # Built from inside ``Circuit.prepare()`` (after branch assignment),
        # so sizes are read directly rather than through the auto-preparing
        # ``num_unknowns`` property.
        self.circuit = circuit
        self.num_nodes = circuit.num_nodes
        self.n = circuit.num_nodes + circuit._num_branches

        self.static_elements: List[Element] = []
        self.source_elements: List[Element] = []
        self.dynamic_elements: List[Element] = []
        self.nonlinear_elements: List[Element] = []
        for element in circuit.elements:
            partition = _effective_partition(element)
            if partition == "static":
                self.static_elements.append(element)
            elif partition == "source":
                self.source_elements.append(element)
            elif partition == "dynamic":
                self.dynamic_elements.append(element)
            elif partition == "nonlinear":
                self.nonlinear_elements.append(element)
            else:  # pragma: no cover - partition() contract violation
                raise ValueError(
                    f"element {element!r} declares unknown partition '{partition}'"
                )

        # Dynamic capacitors with a companion model (C > 0); their right-hand
        # side is rebuilt vectorized every time point.
        self._caps: List[Capacitor] = [
            e for e in self.dynamic_elements
            if isinstance(e, Capacitor) and e.capacitance > 0.0
        ]
        n = self.n
        # Node indices with GROUND mapped onto a scratch slot ``n`` so gathers
        # and scatters work on (n+1)-vectors without branching.
        self._cap_a = np.array(
            [e.nodes[0] if e.nodes[0] != GROUND else n for e in self._caps], dtype=int
        )
        self._cap_b = np.array(
            [e.nodes[1] if e.nodes[1] != GROUND else n for e in self._caps], dtype=int
        )
        self._cap_c = np.array([e.capacitance for e in self._caps], dtype=float)

        self._inductors: List[Inductor] = [
            e for e in self.dynamic_elements if isinstance(e, Inductor)
        ]
        # Any dynamic element that is neither a compiled capacitor nor an
        # inductor (zero-value caps have no RHS; future types fall back to
        # their own stamp against a null matrix).
        compiled = set(id(e) for e in self._caps) | set(id(e) for e in self._inductors)
        self._other_dynamic = [
            e for e in self.dynamic_elements
            if id(e) not in compiled and not isinstance(e, Capacitor)
        ]

        # Plain MOSFETs are evaluated as one struct-of-arrays block by the
        # lane stepper; every other nonlinear element keeps its own stamp.
        mosfets: List[Element] = []
        self.looped_nonlinear: List[Element] = []
        for element in self.nonlinear_elements:
            (mosfets if compilable(element) else self.looped_nonlinear).append(element)
        self.mosfet_block = MOSFETBlock(mosfets, n) if mosfets else None
        #: True when all companion state fits the lane stepper's arrays: no
        #: custom dynamic element, no nonlinear element with state of its
        #: own (an ``update_state`` override) and only plain voltage and
        #: current sources, whose waveforms the stepper reads directly (a
        #: subclass may re-declare the source partition over its own stamp).
        self.array_state = (
            not self._other_dynamic
            and all(
                _defining_class(type(e), "update_state") is Element
                for e in self.nonlinear_elements
            )
            and all(type(e) in (VoltageSource, CurrentSource) for e in self.source_elements)
        )

        # --- static COO compile (one shot, reused by every base matrix) -----
        coo = _COOMatrix()
        probe = StampContext(x=np.zeros(n), dt=None, gmin=0.0)
        for element in self.static_elements:
            element.stamp(coo, _NULL_SINK, probe)
        for element in self.source_elements:
            element.stamp(coo, _NULL_SINK, probe)
        self._static_rows = np.array(coo.rows, dtype=int)
        self._static_cols = np.array(coo.cols, dtype=int)
        self._static_flat = self._static_rows * n + self._static_cols
        self._static_vals = np.array(coo.vals, dtype=float)

        self._base_cache: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        # Sparse (CSC) twins of the dense base matrices, cached under the
        # same keys.  Both caches live on the kernel, so Circuit.invalidate()
        # -- triggered by topology changes *and* by linear-value setters --
        # drops dense and sparse factorisation inputs together.
        self._sparse_base_cache: "OrderedDict[tuple, object]" = OrderedDict()
        self.stats = KernelStats()

    # ------------------------------------------------------------ properties

    @property
    def has_nonlinear(self) -> bool:
        return bool(self.nonlinear_elements)

    @property
    def capacitors(self) -> List[Capacitor]:
        return list(self._caps)

    @property
    def inductors(self) -> List[Inductor]:
        return list(self._inductors)

    # ----------------------------------------------------------- base matrix

    def signature(self, ctx: StampContext) -> Tuple[bool, ...]:
        """Per-dynamic-element effective integration coefficient.

        ``True`` means the element stamps its trapezoidal companion (method
        is ``"trap"`` *and* its previous-step state is available), ``False``
        means backward Euler.  Mirrors the fallback logic inside
        ``Capacitor.stamp`` / ``Inductor.stamp`` exactly.
        """
        if ctx.dt is None:
            return ()
        trap = ctx.method == "trap"
        prev_state = ctx.prev_state
        bits = []
        for element in self.dynamic_elements:
            if isinstance(element, Capacitor):
                state = prev_state.get(element.name)
                bits.append(trap and state is not None and state.get("i") is not None)
            else:
                bits.append(trap and element.name in prev_state)
        return tuple(bits)

    def base_key(self, ctx: StampContext) -> tuple:
        return (ctx.dt, ctx.method, ctx.gmin, self.signature(ctx))

    def base_matrix(self, ctx: StampContext) -> np.ndarray:
        """The cached linear-part matrix for ``ctx`` (gmin diagonal included).

        The returned array is shared -- callers must ``copy()`` before
        stamping into it.
        """
        return self.base_matrix_for_key(self.base_key(ctx))

    def _dynamic_coo(self, key: tuple) -> _COOMatrix:
        """COO triples of the dynamic (companion-model) stamps for ``key``.

        Re-runs the dynamic stamps against a COO accumulator with a
        synthetic context that reproduces the key: the companion
        conductances depend only on (dt, method, gmin, state presence),
        never on the state *values*.
        """
        dt, method, gmin, sig = key
        coo = _COOMatrix()
        if not self.dynamic_elements:
            return coo
        n = self.n
        prev_state: Dict = {}
        for element, has_state in zip(self.dynamic_elements, sig or ()):
            if has_state:
                prev_state[element.name] = {"i": 0.0, "v": 0.0}
        probe = StampContext(
            x=np.zeros(n),
            prev_x=np.zeros(n),
            dt=dt,
            method=method,
            gmin=gmin,
            prev_state=prev_state,
        )
        for element in self.dynamic_elements:
            element.stamp(coo, _NULL_SINK, probe)
        return coo

    def base_matrix_for_key(self, key: tuple) -> np.ndarray:
        cached = self._base_cache.get(key)
        if cached is not None:
            self._base_cache.move_to_end(key)
            self.stats.base_hits += 1
            return cached

        dt, method, gmin, sig = key
        n = self.n
        A = np.zeros(n * n)
        if self._static_flat.size:
            np.add.at(A, self._static_flat, self._static_vals)

        coo = self._dynamic_coo(key)
        if coo.rows:
            flat = np.array(coo.rows, dtype=int) * n + np.array(coo.cols, dtype=int)
            np.add.at(A, flat, np.array(coo.vals, dtype=float))

        A = A.reshape(n, n)
        if gmin > 0.0 and self.num_nodes:
            idx = np.arange(self.num_nodes)
            A[idx, idx] += gmin

        self._base_cache[key] = A
        if len(self._base_cache) > _BASE_CACHE_SIZE:
            self._base_cache.popitem(last=False)
        self.stats.base_builds += 1
        return A

    # ---------------------------------------------------------- sparse matrix

    def base_matrix_sparse(self, ctx: StampContext):
        """Sparse (CSC) twin of :meth:`base_matrix` -- shared, do not mutate."""
        return self.base_matrix_sparse_for_key(self.base_key(ctx))

    def base_matrix_sparse_for_key(self, key: tuple):
        """The cached sparse base matrix for ``key`` (gmin diagonal included).

        Assembled straight from the compiled COO triples -- the dense
        ``n x n`` array is never materialised, which is what keeps
        multi-thousand-node clusters inside memory.
        """
        cached = self._sparse_base_cache.get(key)
        if cached is not None:
            self._sparse_base_cache.move_to_end(key)
            self.stats.base_hits += 1
            return cached

        _dt, _method, gmin, _sig = key
        n = self.n
        rows = [self._static_rows]
        cols = [self._static_cols]
        vals = [self._static_vals]
        coo = self._dynamic_coo(key)
        if coo.rows:
            rows.append(np.array(coo.rows, dtype=int))
            cols.append(np.array(coo.cols, dtype=int))
            vals.append(np.array(coo.vals, dtype=float))
        if gmin > 0.0 and self.num_nodes:
            idx = np.arange(self.num_nodes)
            rows.append(idx)
            cols.append(idx)
            vals.append(np.full(self.num_nodes, gmin))
        A = _sparse.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        ).tocsc()

        self._sparse_base_cache[key] = A
        if len(self._sparse_base_cache) > _BASE_CACHE_SIZE:
            self._sparse_base_cache.popitem(last=False)
        self.stats.base_builds += 1
        return A

    # -------------------------------------------------------- right-hand side

    def rhs(
        self,
        ctx: StampContext,
        *,
        cap_i_prev: Optional[np.ndarray] = None,
        cap_trap: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Linear-part right-hand side at ``ctx`` (constant over Newton).

        ``cap_i_prev`` / ``cap_trap`` let the linear fast path supply the
        capacitor companion state as arrays; otherwise the per-element state
        dictionaries of ``ctx.prev_state`` are gathered.
        """
        n = self.n
        z = np.zeros(n)
        self.stats.rhs_builds += 1

        for element in self.source_elements:
            if isinstance(element, VoltageSource):
                z[element.branch_indices[0]] += element.value(ctx)
            elif isinstance(element, CurrentSource):
                a, b = element.nodes
                value = element.value(ctx)
                if a != GROUND:
                    z[a] -= value
                if b != GROUND:
                    z[b] += value
            else:
                element.stamp(_NULL_SINK, z, ctx)

        if ctx.dt is None:
            return z
        dt = ctx.dt

        if self._caps:
            if cap_i_prev is None:
                trap = ctx.method == "trap"
                i_prev = np.zeros(len(self._caps))
                trap_mask = np.zeros(len(self._caps), dtype=bool)
                for index, element in enumerate(self._caps):
                    state = ctx.prev_state.get(element.name)
                    value = None if state is None else state.get("i")
                    if trap and value is not None:
                        trap_mask[index] = True
                        i_prev[index] = value
            else:
                i_prev = cap_i_prev
                trap_mask = cap_trap

            prev_ext = np.zeros(n + 1)
            if ctx.prev_x is not None:
                prev_ext[:n] = ctx.prev_x
            v_prev = prev_ext[self._cap_a] - prev_ext[self._cap_b]
            geq = np.where(trap_mask, 2.0, 1.0) * self._cap_c / dt
            ieq = geq * v_prev + np.where(trap_mask, i_prev, 0.0)
            z_ext = np.zeros(n + 1)
            np.add.at(z_ext, self._cap_a, ieq)
            np.add.at(z_ext, self._cap_b, -ieq)
            z += z_ext[:n]

        for element in self._inductors:
            element.stamp(_NULL_SINK, z, ctx)
        for element in self._other_dynamic:
            element.stamp(_NULL_SINK, z, ctx)
        return z

    # --------------------------------------------------------------- assembly

    def point(self, ctx: StampContext, backend: str = "dense") -> "AssembledPoint":
        """Precompute the iteration-invariant parts of one solve point.

        The base matrix, its cache key/signature and the linear right-hand
        side are all constant over the Newton iterations of a time point;
        Newton loops build one :class:`AssembledPoint` per point and call its
        :meth:`~AssembledPoint.assemble` per iteration.  ``backend`` selects
        the matrix representation the point assembles (``"dense"`` or
        ``"sparse"``, already resolved by :func:`resolve_backend`).
        """
        return AssembledPoint(self, ctx, backend=backend)

    def assemble(
        self,
        ctx: StampContext,
        *,
        z_base: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Full ``(A, z)`` at ``ctx``: cached base + nonlinear stamps.

        ``z_base`` (from :meth:`rhs`) can be passed to avoid rebuilding the
        linear right-hand side; iterating callers should prefer
        :meth:`point`, which also hoists the base-key computation.
        """
        A = self.base_matrix(ctx).copy()
        z = self.rhs(ctx) if z_base is None else z_base.copy()
        return self.stamp_nonlinear(A, z, ctx)

    def stamp_nonlinear(
        self, A: np.ndarray, z: np.ndarray, ctx: StampContext
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Stamp the per-iteration (nonlinear) elements into ``(A, z)``."""
        for element in self.nonlinear_elements:
            element.stamp(A, z, ctx)
            self.stats.nonlinear_stamps += 1
        return A, z

    def stamp_nonlinear_sparse(
        self, base, z: np.ndarray, ctx: StampContext
    ) -> Tuple[object, np.ndarray]:
        """Sparse-base variant of :meth:`stamp_nonlinear`.

        The nonlinear stamps are captured as COO triples (each element's
        ``stamp`` runs unmodified against the duck-typed accumulator) and
        added to the shared sparse base, which is never mutated.
        """
        coo = _COOMatrix()
        for element in self.nonlinear_elements:
            element.stamp(coo, z, ctx)
            self.stats.nonlinear_stamps += 1
        if not coo.rows:
            return base, z
        delta = _sparse.coo_matrix(
            (np.array(coo.vals, dtype=float),
             (np.array(coo.rows, dtype=int), np.array(coo.cols, dtype=int))),
            shape=base.shape,
        )
        return (base + delta.tocsc()), z

    # ----------------------------------------------------------- descriptor

    def descriptor_system(self, *, gmin: float = 0.0) -> DescriptorSystem:
        """Export the kernel as a sparse ``G x + C dx/dt = B u(t)`` system.

        Only strictly linear RC(+sources) circuits have this form: ``G``
        carries the static stamps (resistors, controlled sources, voltage
        source topology rows) plus the ``gmin`` node diagonal, ``C`` the
        capacitor stamps, and ``B`` one column per independent source.
        Nonlinear elements, inductors and custom dynamic elements have no
        descriptor representation here and raise :class:`ValueError` with
        the offending element names.
        """
        offending = list(self.nonlinear_elements) + list(self._inductors) + list(
            self._other_dynamic
        )
        if offending:
            names = ", ".join(e.name for e in offending[:5])
            raise ValueError(
                f"circuit '{self.circuit.name}' has no linear RC descriptor "
                f"form: unsupported elements {names}"
            )
        for element in self.source_elements:
            if not isinstance(element, (VoltageSource, CurrentSource)):
                raise ValueError(
                    f"source element '{element.name}' "
                    f"({type(element).__name__}) cannot be mapped onto a "
                    "descriptor input column"
                )

        n = self.n
        rows = [self._static_rows]
        cols = [self._static_cols]
        vals = [self._static_vals]
        if gmin > 0.0 and self.num_nodes:
            idx = np.arange(self.num_nodes)
            rows.append(idx)
            cols.append(idx)
            vals.append(np.full(self.num_nodes, gmin))
        G = _sparse.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        ).tocsc()

        # Capacitor stamps from the compiled flat arrays; entries on the
        # ground scratch slot ``n`` are dropped (ground row/col elimination).
        a, b, c = self._cap_a, self._cap_b, self._cap_c
        crows = np.concatenate([a, b, a, b])
        ccols = np.concatenate([a, b, b, a])
        cvals = np.concatenate([c, c, -c, -c])
        keep = (crows < n) & (ccols < n)
        C = _sparse.coo_matrix(
            (cvals[keep], (crows[keep], ccols[keep])), shape=(n, n)
        ).tocsc()

        B = np.zeros((n, len(self.source_elements)))
        for j, element in enumerate(self.source_elements):
            if isinstance(element, VoltageSource):
                B[element.branch_indices[0], j] = 1.0
            else:
                na, nb = element.nodes
                if na != GROUND:
                    B[na, j] -= 1.0
                if nb != GROUND:
                    B[nb, j] += 1.0
        return DescriptorSystem(
            G=G,
            C=C,
            B=B,
            sources=list(self.source_elements),
            num_unknowns=n,
            num_nodes=self.num_nodes,
            gmin=gmin,
        )


class AssembledPoint:
    """Iteration-invariant assembly state of one time/DC point."""

    __slots__ = ("_kernel", "_base", "_z_base", "_first", "_backend")

    def __init__(self, kernel: CompiledKernel, ctx: StampContext, backend: str = "dense"):
        if backend not in ("dense", "sparse"):
            raise ValueError(
                f"AssembledPoint backend must be 'dense' or 'sparse', got '{backend}'"
            )
        self._kernel = kernel
        self._backend = backend
        if backend == "sparse":
            self._base = kernel.base_matrix_sparse(ctx)
        else:
            self._base = kernel.base_matrix(ctx)
        self._z_base = kernel.rhs(ctx)
        self._first = True

    def assemble(self, ctx: StampContext) -> Tuple[np.ndarray, np.ndarray]:
        """``(A, z)`` at the current iterate, from the precomputed bases."""
        if self._first:
            self._first = False
        else:
            # Every further iteration reuses the precomputed base without
            # even a cache lookup; keep the avoided-assembly accounting
            # identical to per-iteration base_matrix() calls.
            self._kernel.stats.base_hits += 1
        z = self._z_base.copy()
        if self._backend == "sparse":
            return self._kernel.stamp_nonlinear_sparse(self._base, z, ctx)
        return self._kernel.stamp_nonlinear(self._base.copy(), z, ctx)


# ---------------------------------------------------------------------------
# Linear transient fast path
# ---------------------------------------------------------------------------

class LinearTransientStepper:
    """Newton-free time stepper for circuits with no nonlinear element.

    Each step solves ``A(dt) x = z`` directly with an LU factorization that
    is cached per ``(dt, method)`` -- a uniform time grid factorises exactly
    once for the whole run.  Companion-model state (capacitor currents,
    inductor current/voltage) is kept in flat arrays and updated vectorized,
    mirroring ``Capacitor.update_state`` / ``Inductor.update_state``.

    ``backend`` selects the factorisation substrate per unique ``(dt,
    method)`` key: ``"dense"`` (``scipy.linalg.lu_factor``) or ``"sparse"``
    (``scipy.sparse.linalg.splu`` on the kernel's CSC base matrix).  The
    stepping loop, companion-state updates and reuse accounting are
    identical for both.

    The solver cache is LRU-bounded at :data:`_BASE_CACHE_SIZE` entries
    (matching the kernel's base-matrix caches), so a long-lived stepper
    swept across many distinct ``dt`` values cannot accumulate unbounded
    factorisations.
    """

    def __init__(
        self,
        kernel: CompiledKernel,
        *,
        method: str,
        gmin: float,
        backend: str = "dense",
    ):
        if kernel.has_nonlinear:
            raise ValueError(
                "the linear fast path cannot simulate nonlinear circuits"
            )
        if backend not in ("dense", "sparse"):
            raise ValueError(
                f"stepper backend must be 'dense' or 'sparse', got '{backend}'"
            )
        self.kernel = kernel
        self.method = method
        self.gmin = gmin
        self.backend = backend
        self._solvers: "OrderedDict[tuple, LinearSolver]" = OrderedDict()
        self.lu_factorizations = 0
        self.lu_reuse_hits = 0

        n = kernel.n
        self._ncaps = len(kernel._caps)
        self._cap_i = np.zeros(self._ncaps)
        self._trap_mask = np.full(self._ncaps, method == "trap", dtype=bool)
        self._ind_branch = np.array(
            [e.branch_indices[0] for e in kernel._inductors], dtype=int
        )
        self._ind_a = np.array(
            [e.nodes[0] if e.nodes[0] != GROUND else n for e in kernel._inductors],
            dtype=int,
        )
        self._ind_b = np.array(
            [e.nodes[1] if e.nodes[1] != GROUND else n for e in kernel._inductors],
            dtype=int,
        )
        self._ind_L = np.array([e.inductance for e in kernel._inductors], dtype=float)
        self._ind_i = np.zeros(len(kernel._inductors))
        self._ind_v = np.zeros(len(kernel._inductors))

    def initialize(self, x0: np.ndarray) -> None:
        """Mirror the t = 0 ``update_state`` pass of the generic integrator."""
        x_ext = np.append(np.asarray(x0, dtype=float), 0.0)
        self._cap_i[:] = 0.0
        if self._ind_branch.size:
            self._ind_i = x_ext[self._ind_branch].copy()
            self._ind_v = x_ext[self._ind_a] - x_ext[self._ind_b]

    def _solver(self, dt: float) -> LinearSolver:
        key = (dt, self.method)
        solver = self._solvers.get(key)
        if solver is None:
            base_key = (dt, self.method, self.gmin, self._signature())
            if self.backend == "sparse":
                solver = SparseLinearSolver(
                    self.kernel.base_matrix_sparse_for_key(base_key)
                )
            else:
                solver = LinearSolver(self.kernel.base_matrix_for_key(base_key))
            self._solvers[key] = solver
            if len(self._solvers) > _BASE_CACHE_SIZE:
                self._solvers.popitem(last=False)
            self.lu_factorizations += 1
        else:
            self._solvers.move_to_end(key)
            self.lu_reuse_hits += 1
        return solver

    def _signature(self) -> Tuple[bool, ...]:
        # After ``initialize`` every dynamic element has state, so the
        # signature is uniform: trapezoidal iff the method is "trap".
        trap = self.method == "trap"
        return tuple(trap for _ in self.kernel.dynamic_elements)

    def build_rhs(self, t: float, dt: float, prev_x: np.ndarray) -> np.ndarray:
        """The right-hand side of the step system at ``(t, dt)``.

        Solving ``A(dt) x = build_rhs(...)`` and passing ``x`` to
        :meth:`accept` is exactly one :meth:`step`; the batched transient
        core uses this split to stack the right-hand sides of a whole
        same-matrix group into one multi-column solve.
        """
        ctx = StampContext(
            x=prev_x,
            prev_x=prev_x,
            time=t,
            dt=dt,
            method=self.method,
            gmin=self.gmin,
            prev_state=self._inductor_state_view(),
        )
        return self.kernel.rhs(ctx, cap_i_prev=self._cap_i, cap_trap=self._trap_mask)

    def accept(self, x_new: np.ndarray, dt: float, prev_x: np.ndarray) -> None:
        """Commit a solved step: vectorized companion-state update."""
        kernel = self.kernel
        x_ext = np.append(x_new, 0.0)
        prev_ext = np.append(prev_x, 0.0)
        if self._ncaps:
            dv = (x_ext[kernel._cap_a] - x_ext[kernel._cap_b]) - (
                prev_ext[kernel._cap_a] - prev_ext[kernel._cap_b]
            )
            coeff = np.where(self._trap_mask, 2.0, 1.0) * kernel._cap_c / dt
            i_new = coeff * dv - np.where(self._trap_mask, self._cap_i, 0.0)
            self._cap_i = i_new
        if self._ind_branch.size:
            self._ind_i = x_ext[self._ind_branch].copy()
            self._ind_v = x_ext[self._ind_a] - x_ext[self._ind_b]

    def step(self, t: float, dt: float, prev_x: np.ndarray) -> np.ndarray:
        """Advance one time point and update the companion state."""
        solver = self._solver(dt)
        z = self.build_rhs(t, dt, prev_x)
        x_new = solver.solve(z)
        self.accept(x_new, dt, prev_x)
        return x_new

    def _inductor_state_view(self) -> Dict:
        """Per-element state dicts for the (rare, loop-stamped) inductors."""
        if not self.kernel._inductors:
            return {}
        return {
            element.name: {"i": float(self._ind_i[index]), "v": float(self._ind_v[index])}
            for index, element in enumerate(self.kernel._inductors)
        }


# ---------------------------------------------------------------------------
# Lockstep-lane nonlinear transient core
# ---------------------------------------------------------------------------

@dataclass
class LaneRun:
    """Outcome of one :class:`NonlinearLaneStepper` run, indexed by lane.

    Counters keep the meaning of a single-lane run: ``newton_iterations``
    counts the iterations of each point's accepted attempt,
    ``assemblies_avoided`` the iterations served from the cached base
    matrix, and ``rhs_builds`` one linear right-hand side per attempt.  A
    lane that fails (no rung converged, or a singular system) records its
    exception in ``errors`` and stops stepping; the others carry on.
    """

    solutions: np.ndarray
    newton_iterations: np.ndarray
    assemblies_avoided: np.ndarray
    rhs_builds: np.ndarray
    recoveries: List[List[str]]
    errors: List[Optional[Exception]]


class NonlinearLaneStepper:
    """Damped-Newton stepping of ``lanes`` copies of one circuit in lockstep.

    Lanes differ only in the waveforms of chosen independent sources
    (``waveforms``: one ``{source position in kernel.source_elements:
    waveform}`` mapping per lane) and share the time axis and initial
    state.  Each lane runs exactly the iteration of
    :func:`repro.circuit.dc.newton_solve` (same damping, same convergence
    test, same :data:`RETRY_RUNGS`): a converged lane's iterate freezes
    while the others iterate on, so its waveform, iteration count and
    recoveries equal those of the lane run on its own.

    Per iteration the lanes share the cached base matrix, one
    :class:`~repro.circuit.mosfet.MOSFETBlock` evaluation and one stacked
    ``np.linalg.solve`` (dense) or one ``splu`` per lane (sparse).  The
    dense solve calls the ``solve`` fault hook once, like
    :func:`~repro.circuit.mna.solve_linear_system`; an injected singular
    system fails the whole run.  Nonlinear elements other than plain
    MOSFETs stamp themselves per lane with an empty ``prev_state``; circuits
    with elements that keep state of their own or with custom source
    elements (``kernel.array_state`` false) are not supported.
    """

    def __init__(
        self,
        kernel: CompiledKernel,
        lanes: int = 1,
        *,
        method: str,
        gmin: float,
        backend: str = "dense",
        max_newton: int = 50,
        vtol: float = 1e-6,
        damping: bool = True,
        waveforms: Optional[Sequence[Mapping[int, object]]] = None,
    ):
        if not kernel.array_state:
            raise ValueError(
                "the lane stepper keeps companion state in arrays; circuit "
                f"'{kernel.circuit.name}' has elements with state of their own "
                "or custom sources"
            )
        if backend not in ("dense", "sparse"):
            raise ValueError(
                f"stepper backend must be 'dense' or 'sparse', got '{backend}'"
            )
        self.kernel = kernel
        self.lanes = lanes
        self.method = method
        self.gmin = gmin
        self.backend = backend
        self.max_newton = max_newton
        self.vtol = vtol
        self.damping = damping
        waveforms = list(waveforms) if waveforms is not None else [{}] * lanes
        if len(waveforms) != lanes:
            raise ValueError(f"{len(waveforms)} waveform mappings for {lanes} lanes")

        n = kernel.n
        # Per source: None (one value for every lane) or one waveform per lane.
        self._sources: List[Tuple[Element, Optional[list]]] = []
        for index, element in enumerate(kernel.source_elements):
            per_lane = None
            if any(index in lane for lane in waveforms):
                per_lane = [lane.get(index, element.waveform) for lane in waveforms]
            self._sources.append((element, per_lane))

        self._ind_branch = np.array([e.branch_indices[0] for e in kernel._inductors], dtype=int)
        self._ind_a = np.array(
            [e.nodes[0] if e.nodes[0] != GROUND else n for e in kernel._inductors], dtype=int
        )
        self._ind_b = np.array(
            [e.nodes[1] if e.nodes[1] != GROUND else n for e in kernel._inductors], dtype=int
        )
        self._ind_L = np.array([e.inductance for e in kernel._inductors], dtype=float)
        # Companion right-hand-side scatter: capacitor a-ends, then b-ends.
        self._cap_scatter = np.concatenate((kernel._cap_a, kernel._cap_b))
        self._cap_flat: Dict[int, np.ndarray] = {}
        self._signatures = {
            m: tuple(m == "trap" for _ in kernel.dynamic_elements) for m in ("trap", "be")
        }
        self._coefficients: Dict[Tuple[float, bool], Tuple[np.ndarray, np.ndarray]] = {}
        self._stamps_per_lane = len(kernel.nonlinear_elements)
        self._cap_v = self._cap_i = self._ind_i = self._ind_v = np.zeros((lanes, 0))

    # ---------------------------------------------------------------- run

    def run(self, times: np.ndarray, dts: Sequence[float], x0: np.ndarray) -> LaneRun:
        """Step every lane over ``times`` (``dts[i]`` ends at ``times[i + 1]``)."""
        kernel = self.kernel
        stats = kernel.stats
        B, n = self.lanes, kernel.n
        run = LaneRun(
            solutions=np.zeros((B, len(times), n)),
            newton_iterations=np.zeros(B, dtype=int),
            assemblies_avoided=np.zeros(B, dtype=int),
            rhs_builds=np.zeros(B, dtype=int),
            recoveries=[[] for _ in range(B)],
            errors=[None] * B,
        )
        run.solutions[:, 0] = x0
        # Accepted iterates with a zero ground column; companion state.
        x = np.zeros((B, n + 1))
        x[:, :n] = x0
        self._cap_v = x[:, kernel._cap_a] - x[:, kernel._cap_b]
        self._cap_i = np.zeros_like(self._cap_v)
        self._ind_i = x[:, self._ind_branch]
        self._ind_v = x[:, self._ind_a] - x[:, self._ind_b]
        attempts = ((self.method, self.method, 1, 1.0),) + tuple(
            (name, "be", scale, limit) for name, scale, limit in RETRY_RUNGS
        )
        everyone = np.arange(B)
        alive = everyone
        # Counters are charged per lane as the lanes run one at a time would
        # report them; ``ran`` counts each lane's iterations per attempt.
        ran_total = np.zeros(B, dtype=int)
        lookups = misses = 0

        try:
            for step in range(1, len(times)):
                if not alive.size:
                    break
                t = float(times[step])
                dt = dts[step - 1]
                z_src = self._source_rhs(t)
                # Rows of this attempt: every lane (a slice) or an index array.
                sel = slice(None) if alive.size == B else alive
                for rung, (name, method, scale, limit) in enumerate(attempts):
                    lanes = everyone[sel]
                    trap = method == "trap"
                    z = self._companion_rhs(z_src[sel], sel, dt, trap)
                    base, hit = self._base(dt, method)
                    # The base lookup hits for every lane but a first-ever one.
                    lookups += 1
                    if not hit:
                        misses += 1
                        run.assemblies_avoided[lanes[0]] -= 1
                    budget = self.max_newton * scale
                    x_new, ran, done, errors, last_dx = self._newton(
                        base, z, x[sel], budget=budget, limit=limit,
                        time=t, dt=dt, method=method,
                    )
                    retry = None
                    ran_total[sel] += ran
                    run.rhs_builds[sel] += 1
                    if done is None:
                        run.newton_iterations[sel] += ran
                    else:
                        run.newton_iterations[sel] += ran * done
                        failed = ~done
                        for row, error in errors.items():
                            failed[row] = False
                            run.errors[lanes[row]] = error
                        if rung == len(attempts) - 1:
                            for row in np.flatnonzero(failed):
                                run.errors[lanes[row]] = ConvergenceError(
                                    f"Newton did not converge in {budget} iterations "
                                    f"(last max dV = {last_dx[row]:.3e})"
                                )
                        else:
                            retry = lanes[failed]
                        if failed.any() or errors:
                            alive = None  # recomputed after this point
                        sel, x_new = lanes[done], x_new[done]
                    self._accept(sel, x_new, dt, trap)
                    x[sel] = x_new
                    run.solutions[sel, step] = x_new[:, :n]
                    if rung:
                        for lane in everyone[sel]:
                            run.recoveries[lane].append(f"t={t:.4e}: {name}")
                    if retry is None or not retry.size:
                        break
                    sel = retry
                if alive is None:
                    alive = np.array(
                        [lane for lane in everyone if run.errors[lane] is None], dtype=int
                    )
        finally:
            # Every iteration reuses the attempt's base matrix except a first
            # lookup that had to build it; the lookups counted themselves.
            run.assemblies_avoided += ran_total
            stats.base_hits += int(run.assemblies_avoided.sum()) - (lookups - misses)
            stats.rhs_builds += int(run.rhs_builds.sum())
            stats.nonlinear_stamps += int(ran_total.sum()) * self._stamps_per_lane
        return run

    # ------------------------------------------------------------ internals

    def _source_rhs(self, t: float) -> np.ndarray:
        """Independent-source part of every lane's right-hand side at ``t``."""
        z = np.zeros((self.lanes, self.kernel.n))
        for element, per_lane in self._sources:
            if per_lane is None:
                # ``value()`` scales by ``source_scale``, which is 1 here.
                value = element.waveform(t)
            else:
                value = np.array([waveform(t) for waveform in per_lane])
            if isinstance(element, VoltageSource):
                z[:, element.branch_indices[0]] += value
            else:
                a, b = element.nodes
                if a != GROUND:
                    z[:, a] -= value
                if b != GROUND:
                    z[:, b] += value
        return z

    def _coefficient(self, dt: float, trap: bool) -> Tuple[np.ndarray, np.ndarray]:
        """Companion conductances of the capacitors and inductor resistances."""
        key = (dt, trap)
        cached = self._coefficients.get(key)
        if cached is None:
            factor = 2.0 if trap else 1.0
            cached = (factor * self.kernel._cap_c / dt, factor * self._ind_L / dt)
            self._coefficients[key] = cached
        return cached

    def _companion_rhs(self, z: np.ndarray, sel, dt: float, trap: bool) -> np.ndarray:
        """``z`` plus the capacitor and inductor companion sources of ``sel``."""
        kernel = self.kernel
        geq, req = self._coefficient(dt, trap)
        if kernel._caps:
            ieq = geq * self._cap_v[sel] + (self._cap_i[sel] if trap else 0.0)
            rows = len(z)
            # Sequential bincount: each node sums its a-end, then b-end
            # contributions in capacitor order, as the scalar path does.
            flat = self._cap_flat.get(rows)
            if flat is None:
                flat = (np.arange(rows)[:, None] * (kernel.n + 1) + self._cap_scatter).ravel()
                self._cap_flat[rows] = flat
            z_ext = np.bincount(
                flat,
                weights=np.concatenate((ieq, -ieq), axis=1).ravel(),
                minlength=rows * (kernel.n + 1),
            )
            z = z + z_ext.reshape(rows, kernel.n + 1)[:, : kernel.n]
        else:
            z = z.copy()
        if self._ind_branch.size:
            ind_i = self._ind_i[sel]
            veq = req * ind_i + self._ind_v[sel] if trap else req * ind_i
            z[:, self._ind_branch] += -veq
        return z

    def _accept(self, sel, x_new: np.ndarray, dt: float, trap: bool) -> None:
        """Commit accepted iterates: the companion-state update of each lane.

        Mirrors ``Capacitor.update_state`` / ``Inductor.update_state``
        operation for operation.
        """
        kernel = self.kernel
        if kernel._caps:
            coeff, _ = self._coefficient(dt, trap)
            v_new = x_new[:, kernel._cap_a] - x_new[:, kernel._cap_b]
            i_new = coeff * (v_new - self._cap_v[sel]) - (self._cap_i[sel] if trap else 0.0)
            self._cap_v[sel] = v_new
            self._cap_i[sel] = i_new
        if self._ind_branch.size:
            self._ind_i[sel] = x_new[:, self._ind_branch]
            self._ind_v[sel] = x_new[:, self._ind_a] - x_new[:, self._ind_b]

    def _base(self, dt: float, method: str):
        """The attempt's shared base matrix and whether the cache held it."""
        kernel = self.kernel
        key = (dt, method, self.gmin, self._signatures[method])
        hits = kernel.stats.base_hits
        if self.backend == "sparse":
            base = kernel.base_matrix_sparse_for_key(key)
        else:
            base = kernel.base_matrix_for_key(key)
        return base, kernel.stats.base_hits != hits

    def _newton(self, base, z, x0, *, budget, limit, **point):
        """Lockstep damped Newton from the iterates ``x0`` (with ground column).

        Every row is assembled and solved each iteration -- one stacked
        solve costs about the same for any row count -- but a row's iterate
        only moves while it is active, so converged rows stay exactly where
        a lone run would have stopped.  Returns ``(x, ran, done, errors,
        last_dx)``: final iterates, iterations each row ran, the converged
        rows, ``{row: SingularMatrixError}`` and the last update norms.
        When every row converged in the same iteration ``ran`` is that
        count and ``done`` is ``None``.
        """
        kernel = self.kernel
        n = kernel.n
        rows = len(x0)
        x = x0.copy()
        prev = x0[:, :n]
        errors: Dict[int, Exception] = {}
        active = ran = None
        for iteration in range(1, budget + 1):
            za = z.copy()
            systems = self._assemble(base, za, x, prev, **point)
            x_new, failed = self._solve(systems, za)
            xn = x[:, :n]
            dx = x_new - xn
            max_dx = np.abs(dx).max(axis=1)
            peak = max_dx.max()
            if failed or not peak < np.inf:
                for row in np.flatnonzero(~(max_dx < np.inf)):
                    failed.setdefault(
                        int(row), SingularMatrixError("solution contains non-finite values")
                    )
                for row in failed:
                    x_new[row] = xn[row]
                    dx[row] = max_dx[row] = 0.0
                peak = max_dx.max()
            if self.damping and peak > limit:
                damp = max_dx > limit
                x_new[damp] = xn[damp] + dx[damp] * (limit / max_dx[damp])[:, None]
            if iteration == 1 and max_dx.min() < self.vtol:
                # A first update below vtol only converges when the residual
                # at the starting iterate is small as well.
                converged = max_dx < self.vtol
                hit = np.flatnonzero(converged)
                if isinstance(systems, np.ndarray):
                    product = np.matmul(systems[hit], xn[hit, :, None])[:, :, 0]
                else:
                    product = np.array([systems[row] @ xn[row] for row in hit])
                worst = np.abs((product - za[hit])[:, : kernel.num_nodes]).max(axis=1)
                converged[hit] = worst < np.maximum(1e-9, 1e-6 * (1.0 + worst))
                every = converged.all()
            else:
                converged = None
                every = peak < self.vtol
            if active is None and not failed:
                if every:
                    x[:, :n] = x_new
                    return x, iteration, None, errors, max_dx
                if converged is None and (rows == 1 or not max_dx.min() < self.vtol):
                    # Nobody converged: the rows keep moving together.
                    x[:, :n] = x_new
                    continue
            if converged is None:
                converged = max_dx < self.vtol
            if active is None:
                active = np.ones(rows, dtype=bool)
                ran = np.full(rows, iteration - 1)
            ran += active
            for row, error in failed.items():
                if active[row]:
                    errors[row] = error
                    active[row] = False
            np.copyto(xn, x_new, where=active[:, None])
            active &= ~converged
            if not active.any():
                break
        if active is None:  # the budget ran out with every row still moving
            return x, np.full(rows, budget), np.zeros(rows, dtype=bool), errors, max_dx
        done = ~active
        for row in errors:
            done[row] = False
        return x, ran, done, errors, max_dx

    def _assemble(self, base, z: np.ndarray, xa: np.ndarray, prev: np.ndarray, **point):
        """Per-lane systems at the iterates ``xa`` (with ground column).

        Returns a stacked ``(lanes, n, n)`` array (dense) or a list of CSC
        matrices (sparse); ``z`` is stamped in place.  Dense systems stamp
        plain MOSFETs through the kernel's block; every other nonlinear
        element (all of them, for sparse systems) stamps itself per lane.
        """
        kernel = self.kernel
        n = kernel.n
        block = kernel.mosfet_block
        dense = self.backend == "dense"
        looped = kernel.looped_nonlinear if dense else kernel.nonlinear_elements
        ctxs = [
            StampContext(x=xa[row, :n], prev_x=prev[row], gmin=self.gmin, **point)
            for row in range(len(xa))
        ] if looped else []
        if dense:
            A = np.repeat(base[None], len(xa), axis=0)
            if block is not None:
                block.stamp(A, z, xa)
            for row, ctx in enumerate(ctxs):
                for element in looped:
                    element.stamp(A[row], z[row], ctx)
            return A
        systems = []
        for row, ctx in enumerate(ctxs or [None] * len(xa)):
            coo = _COOMatrix()
            for element in looped:
                element.stamp(coo, z[row], ctx)
            delta = _sparse.coo_matrix(
                (np.array(coo.vals, dtype=float),
                 (np.array(coo.rows, dtype=int), np.array(coo.cols, dtype=int))),
                shape=base.shape,
            )
            systems.append(base + delta.tocsc())
        return systems

    def _solve(self, systems, z: np.ndarray) -> Tuple[np.ndarray, Dict[int, Exception]]:
        """Solve every lane's system; returns ``(x, {row: error})``.

        Non-finite solutions are left for the caller to screen.
        """
        failed: Dict[int, Exception] = {}
        if self.backend == "sparse":
            x = np.zeros_like(z)
            for row, A in enumerate(systems):
                try:
                    x[row] = SparseLinearSolver(A).solve(z[row])
                except SingularMatrixError as exc:
                    failed[row] = exc
            return x, failed
        # The stacked solve is one dense factorisation site, hooked like
        # solve_linear_system so fault plans keep reaching it.
        if faults.fire("solve") == "singular":
            raise SingularMatrixError("injected singular matrix [fault plan]")
        try:
            return np.linalg.solve(systems, z[..., None])[..., 0], failed
        except np.linalg.LinAlgError:
            pass
        # Isolate the singular lanes; the others keep their solutions.
        x = np.zeros_like(z)
        for row in range(len(z)):
            try:
                x[row] = np.linalg.solve(systems[row], z[row])
            except np.linalg.LinAlgError as exc:
                failed[row] = SingularMatrixError(str(exc))
        return x, failed

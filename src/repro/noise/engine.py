"""The dedicated noise-cluster macromodel engine.

The paper argues that because the cluster macromodel is "a simple circuit,
the total noise waveform can be accurately and efficiently computed by means
of a dedicated engine embedded into the noise analysis tool".  This module is
that engine: a small, node-voltage-only non-linear transient solver
specialised for the macromodel topology of Figure 1:

* linear conductances and capacitances (the reduced coupled interconnect and
  the receiver loads),
* Norton-transformed Thevenin aggressor drivers (a conductance plus a
  time-dependent current source),
* one or more non-linear current sources (the victim driver's table VCCS,
  whose input voltage is a known waveform).

Compared with the general-purpose MNA simulator in :mod:`repro.circuit`, this
engine has no branch currents, pre-assembles the constant part of the
Jacobian once per time step size, and evaluates only the few non-linear
sources per Newton iteration -- this is where the paper's reported speed-up
over full circuit simulation comes from.

A coupled-pi macromodel has about 25 unknowns, so each Newton iteration is
a few microseconds of arithmetic wrapped in call overhead, and the loop is
written to keep that overhead small without touching the arithmetic:

* the constant base ``G + (2/dt) C`` is factorised once per run (or taken
  from a session :class:`~repro.circuit.batched.FactorizationCache`) and
  back-substituted with LAPACK ``getrs`` called directly
  (:class:`~repro.circuit.stamping.LinearSolver`);
* the nonlinear sources enter as a rank-k Woodbury correction whose k x k
  system goes straight to LAPACK ``gesv`` (``_corrected_solve``);
* the time-dependent sources are tabulated once per run over the time axis
  (:meth:`MacromodelNetwork.source_table`).

Waveforms, DC points and every :class:`EngineStatistics` counter are equal
byte for byte to the straightforward loop (``lu_solve``,
``np.linalg.solve``, ``source_vector`` per step), which
``tests/noise/reference_engine.py`` keeps as the differential oracle.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import get_lapack_funcs

from .. import faults
from ..circuit.batched import FactorizationCache
from ..circuit.mna import solve_linear_system
from ..circuit.netlist import Circuit
from ..circuit.stamping import (
    LinearSolver,
    SingularMatrixError,
    SparseLinearSolver,
    resolve_backend,
)
from ..circuit.transient import _quantize_dt
from ..characterization.thevenin import TheveninDriverModel
from ..interconnect.rcnetwork import CoupledRCNetwork
from ..waveform import Waveform

__all__ = [
    "MacromodelNetwork",
    "DedicatedNoiseEngine",
    "EngineStatistics",
    "fixed_step_axis",
]


#: Type of a non-linear source callback: ``func(t, v) -> (i_injected, di/dv)``.
NonlinearSource = Callable[[float, float], Tuple[float, float]]

#: Type of a time-dependent current source callback: ``func(t) -> i_injected``.
TimeSource = Callable[[float], float]


class MacromodelNetwork:
    """A node-voltage-only dynamic network (the macromodel of Figure 1)."""

    def __init__(self, name: str = "macromodel"):
        self.name = name
        self._node_names: List[str] = []
        self._node_index: Dict[str, int] = {}
        self._conductances: List[Tuple[int, int, float]] = []
        self._capacitances: List[Tuple[int, int, float]] = []
        #: time-dependent current sources: (node, func(t)) injecting into node.
        self._sources: List[Tuple[int, TimeSource]] = []
        #: non-linear sources: (node, func(t, v_node)) injecting into node.
        self._nonlinear: List[Tuple[int, NonlinearSource]] = []

    # ------------------------------------------------------------------ nodes

    def node(self, name: str) -> int:
        norm = Circuit.canonical_node_name(name)
        if norm == "0":
            return -1
        if norm not in self._node_index:
            self._node_index[norm] = len(self._node_names)
            self._node_names.append(norm)
        return self._node_index[norm]

    def node_index(self, name: str) -> int:
        norm = Circuit.canonical_node_name(name)
        if norm == "0":
            return -1
        return self._node_index[norm]

    @property
    def node_names(self) -> List[str]:
        return list(self._node_names)

    @property
    def num_nodes(self) -> int:
        return len(self._node_names)

    # ---------------------------------------------------------------- elements

    def add_conductance(self, a: str, b: str, conductance: float) -> None:
        if conductance < 0:
            raise ValueError("conductance must be non-negative")
        self._conductances.append((self.node(a), self.node(b), conductance))

    def add_resistance(self, a: str, b: str, resistance: float) -> None:
        if resistance <= 0:
            raise ValueError("resistance must be positive")
        self.add_conductance(a, b, 1.0 / resistance)

    def add_capacitance(self, a: str, b: str, capacitance: float) -> None:
        if capacitance < 0:
            raise ValueError("capacitance must be non-negative")
        if capacitance == 0.0:
            return
        self._capacitances.append((self.node(a), self.node(b), capacitance))

    def add_current_source(self, node: str, source: TimeSource) -> None:
        """A current source injecting ``source(t)`` amperes into ``node``."""
        self._sources.append((self.node(node), source))

    def add_nonlinear_source(self, node: str, source: NonlinearSource) -> None:
        """A non-linear source injecting ``source(t, v_node)[0]`` into ``node``."""
        self._nonlinear.append((self.node(node), source))

    def add_thevenin_driver(
        self,
        node: str,
        model: TheveninDriverModel,
        *,
        extra_delay: float = 0.0,
    ) -> None:
        """Attach a Thevenin (ramp + R) driver as its Norton equivalent."""
        conductance = 1.0 / model.resistance
        ramp = model.ramp(extra_delay)
        self.add_conductance(node, "0", conductance)
        self.add_current_source(node, lambda t, _r=ramp, _g=conductance: _r(t) * _g)

    def add_holding_resistor(self, node: str, resistance: float, level: float) -> None:
        """A linear holding driver: resistance to a fixed voltage ``level``."""
        conductance = 1.0 / resistance
        self.add_conductance(node, "0", conductance)
        if level != 0.0:
            self.add_current_source(node, lambda _t, _i=level * conductance: _i)

    def import_rc_network(self, network: CoupledRCNetwork) -> None:
        """Copy all R/C elements of a (possibly reduced) wiring network."""
        for element in network.elements:
            if element.kind == "R":
                self.add_resistance(element.node_a, element.node_b, element.value)
            else:
                self.add_capacitance(element.node_a, element.node_b, element.value)

    # ---------------------------------------------------------------- matrices

    @staticmethod
    def _nodal_coo(triples) -> Tuple[List[int], List[int], List[float]]:
        """Two-terminal nodal stamps of ``(a, b, value)`` triples as COO.

        The single authoritative expansion both the dense and the sparse
        matrix builders scatter from -- one edit changes both, so the
        backends cannot drift apart.
        """
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        for a, b, value in triples:
            if a >= 0:
                rows.append(a)
                cols.append(a)
                vals.append(value)
            if b >= 0:
                rows.append(b)
                cols.append(b)
                vals.append(value)
            if a >= 0 and b >= 0:
                rows.extend((a, b))
                cols.extend((b, a))
                vals.extend((-value, -value))
        return rows, cols, vals

    def build_matrices(self) -> Tuple[np.ndarray, np.ndarray]:
        """Assemble the nodal conductance and capacitance matrices."""
        n = self.num_nodes
        G = np.zeros((n, n))
        C = np.zeros((n, n))
        for matrix, triples in ((G, self._conductances), (C, self._capacitances)):
            rows, cols, vals = self._nodal_coo(triples)
            np.add.at(matrix, (rows, cols), vals)
        return G, C

    def build_matrices_sparse(self):
        """Sparse (CSC) twins of :meth:`build_matrices`.

        Assembled straight from the element triples -- the dense ``n x n``
        arrays are never materialised, which is what lets the engine's
        sparse backend handle ``reduction="full"`` macromodels with
        thousands of RC nodes.
        """
        from scipy import sparse

        n = self.num_nodes
        matrices = []
        for triples in (self._conductances, self._capacitances):
            rows, cols, vals = self._nodal_coo(triples)
            matrices.append(
                sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()
            )
        return matrices[0], matrices[1]

    def fingerprint(self) -> str:
        """Content hash of the linear part: node count plus G/C triples.

        Sources (time-dependent and nonlinear) are deliberately excluded --
        they only enter the right-hand side and the rank-k Newton
        correction, never the factorised base matrix.  Two networks with
        equal fingerprints (and equal gmin) therefore produce bit-identical
        ``G``/``C`` matrices, which is what makes the fingerprint a safe
        :class:`~repro.circuit.batched.FactorizationCache` key.
        """
        digest = hashlib.sha1()
        digest.update(np.int64(self.num_nodes).tobytes())
        for triples in (self._conductances, self._capacitances):
            arr = np.array(triples, dtype=np.float64).reshape(-1, 3)
            digest.update(arr.tobytes())
            digest.update(b"|")
        return digest.hexdigest()

    def source_vector(self, t: float) -> np.ndarray:
        """Currents injected by the time-dependent sources at time ``t``."""
        vector = np.zeros(self.num_nodes)
        for node, source in self._sources:
            if node >= 0:
                vector[node] += source(t)
        return vector

    def source_table(self, times: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`source_vector` at every time of ``times``, driven nodes only.

        Returns ``(nodes, table)``: ``table[i, j]`` is the current injected
        into ``nodes[j]`` at ``times[i]``, summed source by source in the
        order :meth:`source_vector` uses, so ``source_vector(times[i])``
        equals ``table[i]`` at ``nodes`` bit for bit and is zero elsewhere.
        The table holds one column per distinct driven node, not one per
        network node, so large ``reduction="full"`` networks stay cheap.
        """
        columns: Dict[int, int] = {}
        for node, _ in self._sources:
            if node >= 0:
                columns.setdefault(node, len(columns))
        table = np.zeros((len(times), len(columns)))
        for node, source in self._sources:
            if node >= 0:
                table[:, columns[node]] += [source(t) for t in times]
        return np.array(list(columns), dtype=int), table

    @property
    def time_sources(self) -> List[Tuple[int, TimeSource]]:
        """Node-index / callable pairs of the time-dependent current sources.

        This is the per-source view of :meth:`source_vector`; the reduced
        engine uses it to project each injection site onto its Krylov basis
        once instead of rebuilding an ``n``-sized vector every step.
        """
        return list(self._sources)

    @property
    def nonlinear_sources(self) -> List[Tuple[int, NonlinearSource]]:
        return list(self._nonlinear)

    def __repr__(self) -> str:
        return (
            f"MacromodelNetwork({self.name!r}, {self.num_nodes} nodes, "
            f"{len(self._conductances)} G, {len(self._capacitances)} C, "
            f"{len(self._sources)} sources, {len(self._nonlinear)} non-linear)"
        )


def fixed_step_axis(t_stop: float, dt: float) -> Tuple[np.ndarray, float]:
    """The uniform time axis of a fixed-step run and the step that spans it.

    The axis has ``round(t_stop / dt)`` equal steps ending at ``t_stop``.
    When ``dt`` does not divide ``t_stop``, integrating with ``dt`` while
    reporting on that axis would stretch the waveform in time, so the axis
    step ``t_stop / num_steps`` is returned instead.  Within a relative
    1e-9 of an exact fit ``dt`` itself is kept: runs whose ``dt`` divides
    ``t_stop`` up to rounding keep their companion matrices, and with them
    their factorization cache keys, bit for bit.
    """
    num_steps = int(round(t_stop / dt))
    times = np.linspace(0.0, t_stop, num_steps + 1)
    if abs(num_steps * dt - t_stop) > 1e-9 * t_stop:
        dt = t_stop / num_steps
    return times, dt


class _NewtonBasis(NamedTuple):
    """Per-run constants of the rank-k corrected solve (see ``_corrected_solve``)."""

    solver: object
    base: object
    nodes: np.ndarray
    W: np.ndarray
    W_nodes: np.ndarray
    identity: np.ndarray
    gesv: Callable


@dataclass
class EngineStatistics:
    """Bookkeeping of one engine run (used by the speed-up benchmark).

    Besides the classical time-point / Newton counters this carries the
    kernel-level perf counters introduced with the vectorized MNA assembly:
    how many full matrix assemblies were *avoided* (served from a cached
    base matrix or a constant Jacobian), how often an existing LU
    factorization was reused, and how many factorizations were computed.
    """

    num_time_points: int = 0
    newton_iterations: int = 0
    runtime_seconds: float = 0.0
    assemblies_avoided: int = 0
    lu_reuse_hits: int = 0
    matrix_factorizations: int = 0
    fast_path_runs: int = 0
    #: Factorizations answered by a shared session cache instead of computed.
    factorizations_saved: int = 0
    #: Stacked multi-RHS solves (the Newton basis columns are solved in one
    #: BLAS call instead of one call per nonlinear node).
    batched_solves: int = 0

    def merge(self, other: "EngineStatistics") -> "EngineStatistics":
        """Accumulate another run's counters into this one (returns self)."""
        self.num_time_points += other.num_time_points
        self.newton_iterations += other.newton_iterations
        self.runtime_seconds += other.runtime_seconds
        self.assemblies_avoided += other.assemblies_avoided
        self.lu_reuse_hits += other.lu_reuse_hits
        self.matrix_factorizations += other.matrix_factorizations
        self.fast_path_runs += other.fast_path_runs
        self.factorizations_saved += other.factorizations_saved
        self.batched_solves += other.batched_solves
        return self


class DedicatedNoiseEngine:
    """Fixed-step trapezoidal integrator specialised for macromodel networks."""

    def __init__(
        self,
        network: MacromodelNetwork,
        *,
        gmin: float = 1e-9,
        newton_tolerance: float = 1e-7,
        max_newton_iterations: int = 40,
        damping_limit: float = 1.0,
        solver_backend: str = "auto",
        solver_cache: Optional[FactorizationCache] = None,
    ):
        self.network = network
        self.gmin = gmin
        self.newton_tolerance = newton_tolerance
        self.max_newton_iterations = max_newton_iterations
        #: Maximum per-iteration change of any node voltage (volts); caps the
        #: Newton step so table-VCCS corners cannot throw the iterate far
        #: outside the characterised range.
        self.damping_limit = damping_limit
        #: Backend the engine actually runs.  On the sparse side G and C are
        #: assembled as CSC straight from the element triples (never a dense
        #: n x n array) and the constant systems factorise with scipy.sparse
        #: splu -- the win for reduction="full" macromodels that keep
        #: thousands of RC nodes.  The table-VCCS Newton loop holds the
        #: backend end to end: the nonlinear sources enter as a rank-k
        #: diagonal correction solved through the factorised linear base
        #: (Woodbury identity), so nonlinear networks no longer demote to
        #: dense.
        self.resolved_backend = resolve_backend(solver_backend, network.num_nodes)
        #: Optional session-shared :class:`FactorizationCache`; when present,
        #: structurally identical engines (Monte Carlo samples of one
        #: cluster) factorise their base matrices once per session.
        self.solver_cache = solver_cache
        self.statistics = EngineStatistics()
        n = network.num_nodes
        if self.resolved_backend == "sparse":
            from scipy import sparse

            G, C = network.build_matrices_sparse()
            self._G = (G + gmin * sparse.identity(n, format="csc")).tocsc()
            self._C = C
        else:
            self._G, self._C = network.build_matrices()
            self._G[np.arange(n), np.arange(n)] += gmin
        # Content hash of the matrices just built (the cache key component);
        # later network mutations do not reach _G/_C, so hash now, once.
        self._fingerprint = network.fingerprint()

    # ------------------------------------------------------- solver acquisition

    def _acquire_solver(self, matrix, dt_key: Optional[float]):
        """A factorization of ``matrix``, via the session cache when present.

        The injected-singular fault hook fires *before* the cache lookup
        (dense acquisitions only, matching the dense-factorisation semantics
        of the ``solve`` fault site), so a warm cache can never suppress a
        planned fault drill.
        """
        dense = isinstance(matrix, np.ndarray)
        if dense and faults.fire("solve") == "singular":
            raise SingularMatrixError("injected singular matrix [fault plan]")

        def build():
            return LinearSolver(matrix) if dense else SparseLinearSolver(matrix)

        if self.solver_cache is None:
            self.statistics.matrix_factorizations += 1
            return build()
        key = (
            "engine",
            self._fingerprint,
            dt_key,
            repr(self.gmin),
            self.resolved_backend,
        )
        solver, hit = self.solver_cache.solver(key, build)
        if hit:
            self.statistics.factorizations_saved += 1
        else:
            self.statistics.matrix_factorizations += 1
        return solver

    def _newton_basis(self, solver, base, nodes: np.ndarray) -> "_NewtonBasis":
        """The per-run constants of the rank-k corrected solve through ``base``.

        ``W = A^-1 E`` for the identity columns at the nonlinear nodes comes
        from one stacked multi-RHS solve for all nonlinear nodes at once --
        the per-iteration Woodbury correction then needs only a k x k solve.
        """
        n = self.network.num_nodes
        W = np.zeros((n, 0))
        if nodes.size:
            E = np.zeros((n, nodes.size))
            E[nodes, np.arange(nodes.size)] = 1.0
            W = np.asarray(solver.solve(E))
            self.statistics.batched_solves += 1
            if self.solver_cache is not None:
                self.solver_cache.record_stacked_solves()
        identity = np.eye(nodes.size)
        (gesv,) = get_lapack_funcs(("gesv",), (identity,))
        return _NewtonBasis(solver, base, nodes, W, W[nodes, :], identity, gesv)

    def _explicit_jacobian(self, base, nodes: np.ndarray, didv: np.ndarray):
        """``base`` minus the diagonal di/dv correction, assembled explicitly."""
        if isinstance(base, np.ndarray):
            jacobian = base.copy()
            jacobian[nodes, nodes] -= didv
            return jacobian
        from scipy import sparse

        delta = sparse.coo_matrix((-didv, (nodes, nodes)), shape=base.shape)
        return (base + delta).tocsc()

    def _corrected_solve(
        self, basis: "_NewtonBasis", didv: np.ndarray, rhs: np.ndarray
    ) -> Tuple[np.ndarray, float]:
        """Solve ``(A - E diag(didv) E^T) x = rhs`` through ``A``'s factors.

        Woodbury identity in the form that tolerates ``didv = 0`` entries:
        with ``y = A^-1 rhs`` and ``W = A^-1 E``, solve the k x k system
        ``(I - diag(didv) W_kk) u = didv * y_k`` and return ``y + W u``.
        When the k x k system is itself singular (a table-VCCS corner can
        cancel the diagonal exactly; LAPACK ``gesv`` reports ``info > 0``),
        fall back to assembling the corrected Jacobian and solving it
        directly.  Returns ``x`` with ``max |x|``, which doubles as the
        finite check here and as the Newton step size for damping.
        """
        y = basis.solver.solve(rhs)
        if np.count_nonzero(didv):
            m = basis.identity - didv[:, np.newaxis] * basis.W_nodes
            _, _, u, info = basis.gesv(m, didv * y[basis.nodes])
            if info == 0:
                x = y + basis.W @ u
                max_dx = float(np.abs(x).max())
                if math.isfinite(max_dx):
                    return x, max_dx
            y = solve_linear_system(
                self._explicit_jacobian(basis.base, basis.nodes, didv), rhs
            )
        return y, float(np.abs(y).max()) if y.size else 0.0

    def _newton_step(
        self, basis: "_NewtonBasis", nonlinear, t: float, v: np.ndarray, residual: np.ndarray
    ) -> float:
        """One damped Newton update of ``v`` in place; returns ``max |dv|``.

        ``residual`` is the linear part of the residual at ``v``; the
        nonlinear sources are evaluated at ``v`` and folded into it and
        into the rank-k Jacobian correction.
        """
        didv_sum = np.zeros(basis.nodes.size)
        for node, slot, func in nonlinear:
            current, didv = func(t, float(v[node]))
            residual[node] -= current
            didv_sum[slot] += didv
        dv, max_dv = self._corrected_solve(basis, didv_sum, -residual)
        if max_dv > self.damping_limit:
            dv *= self.damping_limit / max_dv
        v += dv
        return max_dv

    def _nonlinear_support(self):
        """Distinct non-ground nonlinear nodes, and ``(node, slot, func)`` triples.

        The triples keep the network's source order (the accumulation
        order of the residual and of ``di/dv``) and drop grounded sources.
        """
        nonlinear = [(node, func) for node, func in self.network.nonlinear_sources if node >= 0]
        nodes = sorted({node for node, _ in nonlinear})
        slot = {node: i for i, node in enumerate(nodes)}
        triples = [(node, slot[node], func) for node, func in nonlinear]
        return np.array(nodes, dtype=int), triples

    # ---------------------------------------------------------------- DC solve

    def dc_solve(self, t: float = 0.0, v0: Optional[np.ndarray] = None) -> np.ndarray:
        """Quiescent operating point of the macromodel at time ``t``."""
        n = self.network.num_nodes
        v = np.zeros(n) if v0 is None else np.array(v0, dtype=float, copy=True)
        sources = self.network.source_vector(t)
        if not self.network.nonlinear_sources:
            # Purely linear: the Jacobian is G itself; no factorization is
            # worth caching for the two iterations the loop needs.
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

        nodes, nonlinear = self._nonlinear_support()
        basis = self._newton_basis(self._acquire_solver(self._G, None), self._G, nodes)
        for _ in range(self.max_newton_iterations):
            max_dv = self._newton_step(basis, nonlinear, t, v, self._G @ v - sources)
            self.statistics.newton_iterations += 1
            if max_dv < self.newton_tolerance:
                break
        return v

    # --------------------------------------------------------------- transient

    def simulate(
        self,
        t_stop: float,
        dt: float,
        *,
        v0: Optional[np.ndarray] = None,
        observe: Optional[Sequence[str]] = None,
    ) -> Dict[str, Waveform]:
        """Integrate the macromodel from 0 to ``t_stop`` with step ``dt``.

        Returns waveforms of the observed nodes (all nodes by default).
        The integration is trapezoidal with a Newton solve per time point;
        the constant part of the Jacobian ``G + (2/dt) C`` is assembled once.
        The step actually integrated is that of the uniform output axis (see
        :func:`fixed_step_axis`).
        """
        if t_stop <= 0 or dt <= 0 or dt > t_stop:
            raise ValueError("invalid t_stop/dt combination")
        start_time = time.perf_counter()

        n = self.network.num_nodes
        times, dt = fixed_step_axis(t_stop, dt)

        v = self.dc_solve(0.0, v0)
        results = np.zeros((len(times), n))
        results[0] = v
        cap_current = np.zeros(n)  # C dv/dt, zero in the quiescent state

        a_const = self._G + (2.0 / dt) * self._C
        two_c_over_dt = (2.0 / dt) * self._C
        dt_key = _quantize_dt(dt)
        step_times = times[1:].tolist()
        source_nodes, source_table = self.network.source_table(step_times)
        source_vector = np.zeros(n)

        total_newton = 0
        # The trapezoidal system matrix G + (2/dt) C is constant for the
        # whole run on *both* paths: the linear path reduces every time point
        # to a back-substitution, and the Newton path folds the table-VCCS
        # sources into a rank-k diagonal correction solved through the same
        # factorization (see _corrected_solve) -- one factorization per run,
        # dense or sparse alike.
        basis = None
        if not self.network.nonlinear_sources:
            linear_solver = self._acquire_solver(a_const, dt_key)
            self.statistics.fast_path_runs += 1
        else:
            nodes, nonlinear = self._nonlinear_support()
            basis = self._newton_basis(self._acquire_solver(a_const, dt_key), a_const, nodes)

        statistics = self.statistics
        max_newton, tolerance = self.max_newton_iterations, self.newton_tolerance
        for step, t in enumerate(step_times, start=1):
            source_vector[source_nodes] = source_table[step - 1]
            rhs_const = two_c_over_dt @ v + cap_current + source_vector
            if basis is None:
                v_new = linear_solver.solve(rhs_const)
                if step > 1:
                    # The first solve pays for the factorization; every later
                    # step reuses it (same convention as the circuit-level
                    # LinearTransientStepper).
                    statistics.lu_reuse_hits += 1
            else:
                v_new = v.copy()
                for _ in range(max_newton):
                    # The constant Jacobian base is never reassembled (nor
                    # even copied): each iteration only re-evaluates the few
                    # nonlinear sources and solves through the shared
                    # factorization.
                    statistics.assemblies_avoided += 1
                    max_dv = self._newton_step(
                        basis, nonlinear, t, v_new, a_const @ v_new - rhs_const
                    )
                    total_newton += 1
                    if max_dv < tolerance:
                        break
            cap_current = two_c_over_dt @ (v_new - v) - cap_current
            v = v_new
            results[step] = v

        self.statistics.num_time_points += len(times) - 1
        self.statistics.newton_iterations += total_newton
        self.statistics.runtime_seconds += time.perf_counter() - start_time

        names = self.network.node_names
        observe_set = set(Circuit.canonical_node_name(o) for o in observe) if observe else None
        waveforms: Dict[str, Waveform] = {}
        for index, name in enumerate(names):
            if observe_set is not None and name not in observe_set:
                continue
            waveforms[name] = Waveform(times, results[:, index])
        return waveforms

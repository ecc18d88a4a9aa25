"""Differential batched-vs-sequential verification suite.

The sequential :func:`~repro.circuit.transient.transient` path is the test
oracle; this suite drives :class:`~repro.circuit.batched.BatchedTransientSolver`
against it on property-based random linear RC networks.  Agreement is
required at 1e-12 V -- the stacked triangular solve is the same LAPACK
routine applied column by column, so batching must be numerically invisible.
Also covers the grouping/fallback logic, the FactorizationCache LRU and the
LRU bound on the stepper's per-(dt, method) solver cache.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Circuit, SaturatedRamp, transient
from repro.circuit.mosfet import MOSFETParams
from repro.circuit.batched import (
    BATCHING_MODES,
    BatchedTransientSolver,
    FactorizationCache,
    TransientJob,
)
from repro.circuit.stamping import _BASE_CACHE_SIZE, LinearSolver, LinearTransientStepper
from repro.units import fF, ps

#: Batched and sequential must agree to this tolerance on every path.
MAX_DV = 1e-12


# ---------------------------------------------------------------------------
# Builders: same-topology scenario families (only source/element values vary)
# ---------------------------------------------------------------------------

def rc_chain(seed, num_nodes, amplitude, *, couple=True, name=None):
    """A deterministic RC chain whose *drive amplitude* varies per scenario.

    Every circuit built with the same ``(seed, num_nodes, couple)`` shares
    one COO pattern and one set of static stamp values -- the Monte-Carlo
    shape the batched core groups on -- while ``amplitude`` only moves the
    right-hand side.
    """
    rng = np.random.default_rng(seed)
    circuit = Circuit(name or f"chain_{seed}_{num_nodes}_{amplitude:.6f}")
    circuit.add_voltage_source(
        "VTH",
        "drv",
        "0",
        SaturatedRamp(
            0.0,
            amplitude,
            delay=ps(float(rng.uniform(10, 40))),
            transition=ps(float(rng.uniform(20, 60))),
        ),
    )
    circuit.add_resistor("RTH", "drv", "n0", float(rng.uniform(50, 300)))
    for i in range(num_nodes - 1):
        circuit.add_resistor(f"R{i}", f"n{i}", f"n{i + 1}", float(rng.uniform(30, 250)))
        circuit.add_capacitor(
            f"C{i}", f"n{i + 1}", "0", float(rng.uniform(0.5, 4.0)) * fF(1)
        )
    if couple and num_nodes >= 3:
        circuit.add_capacitor("CX", "n0", f"n{num_nodes - 1}", fF(1.5))
    circuit.add_resistor("RHOLD", f"n{num_nodes - 1}", "0", 5e4)
    return circuit


_NMOS = MOSFETParams(polarity="n", vto=0.35, kp=3e-4, lambda_=0.06)


def nonlinear_chain(amplitude):
    """A chain with a MOSFET load (nonlinear: must fall back to sequential)."""
    circuit = rc_chain(7, 4, amplitude, name=f"nl_{amplitude:.6f}")
    circuit.add_voltage_source("VDD", "vdd", "0", 1.2)
    circuit.add_resistor("RL", "vdd", "out", 2e3)
    circuit.add_mosfet("MN", "out", "n3", "0", _NMOS, w=1e-6)
    circuit.add_capacitor("CL", "out", "0", fF(2))
    return circuit


def _max_diff(a, b):
    assert a.times.shape == b.times.shape
    np.testing.assert_array_equal(a.times, b.times)
    return float(np.max(np.abs(a.solutions - b.solutions)))


def _run_batched(jobs, **kwargs):
    solver = BatchedTransientSolver(**kwargs)
    return solver, solver.run(jobs)


# ---------------------------------------------------------------------------
# Property-based differential tests
# ---------------------------------------------------------------------------

class TestBatchedMatchesSequential:
    @given(
        seed=st.integers(0, 10_000),
        num_nodes=st.integers(3, 16),
        group_size=st.integers(2, 6),
    )
    @settings(max_examples=25, deadline=None)
    def test_same_topology_group(self, seed, num_nodes, group_size):
        """A Monte-Carlo-style family batches into one group and agrees."""
        rng = np.random.default_rng(seed + 99)
        amplitudes = [float(rng.uniform(0.4, 1.4)) for _ in range(group_size)]
        jobs = [
            TransientJob(rc_chain(seed, num_nodes, a), t_stop=ps(200), dt=ps(2))
            for a in amplitudes
        ]
        solver, results = _run_batched(jobs, backend="dense")
        assert solver.last_run.batch_groups == 1
        assert solver.last_run.batched_jobs == group_size
        assert solver.last_run.sequential_jobs == 0
        for amplitude, result in zip(amplitudes, results):
            reference = transient(
                rc_chain(seed, num_nodes, amplitude),
                t_stop=ps(200),
                dt=ps(2),
                backend="dense",
            )
            assert _max_diff(result, reference) <= MAX_DV

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_mixed_topology_groups(self, seed):
        """Different topologies land in different groups, all still agree."""
        jobs = [
            TransientJob(rc_chain(seed, 4, 0.9), t_stop=ps(150), dt=ps(2)),
            TransientJob(rc_chain(seed, 7, 1.1), t_stop=ps(150), dt=ps(2)),
            TransientJob(rc_chain(seed, 4, 1.2), t_stop=ps(150), dt=ps(2)),
            TransientJob(rc_chain(seed + 1, 4, 0.9, couple=False), t_stop=ps(150), dt=ps(2)),
        ]
        solver, results = _run_batched(jobs, backend="dense")
        assert solver.last_run.batch_groups == 3  # 4-node pair, 7-node, uncoupled
        references = [
            transient(circuit, t_stop=ps(150), dt=ps(2), backend="dense")
            for circuit in (
                rc_chain(seed, 4, 0.9),
                rc_chain(seed, 7, 1.1),
                rc_chain(seed, 4, 1.2),
                rc_chain(seed + 1, 4, 0.9, couple=False),
            )
        ]
        for result, reference in zip(results, references):
            assert _max_diff(result, reference) <= MAX_DV

    @given(seed=st.integers(0, 10_000), method=st.sampled_from(["trap", "be"]))
    @settings(max_examples=15, deadline=None)
    def test_single_member_group_is_bitwise(self, seed, method):
        """A group of one takes the 1-D RHS path: bitwise-equal to sequential."""
        job = TransientJob(
            rc_chain(seed, 5, 1.0), t_stop=ps(120), dt=ps(2), method=method
        )
        solver, (result,) = _run_batched([job], backend="dense")
        assert solver.last_run.batch_groups == 1
        assert solver.last_run.batched_solves == 0  # no stacking for k == 1
        reference = transient(
            rc_chain(seed, 5, 1.0), t_stop=ps(120), dt=ps(2),
            method=method, backend="dense",
        )
        np.testing.assert_array_equal(result.solutions, reference.solutions)

    @given(seed=st.integers(0, 5_000), num_nodes=st.integers(4, 12))
    @settings(max_examples=10, deadline=None)
    def test_sparse_backend_group_agrees(self, seed, num_nodes):
        jobs = [
            TransientJob(rc_chain(seed, num_nodes, a), t_stop=ps(150), dt=ps(2))
            for a in (0.6, 0.9, 1.2)
        ]
        _, results = _run_batched(jobs, backend="sparse")
        for amplitude, result in zip((0.6, 0.9, 1.2), results):
            assert result.stats.backend == "sparse"
            reference = transient(
                rc_chain(seed, num_nodes, amplitude),
                t_stop=ps(150), dt=ps(2), backend="sparse",
            )
            assert _max_diff(result, reference) <= MAX_DV


# ---------------------------------------------------------------------------
# Grouping / fallback logic
# ---------------------------------------------------------------------------

class TestRoutingAndStats:
    def test_nonlinear_jobs_fall_back_to_sequential(self):
        jobs = [
            TransientJob(rc_chain(3, 4, 1.0), t_stop=ps(100), dt=ps(2)),
            TransientJob(nonlinear_chain(1.0), t_stop=ps(100), dt=ps(2)),
            TransientJob(rc_chain(3, 4, 0.8), t_stop=ps(100), dt=ps(2)),
        ]
        solver, results = _run_batched(jobs, backend="dense")
        assert solver.last_run.sequential_jobs == 1
        assert solver.last_run.batched_jobs == 2
        assert len(results) == 3
        nl_reference = transient(
            nonlinear_chain(1.0), t_stop=ps(100), dt=ps(2), backend="dense"
        )
        assert _max_diff(results[1], nl_reference) <= MAX_DV
        assert results[1].stats.newton_iterations > 0

    def test_batching_off_runs_everything_sequentially(self):
        jobs = [
            TransientJob(rc_chain(3, 4, a), t_stop=ps(100), dt=ps(2))
            for a in (0.7, 1.0)
        ]
        solver, results = _run_batched(jobs, backend="dense", batching="off")
        assert solver.last_run.batch_groups == 0
        assert solver.last_run.sequential_jobs == 2
        for a, result in zip((0.7, 1.0), results):
            reference = transient(
                rc_chain(3, 4, a), t_stop=ps(100), dt=ps(2), backend="dense"
            )
            np.testing.assert_array_equal(result.solutions, reference.solutions)

    def test_rejects_unknown_batching_mode(self):
        assert "auto" in BATCHING_MODES and "off" in BATCHING_MODES
        with pytest.raises(ValueError, match="batching"):
            BatchedTransientSolver(batching="maybe")

    def test_group_stats_count_factorizations_saved(self):
        jobs = [
            TransientJob(rc_chain(11, 6, a), t_stop=ps(100), dt=ps(2))
            for a in (0.5, 0.8, 1.1, 1.4)
        ]
        solver, results = _run_batched(jobs, backend="dense")
        stats = solver.last_run
        # One factorization per distinct quantized dt (ramp breakpoints make
        # the axis non-uniform); each is reused by the three other members.
        built = results[0].stats.matrix_factorizations
        assert built >= 1
        assert stats.factorizations_built == built
        assert stats.factorizations_saved == built * 3
        assert stats.batched_solves == len(results[0].times) - 1
        # Per-member stats follow the lead-member convention: only the lead
        # carries the factorization count.
        assert all(r.stats.matrix_factorizations == 0 for r in results[1:])
        assert all(r.stats.factorizations_saved == built for r in results[1:])
        assert all(r.stats.batch_groups == 1 for r in results)
        assert all(r.stats.fast_path for r in results)

    def test_different_time_axes_do_not_group(self):
        jobs = [
            TransientJob(rc_chain(5, 4, 1.0), t_stop=ps(100), dt=ps(2)),
            TransientJob(rc_chain(5, 4, 1.0), t_stop=ps(200), dt=ps(2)),
        ]
        solver, _ = _run_batched(jobs, backend="dense")
        assert solver.last_run.batch_groups == 2


# ---------------------------------------------------------------------------
# FactorizationCache
# ---------------------------------------------------------------------------

class TestFactorizationCache:
    def test_cross_run_reuse_and_counters(self):
        cache = FactorizationCache()
        jobs = [
            TransientJob(rc_chain(9, 5, a), t_stop=ps(100), dt=ps(2))
            for a in (0.6, 1.0, 1.3)
        ]
        solver = BatchedTransientSolver(backend="dense", cache=cache)
        first = solver.run(jobs)
        built = solver.last_run.factorizations_built  # one per distinct dt
        assert built >= 1
        assert cache.entries_created == built
        assert cache.hits == 0
        second = solver.run(
            [
                TransientJob(rc_chain(9, 5, a), t_stop=ps(100), dt=ps(2))
                for a in (0.6, 1.0, 1.3)
            ]
        )
        # Second run: every base matrix comes straight from the cache.
        assert solver.last_run.factorizations_built == 0
        assert cache.hits == built
        assert cache.counters()["factorizations_saved"] == built
        assert cache.counters()["batch_groups"] == built
        assert cache.stacked_solves > 0
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.solutions, b.solutions)

    def test_lru_bound_evicts_oldest(self):
        cache = FactorizationCache(max_entries=2)
        for key in ("k1", "k2", "k3"):
            cache.solver((key,), lambda: object())
        assert len(cache) == 2
        # k1 was evicted: looking it up again rebuilds instead of hitting.
        _, hit = cache.solver(("k1",), lambda: object())
        assert not hit
        _, hit = cache.solver(("k3",), lambda: object())
        assert hit

    def test_byte_budget_evicts_oldest(self):
        class Factor:
            nbytes = 40

        cache = FactorizationCache()
        cache.max_bytes = 100
        for key in ("a", "b", "c"):
            cache.solver((key,), Factor)
        assert len(cache) == 2
        _, hit = cache.solver(("a",), Factor)
        assert not hit
        # An entry larger than the whole budget is still admitted, alone.
        big = type("Big", (), {"nbytes": 1000})
        _, hit = cache.solver(("big",), big)
        assert not hit and len(cache) == 1

    def test_default_bound_holds_a_design_working_set(self):
        cache = FactorizationCache()
        keys = [("engine", index) for index in range(2 * 120)]
        for key in keys:
            cache.solver(key, lambda: LinearSolver(np.eye(25) * 2.0))
        assert all(cache.solver(key, object)[1] for key in keys)

    def test_lru_touch_on_hit(self):
        cache = FactorizationCache(max_entries=2)
        cache.solver(("a",), lambda: object())
        cache.solver(("b",), lambda: object())
        cache.solver(("a",), lambda: object())  # touch "a"
        cache.solver(("c",), lambda: object())  # evicts "b", not "a"
        _, hit = cache.solver(("a",), lambda: object())
        assert hit
        _, hit = cache.solver(("b",), lambda: object())
        assert not hit


# ---------------------------------------------------------------------------
# Stepper solver-cache LRU bound (satellite of the same PR)
# ---------------------------------------------------------------------------

class TestStepperSolverCacheBound:
    @staticmethod
    def _stepper():
        circuit = rc_chain(2, 4, 1.0)
        circuit.prepare()
        stepper = LinearTransientStepper(
            circuit.kernel, method="trap", gmin=circuit.gmin, backend="dense"
        )
        stepper.initialize(np.zeros(circuit.kernel.n))
        return circuit, stepper

    def test_per_dt_solver_cache_is_bounded(self):
        _, stepper = self._stepper()
        for i in range(_BASE_CACHE_SIZE + 8):
            stepper._solver(ps(1) * (1.0 + 0.01 * i))  # distinct dts
        assert len(stepper._solvers) <= _BASE_CACHE_SIZE

    def test_eviction_rebuild_is_bitwise_identical(self):
        """Re-acquiring an evicted dt refactorises the same matrix exactly."""
        circuit, stepper = self._stepper()
        rng = np.random.default_rng(0)
        z = rng.normal(size=circuit.kernel.n)
        before = stepper._solver(ps(2)).solve(z)
        # Thrash the cache with enough distinct dts to evict ps(2).
        for i in range(_BASE_CACHE_SIZE + 4):
            stepper._solver(ps(3) * (1.0 + 0.01 * i))
        after = stepper._solver(ps(2)).solve(z)
        np.testing.assert_array_equal(before, after)

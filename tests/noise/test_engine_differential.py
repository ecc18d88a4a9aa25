"""Differential tests: the dedicated engine's fast Newton loop against its reference.

:mod:`reference_engine` keeps the engine's Newton loop in its plain form
(``lu_solve``, ``np.linalg.solve``, ``source_vector`` every step).  The
fast loop must reproduce it byte for byte -- waveforms, DC points and every
``EngineStatistics`` counter -- on real clusters (the golden corpus and a
``SyntheticChip`` design, both backends) and on hand-built networks that
reach every branch of the rank-k corrected solve.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from reference_engine import ReferenceNoiseEngine
from repro.api import AnalysisConfig, NoiseAnalysisSession
from repro.characterization import LibraryCharacterizer
from repro.circuit import PulseWaveform
from repro.circuit.stamping import LinearSolver
from repro.experiments import accuracy_sweep_clusters
from repro.noise import ClusterModelBuilder, DedicatedNoiseEngine, MacromodelNetwork
from repro.noise import engine as engine_module
from repro.noise.macromodel import MacromodelAnalysis
from repro.reduction.engine import ReducedOrderEngine
from repro.sna import StreamingClusterExtractor, SyntheticChip
from repro.technology import build_default_library
from repro.units import fF, ps

BACKENDS = ("dense", "sparse")


def _counters(statistics):
    counters = dataclasses.asdict(statistics)
    counters.pop("runtime_seconds")
    return counters


def _same_bytes(got, want):
    assert list(got) == list(want)
    for name in want:
        assert got[name].times.tobytes() == want[name].times.tobytes(), name
        assert got[name].values.tobytes() == want[name].values.tobytes(), name


def assert_matches_reference(network, t_stop, dt, backend, **engine_options):
    """Fast and reference engines agree bit for bit on one network; returns the run."""
    fast = DedicatedNoiseEngine(network, solver_backend=backend, **engine_options)
    reference = ReferenceNoiseEngine(network, solver_backend=backend, **engine_options)
    assert fast.resolved_backend == reference.resolved_backend == backend
    assert fast.dc_solve().tobytes() == reference.dc_solve().tobytes()
    got = fast.simulate(t_stop, dt)
    want = reference.simulate(t_stop, dt)
    _same_bytes(got, want)
    assert _counters(fast.statistics) == _counters(reference.statistics)
    return got, fast.statistics


# ---------------------------------------------------------------------------
# The LAPACK back-substitution
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 7, 25, 60])
def test_getrs_equals_lu_solve(n):
    rng = np.random.default_rng(n)
    A = rng.normal(size=(n, n)) + n * np.eye(n)
    solver = LinearSolver(A)
    factors = lu_factor(A)
    stacked = rng.normal(size=(n, 3))
    for rhs in (rng.normal(size=n), stacked, np.asfortranarray(stacked)):
        got = solver.solve(rhs)
        want = lu_solve(factors, rhs, check_finite=False)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_linear_solver_survives_pickling():
    import pickle

    A = np.array([[4.0, 1.0], [1.0, 3.0]])
    clone = pickle.loads(pickle.dumps(LinearSolver(A)))
    rhs = np.array([1.0, 2.0])
    assert clone.solve(rhs).tobytes() == LinearSolver(A).solve(rhs).tobytes()


# ---------------------------------------------------------------------------
# Hand-built networks covering every branch of the corrected solve
# ---------------------------------------------------------------------------


def _smooth_source(scale, v_mid):
    """A tanh-shaped driver current ``func(t, v) -> (i, di/dv)``, pulsed in time."""
    pulse = PulseWaveform(0.0, 1.0, delay=ps(40), rise=ps(60))

    def func(t, v):
        drive = 1e-3 * pulse(t)
        x = (v - v_mid) / 0.2
        return drive - scale * math.tanh(x), -scale * (1.0 - math.tanh(x) ** 2) / 0.2

    return func


def _coupled_pair():
    """Two RC nodes coupled through a capacitor, each with a ramped aggressor."""
    ramp = PulseWaveform(0.0, 1.2, delay=ps(30), rise=ps(50))
    network = MacromodelNetwork("pair")
    network.add_resistance("a", "b", 800.0)
    network.add_capacitance("a", "0", fF(20))
    network.add_capacitance("b", "0", fF(15))
    network.add_capacitance("a", "b", fF(8))
    network.add_conductance("b", "0", 1e-4)
    network.add_current_source("b", lambda t: ramp(t) * 2e-4)
    network.add_current_source("b", lambda t: -ramp(t) * 5e-5)
    # Three sources at one node: their sum depends on the order they are added.
    network.add_current_source("b", lambda t: 3.3e-5 * ramp(t) ** 2)
    network.add_current_source("0", lambda t: 1.0)  # grounded: never stamped
    return network


@pytest.mark.parametrize("backend", BACKENDS)
def test_two_nonlinear_sources_at_distinct_nodes(backend):
    network = _coupled_pair()
    network.add_nonlinear_source("a", _smooth_source(2e-4, 0.3))
    network.add_nonlinear_source("b", _smooth_source(1e-4, 0.6))
    _, statistics = assert_matches_reference(network, ps(300), ps(1), backend)
    assert statistics.newton_iterations > statistics.num_time_points


@pytest.mark.parametrize("backend", BACKENDS)
def test_two_nonlinear_sources_at_one_node(backend):
    network = _coupled_pair()
    network.add_nonlinear_source("a", _smooth_source(2e-4, 0.3))
    network.add_nonlinear_source("a", _smooth_source(5e-5, 0.8))
    network.add_nonlinear_source("0", _smooth_source(1.0, 0.0))  # grounded
    assert_matches_reference(network, ps(300), ps(1), backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_grounded_nonlinear_sources_alone_keep_the_newton_path(backend):
    network = _coupled_pair()
    network.add_nonlinear_source("0", _smooth_source(1.0, 0.0))
    _, statistics = assert_matches_reference(network, ps(100), ps(1), backend)
    assert statistics.fast_path_runs == 0 and statistics.batched_solves == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_zero_didv_source_takes_the_plain_solve(backend):
    network = _coupled_pair()
    pulse = PulseWaveform(0.0, 1.0, delay=ps(20), rise=ps(40))
    network.add_nonlinear_source("a", lambda t, v: (2e-4 * pulse(t), 0.0))
    assert_matches_reference(network, ps(200), ps(2), backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_singular_rank_k_system_falls_back_to_the_explicit_jacobian(backend, monkeypatch):
    # A = [3] and W = fl(1/3); the slope d = 3 + ulp(3) rounds d * W to
    # exactly 1, so the 1 x 1 Woodbury system is singular while the explicit
    # Jacobian 3 - d = -ulp(3) is not.
    slope = math.nextafter(3.0, 4.0)
    assert 1.0 - slope * (1.0 / 3.0) == 0.0
    network = MacromodelNetwork("singular")
    network.add_conductance("a", "0", 3.0)
    network.add_current_source("a", lambda t: 1e-3 * t / ps(100))
    network.add_nonlinear_source("a", lambda t, v: (slope * v, slope))

    fallbacks = []
    explicit = engine_module.solve_linear_system

    def counting(matrix, rhs):
        fallbacks.append(matrix.shape)
        return explicit(matrix, rhs)

    monkeypatch.setattr(engine_module, "solve_linear_system", counting)
    assert_matches_reference(network, ps(20), ps(1), backend, gmin=0.0)
    assert fallbacks


# ---------------------------------------------------------------------------
# Real clusters
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def library():
    return build_default_library("cmos130")


@pytest.fixture(scope="module")
def characterizer(library):
    return LibraryCharacterizer(library, vccs_grid=13)


@pytest.mark.parametrize("backend", BACKENDS)
def test_golden_corpus_clusters_match_the_reference(library, characterizer, backend):
    analysis = MacromodelAnalysis(library, characterizer=characterizer, vccs_grid=13)
    for case in accuracy_sweep_clusters(technologies=("cmos130",), quick=True):
        builder = ClusterModelBuilder(
            library, case.spec, characterizer=characterizer, vccs_grid=13
        )
        network = analysis.build_network(builder)
        t_stop, dt = builder.simulation_window()
        assert_matches_reference(network, t_stop, dt, backend)


def _record_engine_runs(monkeypatch):
    """Capture network, window and waveforms of every engine run."""
    runs = []
    simulate = DedicatedNoiseEngine.simulate

    def recording(self, t_stop, dt, **options):
        waveforms = simulate(self, t_stop, dt, **options)
        runs.append((self.network, t_stop, dt, self.resolved_backend, waveforms))
        return waveforms

    monkeypatch.setattr(DedicatedNoiseEngine, "simulate", recording)
    return runs


@pytest.mark.parametrize("backend", BACKENDS)
def test_synthetic_chip_design_matches_the_reference(library, characterizer, backend, monkeypatch):
    chip = SyntheticChip(num_nets=8, bus_width=4, topology="grid", seed=1)
    session = NoiseAnalysisSession(
        library,
        AnalysisConfig(
            methods=("macromodel",), vccs_grid=13, check_nrc=False, solver_backend=backend
        ),
        characterizer=characterizer,
    )
    runs = _record_engine_runs(monkeypatch)
    stream = StreamingClusterExtractor(chip, library.technology).extract(
        iter(chip.spef_lines(library.technology))
    )
    report = session.run_design(stream=stream, design_name="chip")
    monkeypatch.undo()
    assert len(runs) == len(report.clusters) == 8
    for network, t_stop, dt, resolved, waveforms in runs:
        assert resolved == backend
        reference = ReferenceNoiseEngine(network, solver_backend=backend)
        # The session's run went through its factorization cache; the
        # reference factorises afresh -- the waveforms must not notice.
        _same_bytes(waveforms, reference.simulate(t_stop, dt))
        assert_matches_reference(network, t_stop, dt, backend)


# ---------------------------------------------------------------------------
# Time axis
# ---------------------------------------------------------------------------


def _ramp_rc():
    """1 kOhm / 100 fF driven by a 100 ps, 1 V ramp (Norton form)."""
    ramp = PulseWaveform(0.0, 1.0, delay=ps(50), rise=ps(100))
    network = MacromodelNetwork("ramp_rc")
    network.add_conductance("a", "0", 1e-3)
    network.add_current_source("a", lambda t: ramp(t) * 1e-3)
    network.add_capacitance("a", "0", fF(100))
    return network


@pytest.mark.parametrize("engine_class", [DedicatedNoiseEngine, ReducedOrderEngine])
def test_steps_that_do_not_divide_the_window_integrate_on_the_output_axis(engine_class):
    """A ``dt`` that does not divide ``t_stop`` must not stretch the waveform.

    Trapezoidal error grows as dt^2, so against a fine-step reference each
    step's error stays within a margin of the dt^2-scaled error of the
    exact divisor 3 ps.  Integrating with the caller's dt on the rounded
    axis (the old behaviour) misses this bound at 2.9, 3.1 and 4.4 ps.
    """
    t_stop = ps(600)
    fine = DedicatedNoiseEngine(_ramp_rc()).simulate(t_stop, ps(0.05))["a"]

    def error(dt_ps):
        waveform = engine_class(_ramp_rc()).simulate(t_stop, ps(dt_ps))["a"]
        assert waveform.times[-1] == t_stop
        return float(np.max(np.abs(waveform.values - fine(waveform.times))))

    exact = error(3.0)
    assert exact < 2e-4
    for dt_ps in (2.9, 3.1, 4.4):
        assert error(dt_ps) <= 1.5 * exact * (dt_ps / 3.0) ** 2, dt_ps


def test_near_divisor_steps_keep_the_callers_dt():
    t_stop = ps(600)
    times, dt = engine_module.fixed_step_axis(t_stop, ps(3.0))
    assert dt == ps(3.0) and len(times) == 201
    times, dt = engine_module.fixed_step_axis(t_stop, ps(2.9))
    assert len(times) == 208 and dt == t_stop / 207

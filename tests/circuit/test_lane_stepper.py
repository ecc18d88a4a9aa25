"""Lockstep-lane Newton core: the compiled MOSFET block, the lane stepper,
its counters and its fault hook.

The contract: a lane run among others equals the same lane run alone
(waveform, Newton iterations, retry-rung recoveries), one lane equals the
per-element Newton loop it replaced, and the compiled block equals
``MOSFET._evaluate`` exactly.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import faults
from repro.api import AnalysisConfig, NoiseAnalysisSession
from repro.circuit import (
    MOSFET,
    Circuit,
    ConvergenceError,
    MOSFETParams,
    TriangularGlitch,
    dc_operating_point,
    transient,
)
from repro.circuit import mna
from repro.circuit.elements import BehavioralCurrentSource, Diode, StampContext
from repro.circuit.mosfet import AlphaPowerModel, Level1Model, MOSFETBlock
from repro.circuit.stamping import SingularMatrixError, compilable
from repro.circuit.transient import _run_newton_path, build_time_axis, transient_lanes
from repro.experiments import figure1_cluster
from repro.resilience import resilient_analyze
from repro.technology import build_default_library, get_technology
from repro.units import fF, ps
from transient_oracles import legacy_kernel, run_lanes

NMOS = MOSFETParams(polarity="n", vto=0.35, kp=3e-4, lambda_=0.05, l_nominal=0.13e-6)
PMOS = MOSFETParams(polarity="p", vto=0.35, kp=1.2e-4, lambda_=0.08, l_nominal=0.13e-6)

#: Glitch heights run as lanes; with ``max_newton=4`` and 2 ps edges only the
#: tallest needs the backward-Euler retry rung.
HEIGHTS = (0.2, 0.6, 1.2)


def inverter(*, extra=()):
    circuit = Circuit("inv")
    circuit.add_voltage_source("VDD", "vdd", "0", 1.2)
    circuit.add_voltage_source("VIN", "in", "0", 0.0)
    circuit.add_mosfet("MN", "out", "in", "0", NMOS, w=1e-6)
    circuit.add_mosfet("MP", "out", "in", "vdd", PMOS, w=2e-6)
    circuit.add_capacitor("CL", "out", "0", fF(5))
    circuit.add_capacitor("CM", "in", "out", fF(1))
    for element in extra:
        circuit.add(element)
    return circuit


def glitch(height, width=ps(4)):
    return TriangularGlitch(
        baseline=0.0, height=height, delay=ps(20), rise=0.5 * width, fall=0.5 * width
    )


def lanes_for(heights, width=ps(4)):
    return [{"VIN": glitch(h, width)} for h in heights]


def run_alone(height, width=ps(4), **kwargs):
    """The lane as its own transient: the glitch installed on a fresh bench."""
    circuit = inverter()
    circuit["VIN"].waveform = glitch(height, width)
    return transient(circuit, ps(200), ps(4), **kwargs)


# ---------------------------------------------------------------------------
# The compiled MOSFET block


def _device(polarity, alpha, vto, kp, lam, w, gds_min):
    params = MOSFETParams(polarity=polarity, vto=vto, kp=kp, lambda_=lam, alpha=alpha)
    circuit = Circuit("one")
    device = circuit.add_mosfet("M", "d", "g", "s", params, w=w, model="auto")
    device.gds_min = gds_min
    circuit.prepare()
    return circuit, device


@given(
    polarity=st.sampled_from(["n", "p"]),
    alpha=st.sampled_from([2.0, 1.3, 1.45, 1.7]),
    vto=st.floats(min_value=0.2, max_value=0.6),
    kp=st.floats(min_value=5e-5, max_value=5e-4),
    lam=st.floats(min_value=0.0, max_value=0.2),
    w=st.floats(min_value=2e-7, max_value=5e-6),
    gds_min=st.sampled_from([0.0, 1e-12, 1e-9]),
    vd=st.floats(min_value=-1.5, max_value=1.5),
    vg=st.floats(min_value=-1.5, max_value=1.5),
    vs=st.floats(min_value=-1.5, max_value=1.5),
)
@settings(max_examples=300, deadline=None)
# cut-off, triode and saturation of an NMOS, then the same biases swapped
@example("n", 2.0, 0.35, 3e-4, 0.05, 1e-6, 1e-9, 1.0, 0.2, 0.0)
@example("n", 2.0, 0.35, 3e-4, 0.05, 1e-6, 1e-9, 0.1, 1.2, 0.0)
@example("n", 2.0, 0.35, 3e-4, 0.05, 1e-6, 1e-9, 1.2, 1.2, 0.0)
@example("n", 2.0, 0.35, 3e-4, 0.05, 1e-6, 1e-9, 0.0, 1.2, 1.2)
@example("p", 1.45, 0.35, 1.2e-4, 0.08, 2e-6, 1e-9, 0.0, 0.0, 1.2)
@example("p", 1.45, 0.35, 1.2e-4, 0.08, 2e-6, 1e-9, 1.1, 0.0, 1.2)
@example("p", 1.45, 0.35, 1.2e-4, 0.08, 2e-6, 1e-9, 1.2, 0.0, 0.0)
@example("n", 1.3, 0.35, 3e-4, 0.05, 1e-6, 0.0, 0.5, 0.5, 0.5)
def test_property_block_equals_scalar_evaluate(
    polarity, alpha, vto, kp, lam, w, gds_min, vd, vg, vs
):
    _, device = _device(polarity, alpha, vto, kp, lam, w, gds_min)
    block = MOSFETBlock([device], n=3)
    got = block.evaluate(np.array([[vd]]), np.array([[vg]]), np.array([[vs]]))
    assert tuple(float(value[0, 0]) for value in got) == device._evaluate(vd, vg, vs)


def test_mixed_block_equals_scalar_evaluate_in_every_region():
    """Both model classes and polarities in one block, many lanes."""
    circuit = Circuit("mix")
    devices = []
    for index, (polarity, alpha) in enumerate([("n", 2.0), ("p", 2.0), ("n", 1.45), ("p", 1.55)]):
        params = MOSFETParams(polarity=polarity, vto=0.35, kp=3e-4, lambda_=0.08, alpha=alpha)
        devices.append(circuit.add_mosfet(f"M{index}", f"d{index}", f"g{index}", f"s{index}",
                                          params, w=1e-6))
    circuit.prepare()
    assert {type(d._model) for d in devices} == {Level1Model, AlphaPowerModel}
    block = MOSFETBlock(devices, circuit.kernel.n)
    rng = np.random.default_rng(7)
    volts = rng.uniform(-1.5, 1.5, size=(3, 400, len(devices)))
    got = block.evaluate(*volts)
    regions = set()
    for lane in range(volts.shape[1]):
        for j, device in enumerate(devices):
            vd, vg, vs = volts[:, lane, j]
            assert tuple(float(v[lane, j]) for v in got) == device._evaluate(vd, vg, vs)
            sign = -1.0 if device.params.polarity == "p" else 1.0
            d, g, s = sign * vd, sign * vg, sign * vs
            d, s = max(d, s), min(d, s)
            vov = g - s - device.params.vto
            regions.add("cutoff" if vov <= 0 else "triode" if d - s < vov else "other")
            regions.add("swapped" if sign * vd < sign * vs else "plain")
    assert regions >= {"cutoff", "triode", "other", "swapped", "plain"}


def test_block_stamps_equal_per_element_stamps_bit_for_bit():
    library = build_default_library("cmos130")
    circuit = Circuit("and2")
    circuit.add_voltage_source("VDD", "vdd", "0", 1.2)
    circuit.add_voltage_source("VA", "a", "0", 0.0)
    circuit.add_voltage_source("VB", "b", "0", 1.2)
    library["AND2_X1"].instantiate(
        circuit, "DUT", {"A": "a", "B": "b", "Z": "out"}, library.technology
    )
    circuit.prepare()
    kernel = circuit.kernel
    assert len(kernel.mosfet_block) == len(kernel.nonlinear_elements) == 6
    n = kernel.n
    rng = np.random.default_rng(3)
    x_ext = np.zeros((5, n + 1))
    x_ext[:, :n] = rng.uniform(-0.2, 1.4, size=(5, n))
    base = rng.normal(size=(n, n))
    A = np.repeat(base[None], 5, axis=0)
    z = np.zeros((5, n))
    kernel.mosfet_block.stamp(A, z, x_ext)
    # The array formulas and the device-by-device path agree exactly.
    for array, scalar in zip(kernel.mosfet_block.linearize(x_ext),
                             kernel.mosfet_block.linearize_scalar(x_ext)):
        assert np.array_equal(array, scalar)

    for lane in range(5):
        A_ref, z_ref = base.copy(), np.zeros(n)
        ctx = StampContext(x=x_ext[lane, :n])
        for element in kernel.nonlinear_elements:
            element.stamp(A_ref, z_ref, ctx)
        assert np.array_equal(A[lane], A_ref)
        assert np.array_equal(z[lane], z_ref)


class DoubledCurrent(MOSFET):
    """Overrides the evaluation: twice the channel current."""

    def _evaluate(self, vd, vg, vs):
        return tuple(2.0 * value for value in super()._evaluate(vd, vg, vs))


class LoggedStamp(MOSFET):
    """Overrides ``stamp`` (and records that it ran)."""

    calls = 0

    def stamp(self, A, z, ctx):
        LoggedStamp.calls += 1
        super().stamp(A, z, ctx)


class TestCompileGuard:
    def build(self):
        return inverter(
            extra=(
                DoubledCurrent("MX", "out", "in", "0", NMOS, w=0.5e-6),
                LoggedStamp("MY", "out", "in", "vdd", PMOS, w=0.5e-6),
                Diode("DC", "0", "out"),
                BehavioralCurrentSource(
                    "BL", "out", "0", ["out"], lambda v: (1e-6 * v[0], [1e-6])
                ),
            )
        )

    def test_overriding_subclasses_and_other_elements_stamp_per_element(self):
        circuit = self.build()
        circuit.prepare()
        kernel = circuit.kernel
        assert [e.name for e in kernel.mosfet_block.elements] == ["MN", "MP"]
        assert [e.name for e in kernel.looped_nonlinear] == ["MX", "MY", "DC", "BL"]
        assert not compilable(circuit["MX"]) and not compilable(circuit["MY"])

    def test_overrides_take_effect_on_the_lane_path(self):
        circuit = self.build()
        circuit["VIN"].waveform = glitch(1.2, ps(40))
        LoggedStamp.calls = 0
        auto = transient(circuit, ps(200), ps(4))
        assert LoggedStamp.calls > 0
        legacy = legacy_kernel.transient_legacy(circuit, ps(200), ps(4))
        assert np.max(np.abs(auto.solutions - legacy.solutions)) < 1e-9
        plain = inverter()
        plain["VIN"].waveform = glitch(1.2, ps(40))
        # The doubled device changes the answer, so it was not compiled away.
        reference = transient(plain, ps(200), ps(4))["out"].values
        assert np.max(np.abs(auto["out"].values - reference)) > 1e-3


# ---------------------------------------------------------------------------
# Lanes against the same heights run one at a time


class TestLanesMatchLoneRuns:
    def test_waveforms_iterations_and_recoveries(self):
        results = run_lanes(inverter(), lanes_for(HEIGHTS), max_newton=4)
        recovering = [r for r in results if r.stats.recoveries]
        assert len(recovering) == 1, "exactly one lane needs the be rung"
        assert recovering[0].stats.recoveries[0].endswith(": be")
        for height, lane in zip(HEIGHTS, results):
            alone = run_alone(height, max_newton=4)
            assert np.max(np.abs(lane.solutions - alone.solutions)) <= 1e-12
            assert lane.stats.newton_iterations == alone.stats.newton_iterations
            assert lane.stats.recoveries == alone.stats.recoveries
            assert lane.stats.matrix_factorizations == alone.stats.matrix_factorizations

    def test_a_failing_lane_leaves_the_others_untouched(self):
        results = run_lanes(inverter(), lanes_for(HEIGHTS, ps(10)), max_newton=2)
        assert isinstance(results[2], ConvergenceError)
        with pytest.raises(ConvergenceError):
            run_alone(HEIGHTS[2], ps(10), max_newton=2)
        for height, lane in zip(HEIGHTS[:2], results[:2]):
            alone = run_alone(height, ps(10), max_newton=2)
            assert np.array_equal(lane.solutions, alone.solutions)
            assert lane.stats.recoveries == alone.stats.recoveries

    def test_counters_equal_the_lone_runs(self):
        lanes_circuit = inverter()
        lanes_circuit.prepare()
        x0 = dc_operating_point(lanes_circuit).x
        before = lanes_circuit.kernel.stats.snapshot()
        results = run_lanes(lanes_circuit, lanes_for(HEIGHTS), x0=x0, max_newton=4)
        lanes_delta = lanes_circuit.kernel.stats.delta_since(before)

        serial = inverter()
        serial.prepare()
        x0 = dc_operating_point(serial).x
        before = serial.kernel.stats.snapshot()
        alone = []
        for height in HEIGHTS:
            serial["VIN"].waveform = glitch(height)
            alone.append(transient(serial, ps(200), ps(4), x0=x0, max_newton=4))
        serial_delta = serial.kernel.stats.delta_since(before)

        assert lanes_delta == serial_delta
        # One stamp per device per lane-iteration actually run.
        assert lanes_delta.nonlinear_stamps % 2 == 0
        assert lanes_delta.nonlinear_stamps >= 2 * sum(r.stats.newton_iterations for r in results)
        for lane, lone in zip(results, alone):
            assert lane.stats.assemblies_avoided == lone.stats.assemblies_avoided
            assert lane.stats.rhs_builds == lone.stats.rhs_builds
            assert lane.stats.newton_iterations == lone.stats.newton_iterations

    def test_lanes_must_share_a_time_axis_and_dc_value(self):
        with pytest.raises(ValueError, match="time axis"):
            transient_lanes(inverter(), ps(200), ps(4), [{"VIN": glitch(0.5, ps(4))},
                                                         {"VIN": glitch(0.5, ps(8))}])
        shifted = TriangularGlitch(baseline=0.3, height=0.5, delay=ps(20), rise=ps(2), fall=ps(2))
        with pytest.raises(ValueError, match="DC value"):
            transient_lanes(inverter(), ps(200), ps(4), [{"VIN": shifted}])

    def test_one_lane_equals_the_per_element_newton_loop(self):
        """B = 1 reproduces the per-element loop: values, stats, counters."""
        def run(lane_path):
            circuit = inverter()
            circuit["VIN"].waveform = glitch(1.2)
            circuit.prepare()
            x0 = dc_operating_point(circuit).x
            before = circuit.kernel.stats.snapshot()
            if lane_path:
                result = transient(circuit, ps(200), ps(4), x0=x0, max_newton=4)
                solutions, stats = result.solutions, result.stats
            else:
                times = build_time_axis(circuit, ps(200), ps(4))
                solutions = np.zeros((len(times), circuit.kernel.n))
                solutions[0] = x0
                stats = _run_newton_path(
                    circuit, times, x0, solutions, method="trap", max_newton=4,
                    vtol=1e-6,
                )
            return solutions, stats, circuit.kernel.stats.delta_since(before)

        lane_solutions, lane_stats, lane_kernel = run(True)
        loop_solutions, loop_stats, loop_kernel = run(False)
        assert np.array_equal(lane_solutions, loop_solutions)
        assert lane_stats.recoveries and lane_stats.recoveries == loop_stats.recoveries
        for counter in ("newton_iterations", "assemblies_avoided", "matrix_factorizations",
                        "rhs_builds"):
            assert getattr(lane_stats, counter) == getattr(loop_stats, counter), counter
        assert lane_kernel == loop_kernel

    def test_newton_stays_within_1e9_of_legacy(self):
        circuit = inverter()
        circuit["VIN"].waveform = glitch(1.0, ps(40))
        newton = transient(circuit, ps(200), ps(2))
        legacy = legacy_kernel.transient_legacy(circuit, ps(200), ps(2))
        assert np.max(np.abs(newton.solutions - legacy.solutions)) < 1e-9

    def test_sparse_lanes_match_dense_lanes(self):
        dense = run_lanes(inverter(), lanes_for(HEIGHTS), backend="dense")
        sparse = run_lanes(inverter(), lanes_for(HEIGHTS), backend="sparse")
        for a, b in zip(dense, sparse):
            assert np.max(np.abs(a.solutions - b.solutions)) < 1e-9


# ---------------------------------------------------------------------------
# The fault hook on the stacked solve


def singular_plan(**kwargs):
    return faults.FaultPlan([faults.FaultSpec(site="solve", kind="singular", **kwargs)])


class TestFaultHook:
    def test_singular_plan_trips_the_stacked_solve(self):
        circuit = inverter()
        circuit.prepare()
        x0 = dc_operating_point(circuit).x
        with faults.plan_active(singular_plan(match="lanes*")):
            with faults.scenario_context("lanes-1"):
                with pytest.raises(SingularMatrixError, match="fault plan"):
                    transient_lanes(circuit, ps(200), ps(4), lanes_for(HEIGHTS), x0=x0)
            with faults.scenario_context("other"):
                assert len(transient_lanes(circuit, ps(200), ps(4), lanes_for(HEIGHTS), x0=x0)) == 3

    def test_singular_fault_on_the_lane_path_reaches_the_ladder(self, monkeypatch):
        session = NoiseAnalysisSession(
            build_default_library(get_technology("cmos130")),
            AnalysisConfig(methods=("golden",), vccs_grid=5, check_nrc=False, dt=4e-12),
        )
        spec = figure1_cluster(length_um=200.0, num_segments=3)
        session.analyze(spec)
        # Silence the scalar solve hook (DC operating points), so the only
        # site left to trip is the lane stepper's stacked solve.
        monkeypatch.setattr(mna, "faults", SimpleNamespace(fire=lambda site: None))
        with faults.plan_active(singular_plan(match="ladder", max_trips=1)) as plan:
            with faults.scenario_context("ladder"):
                report, log = resilient_analyze(session, spec)
            assert plan.fire("solve", "ladder") is None  # the one trip was spent
        assert log.degraded
        assert log.accepted_rung == "sparse"
        assert any("SingularMatrixError" in event for event in report.degradation)


class TestLaneStepperScope:
    def test_elements_with_their_own_state_are_refused(self):
        from repro.circuit import Capacitor

        class CountingCap(Capacitor):
            def stamp(self, A, z, ctx):  # demoted to the nonlinear partition
                super().stamp(A, z, ctx)

        circuit = inverter(extra=(CountingCap("CX", "out", "0", fF(2)),))
        circuit.prepare()
        assert not circuit.kernel.array_state
        # transient() keeps the per-element loop for such circuits ...
        circuit["VIN"].waveform = glitch(0.6)
        legacy = legacy_kernel.transient_legacy(circuit, ps(200), ps(4))
        auto = transient(circuit, ps(200), ps(4))
        assert np.max(np.abs(auto.solutions - legacy.solutions)) < 1e-9
        # ... while lanes, which hold all state in arrays, refuse them.
        with pytest.raises(ValueError, match="state of their own"):
            transient_lanes(circuit, ps(200), ps(4), lanes_for(HEIGHTS))

    def test_custom_sources_keep_the_per_element_loop(self):
        from repro.circuit import CurrentSource

        class DoubledSource(CurrentSource):
            """Claims the source partition for its own, doubled value."""

            def partition(self):
                return "source"

            def value(self, ctx):
                return 2.0 * super().value(ctx)

        circuit = inverter(extra=(DoubledSource("IX", "0", "out", 2e-5),))
        circuit.prepare()
        assert circuit["IX"] in circuit.kernel.source_elements
        assert not circuit.kernel.array_state
        circuit["VIN"].waveform = glitch(0.6)
        auto = transient(circuit, ps(200), ps(4))
        legacy = legacy_kernel.transient_legacy(circuit, ps(200), ps(4))
        assert np.max(np.abs(auto.solutions - legacy.solutions)) < 1e-9
        with pytest.raises(ValueError, match="custom sources"):
            transient_lanes(circuit, ps(200), ps(4), lanes_for(HEIGHTS))

    def test_setting_gds_min_recompiles_the_block(self):
        circuit = inverter()
        circuit.prepare()
        kernel = circuit.kernel
        circuit["MN"].gds_min = 1e-6
        circuit.prepare()
        assert circuit.kernel is not kernel
        circuit["VIN"].waveform = glitch(0.6)
        lanes = transient(circuit, ps(200), ps(4))
        legacy = legacy_kernel.transient_legacy(circuit, ps(200), ps(4))
        assert np.max(np.abs(lanes.solutions - legacy.solutions)) < 1e-9

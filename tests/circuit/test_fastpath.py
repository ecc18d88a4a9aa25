"""Vectorized-assembly kernel and LU-reuse fast-path tests.

The compiled kernel is validated against the legacy element-by-element
assembly (the authoritative reference, ``benchmarks/legacy_kernel.py``), and
the Newton-free linear fast path is cross-checked against the generic Newton
path (the lane stepper) on the RC-ladder / Thevenin circuits that dominate
the characterisation and golden workloads.
"""

import numpy as np
import pytest

from repro.circuit import (
    Circuit,
    PulseWaveform,
    SaturatedRamp,
    StampContext,
    assemble,
    transient,
)
from repro.circuit.mosfet import MOSFETParams
from repro.units import fF, ps
from transient_oracles import legacy_kernel, run_lanes


def newton(circuit, t_stop, dt, method="trap"):
    """The generic Newton path on a linear circuit: one lane of the lane stepper."""
    (result,) = run_lanes(circuit, [{}], t_stop=t_stop, dt=dt, method=method)
    return result


def rc_ladder(num_segments=12, r=120.0, c=fF(4), coupling=fF(1)):
    """A Thevenin-driven coupled RC ladder (the characterisation hot shape)."""
    circuit = Circuit(f"ladder{num_segments}")
    circuit.add_voltage_source(
        "VTH", "drv", "0", SaturatedRamp(0.0, 1.2, delay=ps(50), transition=ps(40))
    )
    circuit.add_resistor("RTH", "drv", "n0", 200.0)
    for i in range(num_segments):
        circuit.add_resistor(f"R{i}", f"n{i}", f"n{i + 1}", r)
        circuit.add_capacitor(f"C{i}", f"n{i + 1}", "0", c)
        circuit.add_capacitor(f"CC{i}", f"n{i}", f"n{i + 1}", coupling)
    circuit.add_resistor("RHOLD", f"n{num_segments}", "0", 5e4)
    return circuit


def thevenin_load_circuit():
    """Thevenin aggressor coupling into a held victim load (linear)."""
    circuit = Circuit("thevenin_load")
    circuit.add_voltage_source(
        "VAGG", "agg_src", "0", SaturatedRamp(0.0, 1.2, delay=ps(30), transition=ps(60))
    )
    circuit.add_resistor("RAGG", "agg_src", "agg", 350.0)
    circuit.add_capacitor("CAGG", "agg", "0", fF(18))
    circuit.add_capacitor("CC", "agg", "vic", fF(25))
    circuit.add_resistor("RHOLD", "vic", "0", 900.0)
    circuit.add_capacitor("CVIC", "vic", "0", fF(30))
    circuit.add_vccs("GSENSE", "sense", "0", "vic", "0", 1e-4)
    circuit.add_resistor("RSENSE", "sense", "0", 1e3)
    return circuit


def mixed_element_circuit():
    """One of everything, for kernel-vs-legacy assembly equivalence."""
    circuit = Circuit("mixed")
    circuit.add_voltage_source("V1", "a", "0", PulseWaveform(0.2, 1.0, delay=ps(5)))
    circuit.add_current_source("I1", "a", "b", 1e-5)
    circuit.add_resistor("R1", "a", "b", 1e3)
    circuit.add_resistor("R2", "b", "0", 2e3)
    circuit.add_capacitor("C1", "b", "c", fF(10))
    circuit.add_capacitor("C0", "c", "0", 0.0)  # zero-value cap: gmin stamp
    circuit.add_inductor("L1", "c", "d", 1e-10)
    circuit.add_resistor("R3", "d", "0", 500.0)
    circuit.add_vccs("G1", "d", "0", "a", "0", 2e-4)
    circuit.add_vcvs("E1", "e", "0", "b", "0", 1.5)
    circuit.add_resistor("R4", "e", "0", 2e3)
    circuit.add_diode("D1", "b", "0")
    circuit.add_behavioral_current_source(
        "B1", "d", "0", ["b"], lambda v: (1e-5 * v[0] ** 2, [2e-5 * v[0]])
    )
    circuit.add_mosfet(
        "M1",
        "d",
        "a",
        "0",
        MOSFETParams(polarity="n", vto=0.3, kp=2e-4),
        w=1e-6,
        l=0.13e-6,
    )
    return circuit


class TestKernelMatchesLegacyAssembly:
    def _contexts(self, n):
        rng = np.random.default_rng(7)
        x = rng.uniform(-0.5, 1.5, n)
        prev_x = rng.uniform(-0.5, 1.5, n)
        trap_state = {
            "C1": {"i": 3e-6},
            "C0": {"i": 0.0},
            "L1": {"i": 2e-5, "v": 0.01},
        }
        return [
            StampContext(x=x, gmin=1e-9),
            StampContext(x=x, gmin=1e-12, source_scale=0.4),
            StampContext(x=x, prev_x=prev_x, time=ps(20), dt=ps(1), method="be", gmin=1e-9),
            StampContext(x=x, prev_x=prev_x, time=ps(20), dt=ps(1), method="trap", gmin=1e-9),
            StampContext(
                x=x,
                prev_x=prev_x,
                time=ps(20),
                dt=ps(2),
                method="trap",
                gmin=1e-9,
                prev_state=trap_state,
            ),
        ]

    def test_assembles_identically_across_contexts(self):
        circuit = mixed_element_circuit()
        circuit.prepare()
        for ctx in self._contexts(circuit.num_unknowns):
            A_ref, z_ref = legacy_kernel.assemble_legacy(circuit, ctx)
            A, z = assemble(circuit, ctx)
            np.testing.assert_allclose(A, A_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(z, z_ref, rtol=0, atol=1e-18)

    def test_base_matrix_cache_is_hit_across_iterations(self):
        circuit = mixed_element_circuit()
        circuit.prepare()
        kernel = circuit.kernel
        ctx = StampContext(
            x=np.zeros(circuit.num_unknowns),
            prev_x=np.zeros(circuit.num_unknowns),
            dt=ps(1),
            method="trap",
            gmin=1e-9,
        )
        assemble(circuit, ctx)
        builds = kernel.stats.base_builds
        assemble(circuit, ctx)
        assemble(circuit, ctx)
        assert kernel.stats.base_builds == builds
        assert kernel.stats.base_hits >= 2


class TestLinearFastPath:
    @pytest.mark.parametrize("method", ["trap", "be"])
    def test_rc_ladder_matches_newton(self, method):
        fast = transient(rc_ladder(), t_stop=ps(400), dt=ps(1), method=method)
        lane = newton(rc_ladder(), ps(400), ps(1), method)
        assert fast.stats.fast_path
        assert not lane.stats.fast_path
        np.testing.assert_allclose(fast.times, lane.times)
        assert np.max(np.abs(fast.solutions - lane.solutions)) < 1e-9

    def test_rc_ladder_matches_legacy(self):
        fast = transient(rc_ladder(), t_stop=ps(400), dt=ps(1))
        legacy = legacy_kernel.transient_legacy(rc_ladder(), ps(400), ps(1))
        assert fast.stats.fast_path
        assert np.max(np.abs(fast.solutions - legacy.solutions)) < 1e-9

    def test_thevenin_load_matches_newton(self):
        fast = transient(thevenin_load_circuit(), t_stop=ps(500), dt=ps(1))
        lane = newton(thevenin_load_circuit(), ps(500), ps(1))
        assert fast.stats.fast_path
        assert np.max(np.abs(fast.solutions - lane.solutions)) < 1e-9

    def test_uniform_grid_factorizes_once_per_dt(self):
        result = transient(
            rc_ladder(), t_stop=ps(300), dt=ps(1), include_breakpoints=False
        )
        assert result.stats.matrix_factorizations == 1
        assert result.stats.lu_reuse_hits == result.stats.num_time_points - 1
        assert result.stats.newton_iterations == 0

    def test_auto_selects_fast_path_for_linear_circuits(self):
        result = transient(rc_ladder(), t_stop=ps(100), dt=ps(1))
        assert result.stats.fast_path

    def test_nonlinear_circuits_never_take_the_fast_path(self):
        circuit = mixed_element_circuit()
        result = transient(circuit, t_stop=ps(50), dt=ps(1))
        assert not result.stats.fast_path
        assert result.stats.newton_iterations > 0

    def test_custom_element_with_default_partition_takes_newton_path(self):
        # A linear custom element that keeps the conservative base-class
        # defaults (is_nonlinear() False, partition() "nonlinear") must be
        # dispatched to the Newton path, not crash the fast path.
        from repro.circuit import Element
        from repro.circuit.elements import stamp_conductance

        class CustomConductance(Element):
            def __init__(self, name, a, b, g):
                super().__init__(name)
                self.a, self.b, self.g = a, b, g

            def node_names(self):
                return [self.a, self.b]

            def stamp(self, A, z, ctx):
                stamp_conductance(A, self.nodes[0], self.nodes[1], self.g)

        circuit = Circuit("custom")
        circuit.add_voltage_source("V1", "in", "0", 1.0)
        circuit.add_resistor("R1", "in", "out", 1e3)
        circuit.add(CustomConductance("X1", "out", "0", 1e-3))
        circuit.add_capacitor("C1", "out", "0", fF(5))
        assert not circuit.is_nonlinear()

        result = transient(circuit, t_stop=ps(100), dt=ps(1))
        assert not result.stats.fast_path
        assert result["out"].values[-1] == pytest.approx(0.5, rel=1e-3)

    def test_subclass_overriding_stamp_is_demoted_to_per_iteration(self):
        # A Capacitor subclass that overrides stamp() without overriding
        # partition() must not be compiled under the parent's "dynamic"
        # claim -- the kernel demotes it to per-iteration stamping so the
        # override is honoured (and the fast path is skipped).
        from repro.circuit import Capacitor

        class LeakyCap(Capacitor):
            def stamp(self, A, z, ctx):
                super().stamp(A, z, ctx)
                # Extra constant leakage current out of node a.
                if self.nodes[0] >= 0:
                    z[self.nodes[0]] -= 1e-6

        def build():
            circuit = Circuit("leaky")
            circuit.add_voltage_source("V1", "in", "0", 1.0)
            circuit.add_resistor("R1", "in", "out", 1e3)
            circuit.add(LeakyCap("CL", "out", "0", fF(10)))
            return circuit

        auto = transient(build(), t_stop=ps(200), dt=ps(1))
        legacy = legacy_kernel.transient_legacy(build(), ps(200), ps(1))
        assert not auto.stats.fast_path
        assert np.max(np.abs(auto.solutions - legacy.solutions)) < 1e-9
        # The leakage visibly shifts the settled output below 1 V.
        assert auto["out"].values[-1] == pytest.approx(1.0 - 1e-6 * 1e3, rel=1e-3)

    def test_subclass_overriding_value_is_demoted_to_per_iteration(self):
        # A source subclass that changes value()/is_nonlinear() without
        # overriding partition() must not keep the parent's "source" claim:
        # its value may depend on the iterate, so it needs the Newton path.
        from repro.circuit import CurrentSource

        class ClampCurrent(CurrentSource):
            def is_nonlinear(self):
                return True

            def value(self, ctx):
                # Iterate-dependent: only injects above 0.4 V at the node.
                v = ctx.v(self.nodes[0])
                return 1e-4 if v > 0.4 else 0.0

        def build():
            circuit = Circuit("clamp")
            circuit.add_voltage_source("V1", "in", "0", 1.0)
            circuit.add_resistor("R1", "in", "out", 1e3)
            circuit.add(ClampCurrent("ICL", "out", "0", 0.0))
            circuit.add_capacitor("C1", "out", "0", fF(5))
            return circuit

        auto = transient(build(), t_stop=ps(100), dt=ps(1))
        legacy = legacy_kernel.transient_legacy(build(), ps(100), ps(1))
        assert not auto.stats.fast_path
        assert np.max(np.abs(auto.solutions - legacy.solutions)) < 1e-9

    def test_inductor_circuit_fast_path(self):
        def lr():
            circuit = Circuit("lr")
            circuit.add_voltage_source(
                "V1", "in", "0", PulseWaveform(0.0, 1.0, delay=ps(10), rise=ps(1))
            )
            circuit.add_inductor("L1", "in", "mid", 1e-9)
            circuit.add_resistor("R1", "mid", "0", 100.0)
            return circuit

        fast = transient(lr(), t_stop=ps(100), dt=ps(0.5))
        lane = newton(lr(), ps(100), ps(0.5))
        assert fast.stats.fast_path
        assert np.max(np.abs(fast.solutions - lane.solutions)) < 1e-9


class TestPrepareOnceAndInvalidation:
    def test_assemble_requires_prepared_circuit(self):
        circuit = rc_ladder(num_segments=2)
        ctx = StampContext(x=np.zeros(1))
        with pytest.raises(RuntimeError, match="not prepared"):
            assemble(circuit, ctx)
        circuit.prepare()
        assemble(circuit, StampContext(x=np.zeros(circuit.num_unknowns)))

    def test_adding_an_element_invalidates_the_kernel(self):
        circuit = rc_ladder(num_segments=2)
        circuit.prepare()
        assert circuit.is_prepared
        circuit.add_resistor("REXTRA", "n2", "0", 1e3)
        assert not circuit.is_prepared
        with pytest.raises(RuntimeError, match="not prepared"):
            circuit.kernel
        # Analysis entry points re-prepare automatically.
        result = transient(circuit, t_stop=ps(50), dt=ps(1))
        assert circuit.is_prepared
        assert result.stats.fast_path

    def test_results_reflect_elements_added_between_runs(self):
        circuit = Circuit("divider")
        circuit.add_voltage_source("V1", "in", "0", 1.0)
        circuit.add_resistor("R1", "in", "out", 1e3)
        circuit.add_capacitor("C1", "out", "0", fF(1))
        first = transient(circuit, t_stop=ps(200), dt=ps(1))
        assert first["out"].values[-1] == pytest.approx(1.0, rel=1e-3)
        circuit.add_resistor("R2", "out", "0", 1e3)
        second = transient(circuit, t_stop=ps(200), dt=ps(1))
        assert second["out"].values[-1] == pytest.approx(0.5, rel=1e-3)

    def test_mutating_a_linear_value_invalidates_the_kernel(self):
        # Element values are compiled into the kernel; mutating one after
        # prepare() must not silently serve stale results.
        circuit = Circuit("divider")
        circuit.add_voltage_source("V1", "in", "0", 1.0)
        circuit.add_resistor("R1", "in", "out", 1e3)
        r2 = circuit.add_resistor("R2", "out", "0", 1e3)
        circuit.add_capacitor("C1", "out", "0", fF(1))
        first = transient(circuit, t_stop=ps(200), dt=ps(1))
        assert first["out"].values[-1] == pytest.approx(0.5, rel=1e-3)
        r2.resistance = 3e3
        assert not circuit.is_prepared
        second = transient(circuit, t_stop=ps(200), dt=ps(1))
        assert second["out"].values[-1] == pytest.approx(0.75, rel=1e-3)
        circuit["C1"].capacitance = fF(2)
        assert not circuit.is_prepared

    def test_waveform_swap_reuses_the_kernel(self):
        # The characterisation sweep pattern: mutate a source waveform
        # in place and re-run without touching the topology.
        circuit = Circuit("swap")
        source = circuit.add_voltage_source("V1", "in", "0", 0.5)
        circuit.add_resistor("R1", "in", "out", 1e3)
        circuit.add_capacitor("C1", "out", "0", fF(10))
        circuit.prepare()
        kernel = circuit.kernel
        first = transient(circuit, t_stop=ps(300), dt=ps(1))
        from repro.circuit import DCValue

        source.waveform = DCValue(1.0)
        second = transient(circuit, t_stop=ps(300), dt=ps(1))
        assert circuit.kernel is kernel  # no recompilation
        assert first["out"].values[-1] == pytest.approx(0.5, rel=1e-3)
        assert second["out"].values[-1] == pytest.approx(1.0, rel=1e-3)


class TestNodeVoltageContract:
    def test_unknown_node_raises_key_error(self):
        result = transient(rc_ladder(num_segments=2), t_stop=ps(50), dt=ps(1))
        with pytest.raises(KeyError, match="no_such_node"):
            result.node_voltage("no_such_node")
        with pytest.raises(KeyError):
            result["typo"]

    def test_ground_aliases_are_exactly_zero(self):
        result = transient(rc_ladder(num_segments=2), t_stop=ps(50), dt=ps(1))
        for alias in ("0", "gnd", "VSS", "GND!"):
            waveform = result[alias]
            assert np.all(waveform.values == 0.0)


class TestStatisticsPlumbing:
    def test_engine_statistics_merge_includes_kernel_counters(self):
        from repro.noise.engine import EngineStatistics

        a = EngineStatistics(
            num_time_points=10,
            newton_iterations=20,
            assemblies_avoided=15,
            lu_reuse_hits=9,
            matrix_factorizations=1,
            fast_path_runs=1,
        )
        b = EngineStatistics(assemblies_avoided=5, lu_reuse_hits=1, matrix_factorizations=2)
        a.merge(b)
        assert a.assemblies_avoided == 20
        assert a.lu_reuse_hits == 10
        assert a.matrix_factorizations == 3
        assert a.fast_path_runs == 1

    def test_newton_path_counts_avoided_assemblies(self):
        result = transient(mixed_element_circuit(), t_stop=ps(50), dt=ps(1))
        stats = result.stats
        # Every iteration after the first per (dt, method) key reuses the base.
        assert stats.assemblies_avoided > 0
        assert stats.newton_iterations >= stats.num_time_points

"""Tests for the noise-cluster models: engine, macromodel, baselines, golden."""

import numpy as np
import pytest

from repro.characterization import LibraryCharacterizer
from repro.circuit import Circuit, PulseWaveform, transient
from repro.golden import GoldenClusterAnalysis, build_golden_cluster_circuit
from repro.interconnect import ParallelBusGeometry
from repro.noise import (
    AggressorSpec,
    ClusterModelBuilder,
    DedicatedNoiseEngine,
    InputGlitchSpec,
    LinearSuperpositionAnalysis,
    MacromodelAnalysis,
    MacromodelNetwork,
    NoiseClusterSpec,
    TableVCCS,
    VictimSpec,
    ZolotovIterativeAnalysis,
    check_against_nrc,
    compare_results,
    compute_injected_noise,
    compute_per_aggressor_noise,
    victim_input_waveform,
)
from repro.technology import build_default_library
from repro.units import fF, ps


@pytest.fixture(scope="module")
def library():
    return build_default_library("cmos130")


@pytest.fixture(scope="module")
def characterizer(library):
    return LibraryCharacterizer(library, vccs_grid=13)


@pytest.fixture(scope="module")
def small_cluster():
    """A reduced-size Table-1-like cluster that keeps test runtimes low."""
    geometry = ParallelBusGeometry.two_parallel_wires(length_um=300.0, layer_index=4)
    return NoiseClusterSpec(
        victim=VictimSpec(
            net="victim",
            driver_cell="NAND2_X1",
            output_high=False,
            input_glitch=InputGlitchSpec(height=0.9, width=ps(200), start_time=ps(120)),
            receiver_cell="INV_X1",
        ),
        aggressors=[
            AggressorSpec(
                net="aggressor",
                driver_cell="INV_X2",
                rising=True,
                input_transition=ps(40),
                switch_time=ps(150),
            )
        ],
        geometry=geometry,
        num_segments=6,
        name="test_cluster",
    )


# ---------------------------------------------------------------------------
# Cluster specification
# ---------------------------------------------------------------------------

class TestClusterSpec:
    def test_describe_and_window(self, small_cluster):
        text = small_cluster.describe()
        assert "victim" in text and "aggressor" in text
        t_stop, dt = small_cluster.simulation_window()
        assert t_stop > ps(400)
        assert dt == ps(1)

    def test_validation(self):
        geometry = ParallelBusGeometry.two_parallel_wires(length_um=100.0)
        with pytest.raises(ValueError):
            NoiseClusterSpec(
                victim=VictimSpec(net="nosuch"),
                aggressors=[AggressorSpec(net="aggressor")],
                geometry=geometry,
            )
        with pytest.raises(ValueError):
            NoiseClusterSpec(
                victim=VictimSpec(net="victim"),
                aggressors=[AggressorSpec(net="victim")],
                geometry=geometry,
            )
        with pytest.raises(ValueError):
            NoiseClusterSpec(
                victim=VictimSpec(net="victim"),
                aggressors=[AggressorSpec(net="aggressor"), AggressorSpec(net="aggressor")],
                geometry=geometry,
            )
        with pytest.raises(ValueError):
            InputGlitchSpec(height=-0.1, width=ps(100), start_time=0.0)
        with pytest.raises(ValueError):
            InputGlitchSpec(height=0.5, width=0.0, start_time=0.0)

    def test_victim_arc_selection(self, library):
        victim = VictimSpec(net="victim", driver_cell="NAND2_X1", output_high=False, noisy_input_pin="B")
        arc = victim.arc(library["NAND2_X1"])
        assert arc.input_pin == "B"
        with pytest.raises(ValueError):
            VictimSpec(net="victim", driver_cell="NAND2_X1", noisy_input_pin="Q").arc(library["NAND2_X1"])

    def test_aggressor_lookup(self, small_cluster):
        assert small_cluster.aggressor("aggressor").driver_cell == "INV_X2"
        with pytest.raises(KeyError):
            small_cluster.aggressor("nosuch")
        assert small_cluster.num_aggressors == 1


# ---------------------------------------------------------------------------
# The dedicated engine
# ---------------------------------------------------------------------------

class TestDedicatedEngine:
    def test_linear_rc_matches_general_simulator(self):
        """The dedicated engine and the MNA simulator agree on a driven RC net."""
        r, c = 500.0, fF(50)
        source = PulseWaveform(0.0, 1.0, delay=ps(50), rise=ps(20))

        network = MacromodelNetwork("rc")
        network.add_conductance("drv", "0", 1.0 / r)
        network.add_current_source("drv", lambda t: source(t) / r)
        network.add_capacitance("drv", "0", c)
        engine = DedicatedNoiseEngine(network)
        waveform_engine = engine.simulate(ps(500), ps(1))["drv"]

        circuit = Circuit("rc")
        circuit.add_voltage_source("V1", "in", "0", source)
        circuit.add_resistor("R1", "in", "drv", r)
        circuit.add_capacitor("C1", "drv", "0", c)
        waveform_sim = transient(circuit, t_stop=ps(500), dt=ps(1))["drv"]

        assert waveform_engine.max_difference(waveform_sim) < 0.01

    def test_nonlinear_vccs_matches_general_simulator(self, library, characterizer):
        """The table VCCS gives the same waveform in both solvers."""
        cell = library["NAND2_X1"]
        arc = cell.noise_arcs(output_high=False)[0]
        surface = characterizer.load_surface("NAND2_X1", arc)
        waveform_in = victim_input_waveform(1.2, arc.glitch_rising,
                                            InputGlitchSpec(0.9, ps(200), ps(100)))
        vccs = TableVCCS(surface, waveform_in)

        load = fF(30)
        network = MacromodelNetwork("vccs")
        network.add_capacitance("out", "0", load)
        network.add_nonlinear_source("out", vccs.current)
        engine_waveform = DedicatedNoiseEngine(network).simulate(ps(500), ps(1))["out"]

        circuit = Circuit("vccs")
        circuit.add_capacitor("CL", "out", "0", load)
        vccs.attach_to_circuit(circuit, "VIC", "out")
        simulator_waveform = transient(circuit, t_stop=ps(500), dt=ps(1))["out"]

        assert engine_waveform.max_difference(simulator_waveform) < 0.02

    def test_thevenin_norton_equivalence(self, library, characterizer):
        model = characterizer.thevenin_driver("INV_X1", load_capacitance=fF(30))
        network = MacromodelNetwork("thev")
        network.add_thevenin_driver("out", model, extra_delay=ps(100))
        network.add_capacitance("out", "0", fF(30))
        waveform = DedicatedNoiseEngine(network).simulate(ps(800), ps(1))["out"]
        assert waveform.values[-1] == pytest.approx(library.technology.vdd, rel=0.02)

    def test_engine_statistics_and_validation(self):
        network = MacromodelNetwork("v")
        network.add_conductance("a", "0", 1e-3)
        network.add_capacitance("a", "0", fF(10))
        engine = DedicatedNoiseEngine(network)
        engine.simulate(ps(100), ps(1))
        assert engine.statistics.num_time_points == 100
        assert engine.statistics.runtime_seconds > 0.0
        with pytest.raises(ValueError):
            engine.simulate(0.0, ps(1))
        with pytest.raises(ValueError):
            network.add_conductance("a", "0", -1.0)
        with pytest.raises(ValueError):
            network.add_resistance("a", "0", 0.0)
        with pytest.raises(ValueError):
            network.add_capacitance("a", "0", -1e-15)


class TestEngineFactorizationSharing:
    @staticmethod
    def _network(name="shared"):
        source = PulseWaveform(0.0, 1.0, delay=ps(50), rise=ps(20))
        network = MacromodelNetwork(name)
        network.add_conductance("drv", "0", 1.0 / 500.0)
        network.add_current_source("drv", lambda t: source(t) / 500.0)
        network.add_capacitance("drv", "0", fF(50))
        return network

    def test_identical_networks_share_one_factorization(self):
        from repro.circuit.batched import FactorizationCache

        cache = FactorizationCache()
        first = DedicatedNoiseEngine(self._network(), solver_cache=cache)
        waveform_first = first.simulate(ps(300), ps(1))["drv"]
        assert first.statistics.matrix_factorizations >= 1
        assert first.statistics.factorizations_saved == 0

        second = DedicatedNoiseEngine(self._network("shared2"), solver_cache=cache)
        waveform_second = second.simulate(ps(300), ps(1))["drv"]
        # Same matrices, same dt: everything comes from the shared cache,
        # and reuse of a bit-identical factorization cannot move the result.
        assert second.statistics.matrix_factorizations == 0
        assert second.statistics.factorizations_saved >= 1
        assert waveform_first.max_difference(waveform_second) == 0.0

    def test_different_values_do_not_collide(self):
        from repro.circuit.batched import FactorizationCache

        cache = FactorizationCache()
        DedicatedNoiseEngine(self._network(), solver_cache=cache).simulate(
            ps(100), ps(1)
        )
        other = self._network("other")
        other.add_conductance("drv", "0", 1e-4)  # different matrix values
        engine = DedicatedNoiseEngine(other, solver_cache=cache)
        engine.simulate(ps(100), ps(1))
        assert engine.statistics.matrix_factorizations >= 1


    def test_warm_design_rerun_reuses_engine_factorizations(
        self, library, characterizer, monkeypatch
    ):
        """A session's cache holds a 24-net design's working set across reruns."""
        from repro.api import AnalysisConfig, NoiseAnalysisSession
        from repro.sna import StreamingClusterExtractor, SyntheticChip

        chip = SyntheticChip(num_nets=24, bus_width=6, topology="grid", seed=1)
        technology = library.technology
        spef = list(chip.spef_lines(technology))
        session = NoiseAnalysisSession(
            library,
            AnalysisConfig(methods=("macromodel",), vccs_grid=13, check_nrc=False),
            characterizer=characterizer,
        )

        def design_run():
            stream = StreamingClusterExtractor(chip, technology).extract(iter(spef))
            return session.run_design(stream=stream, design_name="warm")

        design_run()
        engines, acquisitions = [], []
        acquire = DedicatedNoiseEngine._acquire_solver
        simulate = DedicatedNoiseEngine.simulate

        def counting_acquire(self, matrix, dt_key):
            acquisitions.append(dt_key)
            return acquire(self, matrix, dt_key)

        def recording_simulate(self, *args, **kwargs):
            engines.append(self)
            return simulate(self, *args, **kwargs)

        monkeypatch.setattr(DedicatedNoiseEngine, "_acquire_solver", counting_acquire)
        monkeypatch.setattr(DedicatedNoiseEngine, "simulate", recording_simulate)
        report = design_run()
        assert len(engines) == len(report.clusters) == 24
        built = sum(engine.statistics.matrix_factorizations for engine in engines)
        saved = sum(engine.statistics.factorizations_saved for engine in engines)
        assert built + saved == len(acquisitions)
        assert saved >= 0.9 * len(acquisitions)


# ---------------------------------------------------------------------------
# Injected-noise helpers
# ---------------------------------------------------------------------------

class TestInjectedNoise:
    def test_injected_noise_positive_for_rising_aggressor(self, library, characterizer, small_cluster):
        builder = ClusterModelBuilder(library, small_cluster, characterizer=characterizer)
        waveform, runtime = compute_injected_noise(builder, dt=ps(2))
        metrics = waveform.glitch_metrics(baseline=0.0)
        assert metrics.peak > 0.02
        assert runtime > 0.0

    def test_per_aggressor_decomposition_sums_to_total(self, library, characterizer, small_cluster):
        builder = ClusterModelBuilder(library, small_cluster, characterizer=characterizer)
        total, _ = compute_injected_noise(builder, dt=ps(2))
        parts = compute_per_aggressor_noise(builder, dt=ps(2))
        assert set(parts) == {"aggressor"}
        # One aggressor: the decomposition must equal the total.
        assert parts["aggressor"].max_difference(total) < 0.01


# ---------------------------------------------------------------------------
# Full method comparison (integration)
# ---------------------------------------------------------------------------

class TestMethodComparison:
    @pytest.fixture(scope="class")
    def results(self, library, small_cluster):
        from repro.api import AnalysisConfig, NoiseAnalysisSession

        session = NoiseAnalysisSession(
            library, AnalysisConfig(vccs_grid=13, check_nrc=False)
        )
        report = session.analyze(
            small_cluster,
            methods=("golden", "macromodel", "superposition", "iterative_thevenin"),
            dt=ps(2),
        )
        return session, report

    def test_macromodel_tracks_golden_within_a_few_percent(self, results):
        res = results[1].results
        comparison = compare_results(res["golden"], res["macromodel"])
        assert abs(comparison["peak_error_pct"]) < 8.0
        assert abs(comparison["area_error_pct"]) < 10.0

    def test_superposition_underestimates_substantially(self, results):
        res = results[1].results
        comparison = compare_results(res["golden"], res["superposition"])
        assert comparison["peak_error_pct"] < -15.0
        assert comparison["area_error_pct"] < -15.0

    def test_iterative_thevenin_between_superposition_and_macromodel(self, results):
        res = results[1].results
        sup_err = abs(compare_results(res["golden"], res["superposition"])["peak_error_pct"])
        zol_err = abs(compare_results(res["golden"], res["iterative_thevenin"])["peak_error_pct"])
        assert zol_err < sup_err

    def test_macromodel_is_faster_than_golden(self, results):
        res = results[1].results
        assert res["macromodel"].runtime_seconds < res["golden"].runtime_seconds

    def test_comparison_table_format(self, results):
        _, report = results
        table = report.comparison_table()
        assert "golden" in table and "macromodel" in table
        with pytest.raises(KeyError):
            report.comparison_table(reference="nosuch")

    def test_result_summaries(self, results):
        res = results[1].results
        for result in res.values():
            text = result.summary()
            assert "peak" in text and "area" in text

    def test_nrc_check(self, results, library, small_cluster):
        session, report = results
        nrc = session.characterizer.noise_rejection_curve(
            small_cluster.victim.receiver_cell, widths=[ps(100), ps(300)]
        )
        check = check_against_nrc(report.results["macromodel"], nrc)
        assert check.failure_height > 0.0
        assert isinstance(check.fails, bool)
        assert "NRC" in check.describe() or "glitch" in check.describe()

    def test_unknown_method_rejected(self, results, small_cluster):
        session, _ = results
        with pytest.raises(ValueError):
            session.analyze(small_cluster, methods=("spice",))


class TestMacromodelOptions:
    def test_full_reduction_close_to_coupled_pi(self, library, characterizer, small_cluster):
        pi = MacromodelAnalysis(library, characterizer=characterizer, reduction="coupled_pi")
        full = MacromodelAnalysis(library, characterizer=characterizer, reduction="full")
        result_pi = pi.analyze(small_cluster, dt=ps(2))
        result_full = full.analyze(small_cluster, dt=ps(2))
        assert result_pi.peak == pytest.approx(result_full.peak, rel=0.10)
        assert result_pi.details["num_unknowns"] < result_full.details["num_unknowns"]

    def test_invalid_reduction_rejected(self, library, characterizer, small_cluster):
        builder = ClusterModelBuilder(library, small_cluster, characterizer=characterizer)
        with pytest.raises(ValueError):
            builder.wiring_network("awe42")

    def test_superposition_without_glitch_is_injected_only(self, library, characterizer, small_cluster):
        spec = NoiseClusterSpec(
            victim=VictimSpec(net="victim", driver_cell="NAND2_X1", output_high=False),
            aggressors=small_cluster.aggressors,
            geometry=small_cluster.geometry,
            num_segments=small_cluster.num_segments,
            name="no_glitch",
        )
        analysis = LinearSuperpositionAnalysis(library, characterizer=characterizer)
        result = analysis.analyze(spec, dt=ps(2))
        assert result.details["propagated_metrics"] is None
        assert result.peak > 0.0

    def test_zolotov_iterates(self, library, characterizer, small_cluster):
        analysis = ZolotovIterativeAnalysis(library, characterizer=characterizer, max_iterations=3)
        result = analysis.analyze(small_cluster, dt=ps(2))
        assert result.details["iterations"] >= 1
        assert result.details["final_resistance"] > 0.0


class TestGoldenCircuit:
    def test_golden_circuit_structure(self, library, small_cluster):
        circuit = build_golden_cluster_circuit(library, small_cluster)
        from repro.circuit import MOSFET

        fets = circuit.elements_of_type(MOSFET)
        # victim NAND2 (4) + aggressor INV (2) + two receiver INVs (2+2)
        assert len(fets) == 10
        assert circuit.has_node("victim:0")
        assert circuit.has_node("aggressor:0")
        assert circuit.has_node("vic_in")

    def test_golden_quiet_cluster_stays_quiet(self, library):
        """With no aggressor switching and no glitch, the victim stays at 0 V."""
        geometry = ParallelBusGeometry.two_parallel_wires(length_um=200.0)
        spec = NoiseClusterSpec(
            victim=VictimSpec(net="victim", driver_cell="NAND2_X1", output_high=False),
            aggressors=[AggressorSpec(net="aggressor", driver_cell="INV_X1", switch_time=ps(10000))],
            geometry=geometry,
            num_segments=4,
            name="quiet",
        )
        result = GoldenClusterAnalysis(library).analyze(spec, dt=ps(2), t_stop=ps(300))
        assert abs(result.peak) < 0.02


# ---------------------------------------------------------------------------
# Builder capacitance totals
# ---------------------------------------------------------------------------

def test_net_total_capacitance_equals_the_per_pair_sums(library, characterizer):
    """One-pass totals equal the per-pair network scans bit for bit."""
    from repro.sna import StreamingClusterExtractor, SyntheticChip

    chip = SyntheticChip(num_nets=12, bus_width=4, topology="grid", seed=2)
    technology = library.technology
    extractions = StreamingClusterExtractor(chip, technology).extract(
        iter(chip.spef_lines(technology))
    )
    checked = 0
    for extraction in extractions:
        builder = ClusterModelBuilder(library, extraction.spec, characterizer=characterizer)
        network = builder.full_network()
        for net in network.net_names:
            for factor in (1.0, builder.coupling_switching_factor):
                expected = network.total_ground_cap(net) + factor * sum(
                    network.total_coupling_cap(net, other)
                    for other in network.net_names
                    if other != net
                )
                assert builder.net_total_capacitance(net, factor) == expected
                checked += 1
    assert checked > 24

"""Differential tests of the PRIMA reduction subsystem (repro.reduction).

Every accuracy claim is checked against an unreduced reference: the sparse
(or dense) transient of the same circuit for the circuit-level path, the
dedicated macromodel engine for the reduced engine, and the pinned golden
fixture corpus for the end-to-end ``method="reduced"`` analysis.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import transient
from repro.interconnect import (
    make_coupled_pair,
    make_driven_circuit,
    make_rc_ladder,
    make_rc_mesh,
    make_rc_tree,
    make_victim_aggressor_circuit,
)
from repro.noise.engine import DedicatedNoiseEngine, MacromodelNetwork
from repro.reduction import (
    DEFAULT_REDUCTION_ORDER,
    ReducedOrderEngine,
    check_reduced_system,
    prima_project,
    prima_reduce_system,
    reduce_circuit,
)
from repro.units import fF, ps

#: Required relative accuracy of the default order on the synthetic
#: workloads (the bench gate enforces the same floor at benchmark sizes).
MAX_REL_ERROR = 1e-3

#: A full-order (square-basis) projection is a similarity transform; the
#: reduced transient must match the unreduced one to solver precision.
EXACT_TOL = 1e-7


def _rel_error(reference: np.ndarray, candidate: np.ndarray) -> float:
    scale = max(float(np.abs(reference).max()), 1e-30)
    return float(np.abs(reference - candidate).max()) / scale


def _fixed_wire_ladder(num_nodes, *, total_resistance=1.2e3, total_capacitance=fF(200)):
    """A fixed-size wire discretised into ``num_nodes`` segments.

    Scaling per-segment R and C with ``1/num_nodes`` keeps the net's time
    constant independent of the discretisation, so the same simulation
    window exercises every size.
    """
    return make_rc_ladder(
        num_nodes,
        segment_resistance=total_resistance / num_nodes,
        node_capacitance=total_capacitance / num_nodes,
    )


def _reference_waveform(circuit, node, *, t_stop, dt):
    result = transient(circuit, t_stop, dt)
    return result.node_voltage(node).values


class TestPrimaProject:
    def test_basis_is_orthonormal(self):
        circuit = make_driven_circuit(make_rc_ladder(30))
        circuit.prepare()
        d = circuit.kernel.descriptor_system(gmin=circuit.gmin)
        V = prima_project(d.G, d.C, d.B, order=6)
        assert np.allclose(V.T @ V, np.eye(V.shape[1]), atol=1e-10)

    def test_order_saturates_at_reachable_subspace(self):
        # The basis stops growing once it spans the reachable Krylov
        # subspace (at most n columns; fewer when C is rank-deficient) --
        # requesting more iterations never loops or over-fills.
        circuit = make_driven_circuit(make_rc_ladder(10))
        circuit.prepare()
        d = circuit.kernel.descriptor_system(gmin=circuit.gmin)
        V = prima_project(d.G, d.C, d.B, order=1000)
        assert V.shape[0] == d.num_unknowns
        assert V.shape[1] <= d.num_unknowns
        again = prima_project(d.G, d.C, d.B, order=2000)
        assert again.shape == V.shape

    def test_invalid_inputs_rejected(self):
        G = np.eye(3)
        C = np.eye(3)
        with pytest.raises(ValueError):
            prima_project(G, C, np.zeros((3, 1)), order=2)
        with pytest.raises(ValueError):
            prima_project(G, C, np.eye(3)[:, :1], order=0)

    def test_singular_g_falls_back_to_shifted_expansion(self):
        # A floating RC pair: G is singular at DC, so the projector must
        # re-expand about its trace-ratio corner frequency.
        G = np.array([[1e-3, -1e-3], [-1e-3, 1e-3]])
        C = np.diag([fF(5), fF(2)])
        B = np.array([[1.0], [0.0]])
        V = prima_project(G, C, B, order=2)
        assert V.shape == (2, 2)
        assert np.allclose(V.T @ V, np.eye(2), atol=1e-10)


class TestReducedCircuitPath:
    def test_full_order_is_exact(self):
        net = make_rc_ladder(40, coupling_capacitance=fF(1))
        circuit = make_driven_circuit(net)
        circuit.prepare()
        reduced = reduce_circuit(circuit, order=circuit.num_unknowns)
        assert reduced.order == circuit.num_unknowns
        run = reduced.transient(ps(400), ps(1))
        node = net.receiver_nodes["vic"]
        reference = _reference_waveform(circuit, node, t_stop=ps(400), dt=ps(1))
        assert np.allclose(run.times, transient(circuit, ps(400), ps(1)).times)
        assert float(np.abs(run.node_voltage(node) - reference).max()) < EXACT_TOL

    def test_error_decreases_monotonically_with_order(self):
        # A fixed 1.2 kOhm / 200 fF wire discretised into 300 segments:
        # refining the discretisation must not slow the net down, so the
        # per-segment values scale with 1/n (the MOR benchmark idiom).
        net = _fixed_wire_ladder(300)
        circuit = make_driven_circuit(net)
        node = net.receiver_nodes["vic"]
        reference = _reference_waveform(circuit, node, t_stop=ps(500), dt=ps(1))
        errors = []
        for order in (2, 4, 8):
            run = reduce_circuit(circuit, order=order).transient(ps(500), ps(1))
            errors.append(_rel_error(reference, run.node_voltage(node)))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < MAX_REL_ERROR

    @pytest.mark.parametrize(
        "make_circuit, node",
        [
            (
                lambda: make_driven_circuit(make_rc_tree(200, branching=3)),
                "tree:200",
            ),
            (
                lambda: make_victim_aggressor_circuit(
                    make_coupled_pair(
                        120,
                        segment_resistance=1.2e3 / 120,
                        node_capacitance=fF(200) / 120,
                        coupling_capacitance=fF(100) / 120,
                    )
                ),
                "vic:120",
            ),
            (
                lambda: make_driven_circuit(make_rc_mesh(12, 12)),
                "mesh:11.11",
            ),
        ],
    )
    def test_default_order_meets_error_floor(self, make_circuit, node):
        circuit = make_circuit()
        reference = _reference_waveform(circuit, node, t_stop=ps(400), dt=ps(1))
        run = reduce_circuit(circuit, order=DEFAULT_REDUCTION_ORDER).transient(
            ps(400), ps(1)
        )
        assert _rel_error(reference, run.node_voltage(node)) < MAX_REL_ERROR

    @given(
        num_nodes=st.integers(20, 90),
        total_resistance=st.floats(200.0, 2e3),
        total_capacitance=st.floats(50.0, 400.0),
        tree=st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_random_networks_meet_error_floor(
        self, num_nodes, total_resistance, total_capacitance, tree
    ):
        # Random fixed-size wires (so the response always fits the window)
        # discretised into a random number of ladder or tree segments.
        segment_r = total_resistance / num_nodes
        segment_c = total_capacitance * fF(1) / num_nodes
        if tree:
            net = make_rc_tree(
                num_nodes,
                segment_resistance=segment_r,
                node_capacitance=segment_c,
            )
            node = f"tree:{num_nodes}"
        else:
            net = make_rc_ladder(
                num_nodes,
                segment_resistance=segment_r,
                node_capacitance=segment_c,
            )
            node = f"vic:{num_nodes}"
        circuit = make_driven_circuit(net)
        reference = _reference_waveform(circuit, node, t_stop=ps(300), dt=ps(1))
        run = reduce_circuit(circuit, order=DEFAULT_REDUCTION_ORDER).transient(
            ps(300), ps(1)
        )
        assert _rel_error(reference, run.node_voltage(node)) < MAX_REL_ERROR

    def test_keep_nodes_validates_names(self):
        circuit = make_driven_circuit(make_rc_ladder(10))
        with pytest.raises(KeyError):
            reduce_circuit(circuit, keep_nodes=["no_such_node"])


class TestStabilityReport:
    def test_symmetric_rc_reduction_is_passive_and_stable(self):
        net = make_rc_ladder(80, coupling_capacitance=fF(1))
        G, C, _nodes = net.matrices()
        G = G + 1e-9 * np.eye(G.shape[0])
        B = np.zeros((G.shape[0], 1))
        B[0, 0] = 1.0
        reduced = prima_reduce_system(G, C, B, order=8)
        report = check_reduced_system(reduced)
        assert report.symmetric
        assert report.passive
        assert report.stable
        assert report.max_pole_real_part < 0.0
        assert "passive=True" in report.summary()

    def test_mna_bordered_reduction_is_passive_and_stable(self):
        # Voltage-source branch rows: non-symmetric, but the PRIMA sign
        # convention keeps the symmetric part PSD.
        circuit = make_driven_circuit(make_rc_ladder(50))
        reduced = reduce_circuit(circuit, order=10)
        report = check_reduced_system(reduced.reduced)
        assert not report.symmetric
        assert report.passive
        assert report.stable


def _engine_network(num_nodes):
    net = make_rc_ladder(num_nodes, coupling_capacitance=0.0)
    network = MacromodelNetwork("engine_diff")
    network.import_rc_network(net)
    driver = net.driver_nodes["vic"]
    receiver = net.receiver_nodes["vic"]
    network.add_holding_resistor(receiver, 5e4, 1.2)
    network.add_current_source(
        driver, lambda t: 1e-4 * np.exp(-(((t - 2e-10) / 5e-11) ** 2))
    )
    return network, driver, receiver


class TestReducedOrderEngine:
    def test_linear_matches_dedicated_engine(self):
        network, driver, receiver = _engine_network(60)
        reference = DedicatedNoiseEngine(network).simulate(
            ps(800), ps(1), observe=[receiver]
        )
        engine = ReducedOrderEngine(network, reduction_order=DEFAULT_REDUCTION_ORDER)
        waveforms = engine.simulate(ps(800), ps(1), observe=[receiver])
        assert engine.order < network.num_nodes
        assert _rel_error(
            reference[receiver].values, waveforms[receiver].values
        ) < MAX_REL_ERROR
        assert engine.statistics.fast_path_runs == 1

    def test_nonlinear_victim_matches_dedicated_engine(self):
        network, driver, receiver = _engine_network(60)

        def clamp(t, v):
            conductance = 5e-3
            if v > 1.2:
                return -conductance * (v - 1.2), -conductance
            return 0.0, 0.0

        network.add_nonlinear_source(receiver, clamp)
        reference = DedicatedNoiseEngine(network).simulate(
            ps(800), ps(1), observe=[receiver]
        )
        engine = ReducedOrderEngine(network, reduction_order=DEFAULT_REDUCTION_ORDER)
        waveforms = engine.simulate(ps(800), ps(1), observe=[receiver])
        assert _rel_error(
            reference[receiver].values, waveforms[receiver].values
        ) < MAX_REL_ERROR
        assert engine.statistics.newton_iterations > 0

    def test_requires_an_injection_site(self):
        network = MacromodelNetwork("no_sources")
        network.add_resistance("a", "b", 100.0)
        network.add_capacitance("b", "0", fF(4))
        with pytest.raises(ValueError):
            ReducedOrderEngine(network)


FIXTURE_PATH = Path(__file__).parent.parent / "fixtures" / "golden_clusters.json"

#: End-to-end tolerance of the reduced method against the pinned golden
#: (transistor-level) corpus.  The reduced path keeps the full wiring, so
#: its macromodel error budget matches the macromodel method's: a few
#: percent on peak/area/width (the paper's Tables 1-2 ballpark).
FIXTURE_RTOL = 0.075


class TestReducedAnalysisEndToEnd:
    def test_reduced_method_tracks_pinned_golden_corpus(self):
        from repro.api import AnalysisConfig, NoiseAnalysisSession
        from repro.experiments import accuracy_sweep_clusters
        from repro.technology import build_default_library

        pinned = json.loads(FIXTURE_PATH.read_text())["clusters"]
        cases = accuracy_sweep_clusters(technologies=("cmos130",), quick=True)
        config = AnalysisConfig(
            methods=("reduced",),
            vccs_grid=13,
            check_nrc=False,
            reduction_threshold=0,  # force projection even for small clusters
        )
        session = NoiseAnalysisSession(build_default_library("cmos130"), config)
        reports = session.analyze_many(
            [case.spec for case in cases],
            labels=[case.label for case in cases],
            on_error="raise",
        )
        for report in reports:
            result = report.results["reduced"]
            assert result.method.startswith("reduced(order=")
            assert result.details["reduced"] is True
            golden = pinned[report.label]["golden"]
            for scalar in ("peak", "area_v_ps", "width_ps"):
                reference = golden[scalar]
                value = getattr(result, scalar)
                assert value == pytest.approx(reference, rel=FIXTURE_RTOL), (
                    f"{report.label}: {scalar} reduced={value} golden={reference}"
                )

    def test_small_cluster_falls_back_to_direct_engine(self):
        from repro.api import AnalysisConfig, NoiseAnalysisSession
        from repro.experiments import accuracy_sweep_clusters
        from repro.technology import build_default_library

        cases = accuracy_sweep_clusters(technologies=("cmos130",), quick=True)[:1]
        config = AnalysisConfig(methods=("reduced",), vccs_grid=9, check_nrc=False)
        session = NoiseAnalysisSession(build_default_library("cmos130"), config)
        report = session.analyze_many(
            [cases[0].spec], labels=[cases[0].label], on_error="raise"
        )[0]
        result = report.results["reduced"]
        # Paper-sized clusters sit far below REDUCTION_AUTO_THRESHOLD.
        assert result.method == "reduced(direct)"
        assert result.details["reduced"] is False

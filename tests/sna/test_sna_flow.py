"""Tests for the full-design SNA flow: design DB, parasitics, extraction, report."""

import pytest

from repro.api import AnalysisConfig, NoiseAnalysisSession
from repro.noise import InputGlitchSpec
from repro.sna import (
    ClusterExtractor,
    Design,
    ExtractionConfig,
    SPEFError,
    annotate_design,
    read_coupling_file,
    write_coupling_file,
)
from repro.technology import build_default_library
from repro.units import ps


@pytest.fixture(scope="module")
def library():
    return build_default_library("cmos130")


@pytest.fixture()
def design(library):
    d = Design("testchip", library)
    for pin in ("a", "b", "c", "en"):
        d.add_primary_input(pin)
    d.add_net("n1", length_um=350, layer_index=4)
    d.add_net("n2", length_um=350, layer_index=4)
    d.add_net("n3", length_um=250, layer_index=3)
    d.add_instance("u1", "NAND2_X1", {"A": "a", "B": "b", "Z": "n1"})
    d.add_instance("u2", "INV_X2", {"A": "c", "Z": "n2"})
    d.add_instance("u3", "NOR2_X1", {"A": "en", "B": "a", "Z": "n3"})
    d.add_instance("r1", "INV_X1", {"A": "n1", "Z": "o1"})
    d.add_instance("r2", "INV_X1", {"A": "n2", "Z": "o2"})
    d.add_instance("r3", "INV_X1", {"A": "n3", "Z": "o3"})
    d.add_coupling("n1", "n2", 300.0)
    d.add_coupling("n1", "n3", 120.0)
    return d


class TestDesign:
    def test_connectivity_queries(self, design, library):
        assert design.driver_of("n1").name == "u1"
        assert design.driver_of("a") is None
        receivers = design.receivers_of("n1")
        assert [(inst.name, pin) for inst, pin in receivers] == [("r1", "A")]
        aggressors = dict(design.aggressors_of("n1"))
        assert aggressors == {"n2": 300.0, "n3": 120.0}
        assert design.net_quiet_level("n1") is False
        assert "6 instances" in design.summary()

    def test_validation(self, design, library):
        with pytest.raises(ValueError):
            design.add_net("n1")
        with pytest.raises(ValueError):
            design.add_instance("u1", "INV_X1", {"A": "a", "Z": "x"})
        with pytest.raises(KeyError):
            design.add_instance("u9", "NOSUCH", {"A": "a", "Z": "x"})
        with pytest.raises(ValueError):
            design.add_instance("u9", "NAND2_X1", {"A": "a", "Z": "x"})  # pin B unconnected
        with pytest.raises(KeyError):
            design.add_coupling("n1", "ghost", 10.0)


class TestParasitics:
    def test_round_trip(self, design):
        text = write_coupling_file(design)
        data = read_coupling_file(text)
        assert data["nets"]["n1"]["length_um"] == pytest.approx(350.0)
        assert data["nets"]["n1"]["layer_index"] == 4
        assert len(data["couplings"]) == 2

    def test_annotation(self, library):
        d = Design("annotated", library)
        d.add_primary_input("a")
        d.add_instance("u1", "INV_X1", {"A": "a", "Z": "n1"})
        d.add_instance("u2", "INV_X1", {"A": "n1", "Z": "o1"})
        text = """// test parasitics
*NET n1 *LENGTH 420 *LAYER 5
*NET n9 *LENGTH 100 *LAYER 2
*COUPLING n1 n9 200
"""
        annotate_design(d, text, allow_new_nets=True)
        assert d.nets["n1"].length_um == pytest.approx(420.0)
        assert d.nets["n1"].layer_index == 5
        assert "n9" in d.nets
        assert d.aggressors_of("n1") == [("n9", 200.0)]

    def test_annotation_rejects_unknown_nets_by_default(self, library):
        d = Design("annotated", library)
        d.add_primary_input("a")
        d.add_instance("u1", "INV_X1", {"A": "a", "Z": "n1"})
        text = "*NET n1 *LENGTH 420 *LAYER 5\n*NET n9 *LENGTH 100 *LAYER 2\n"
        with pytest.raises(SPEFError, match="n9") as excinfo:
            annotate_design(d, text)
        assert "allow_new_nets" in str(excinfo.value)
        # Nothing was applied: the design is untouched on failure.
        assert d.nets["n1"].length_um == pytest.approx(100.0)
        assert "n9" not in d.nets

    def test_errors(self):
        with pytest.raises(SPEFError):
            read_coupling_file("*NET n1 *BOGUS 3")
        with pytest.raises(SPEFError):
            read_coupling_file("*WHAT n1")
        with pytest.raises(SPEFError):
            read_coupling_file("*COUPLING n1 n2 not_a_number")
        assert read_coupling_file("// only a comment\n") == {"nets": {}, "couplings": []}


class TestFlow:
    def test_victim_candidates_and_extraction(self, design):
        extractor = ClusterExtractor(design, config=ExtractionConfig(num_segments=4))
        candidates = extractor.victim_candidates()
        assert candidates == ["n1", "n2", "n3"]
        extraction = extractor.extract_cluster("n1")
        assert extraction.victim_net == "n1"
        assert set(extraction.aggressor_nets) == {"n2", "n3"}
        assert extraction.spec.victim.driver_cell == "NAND2_X1"
        assert extraction.spec.victim.receiver_cell == "INV_X1"
        # The strongest aggressor couples adjacently to the victim.
        wires = [w.name for w in extraction.spec.geometry.wires]
        victim_index = wires.index("n1")
        assert "n2" in (wires[victim_index - 1], wires[(victim_index + 1) % len(wires)])

    def test_extraction_errors(self, design):
        with pytest.raises(ValueError):
            ClusterExtractor(design).extract_cluster("a")  # primary input has no driver

    def test_run_design_replacement_produces_report(self, design):
        extractor = ClusterExtractor(
            design,
            config=ExtractionConfig(num_segments=4),
            input_glitches={"n1": InputGlitchSpec(height=0.8, width=ps(200), start_time=ps(120))},
        )
        report = NoiseAnalysisSession(design.library, AnalysisConfig()).run_design(
            design,
            extractor=extractor,
            methods=("macromodel",),
            dt=ps(2),
            check_nrc=False,
        )
        assert len(report.clusters) == 3
        assert report.total_runtime_seconds > 0.0
        text = report.text()
        assert "n1" in text and "violations" in text
        n1 = report.cluster("n1").primary
        n2 = report.cluster("n2").primary
        # The weakly-driven NAND2 net with a glitch sees more noise than the
        # strongly-driven INV_X2 net.
        assert n1.peak > n2.peak
        assert not report.cluster("n1").fails  # NRC not checked

    def test_max_aggressor_filtering(self, design):
        extractor = ClusterExtractor(
            design, config=ExtractionConfig(max_aggressors=1, num_segments=4)
        )
        extraction = extractor.extract_cluster("n1")
        assert len(extraction.aggressor_nets) == 1
        assert extraction.skipped_aggressors == ["n3"]


class TestExperimentConfigurations:
    def test_table_and_figure_specs(self):
        from repro.experiments import figure1_cluster, table1_cluster, table2_cluster

        t1 = table1_cluster()
        assert t1.num_aggressors == 1
        assert t1.victim.input_glitch is not None
        t2 = table2_cluster()
        assert t2.num_aggressors == 2
        assert {a.net for a in t2.aggressors} == {"aggr1", "aggr2"}
        assert t2.aggressors[0].switch_time == t2.aggressors[1].switch_time
        f1 = figure1_cluster()
        assert f1.victim.input_glitch is None
        assert f1.num_aggressors == 2

    def test_accuracy_sweep_covers_both_technologies(self):
        from repro.experiments import accuracy_sweep_clusters

        cases = accuracy_sweep_clusters(quick=True)
        technologies = {case.technology for case in cases}
        assert technologies == {"cmos130", "cmos90"}
        full = accuracy_sweep_clusters()
        assert len(full) > len(cases)
        labels = {case.label for case in full}
        assert len(labels) == len(full)

    def test_default_library_helper(self):
        from repro.experiments import default_library

        assert default_library("cmos90").technology.name == "cmos90"

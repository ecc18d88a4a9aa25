"""The 0.1-era facades are gone (deleted in 0.4.0); their replacements work.

``StaticNoiseAnalysisFlow`` was a :class:`ClusterExtractor` plus a
:class:`NoiseAnalysisSession`; these cases pin the migration table in
API.md on those two.
"""

import warnings

import pytest

from repro.api import AnalysisConfig, NoiseAnalysisSession
from repro.sna import ClusterExtractor, Design, ExtractionConfig
from repro.technology import build_default_library
from repro.units import ps


@pytest.fixture(scope="module")
def library():
    return build_default_library("cmos130")


@pytest.fixture(scope="module")
def design(library):
    design = Design("depchip", library)
    for pin in ("a", "b", "c"):
        design.add_primary_input(pin)
    design.add_net("n1", length_um=350, layer_index=4)
    design.add_net("n2", length_um=350, layer_index=4)
    design.add_instance("u1", "NAND2_X1", {"A": "a", "B": "b", "Z": "n1"})
    design.add_instance("u2", "INV_X2", {"A": "c", "Z": "n2"})
    design.add_instance("r1", "INV_X1", {"A": "n1", "Z": "o1"})
    design.add_instance("r2", "INV_X1", {"A": "n2", "Z": "o2"})
    design.add_coupling("n1", "n2", 300.0)
    return design


class TestStaticNoiseAnalysisFlowRunRemoved:
    def test_extraction_passthroughs_still_work(self, design):
        """The flow's extraction surface lives on ``ClusterExtractor``, warning-free."""
        extractor = ClusterExtractor(
            design, config=ExtractionConfig(num_segments=4, max_aggressors=1)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            candidates = extractor.victim_candidates()
            extraction = extractor.extract_cluster("n1")
        assert candidates == ["n1", "n2"]
        assert extraction.victim_net == "n1"
        assert extractor.config.num_segments == 4
        assert extractor.config.max_aggressors == 1

    def test_documented_replacement_produces_the_report(self, library, design):
        """The migration table's ``flow.run()`` row actually works."""
        extractor = ClusterExtractor(design, config=ExtractionConfig(num_segments=4))
        session = NoiseAnalysisSession(library, AnalysisConfig())
        report = session.run_design(
            design,
            extractor=extractor,
            methods=("macromodel",),
            dt=ps(2),
            check_nrc=False,
        )
        assert [c.victim_net for c in report.clusters] == ["n1", "n2"]

    def test_session_replacement_standalone(self, library, design):
        session = NoiseAnalysisSession(library, AnalysisConfig(check_nrc=False))
        report = session.run_design(
            design,
            extraction=ExtractionConfig(num_segments=4),
            methods=("macromodel",),
            dt=ps(2),
        )
        assert len(report.clusters) == 2

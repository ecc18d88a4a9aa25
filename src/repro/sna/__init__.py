"""Full-design static noise analysis: design DB, parasitics, extraction.

A minimal but complete SNA substrate built on the noise macromodel: design
database, coupling-parasitics annotation and noise-cluster extraction
(:class:`ClusterExtractor`).  Per-cluster analysis and NRC-based violation
reporting are driven by :meth:`repro.api.NoiseAnalysisSession.run_design`.
"""

from .design import CouplingAnnotation, Design, DesignConnectivity, Instance, Net
from .extraction import ClusterExtraction, ClusterExtractor, ExtractionConfig, build_cluster
from .spef import (
    CouplingDeclaration,
    NetClosed,
    NetDeclaration,
    SPEFError,
    annotate_design,
    parse_spef,
    read_coupling_file,
    write_coupling_file,
)
from .stream import (
    DesignRoles,
    NetRole,
    StreamingClusterExtractor,
    StreamStats,
    StreamWindowExceeded,
)
from .synth_design import SyntheticChip

__all__ = [
    "Design",
    "DesignConnectivity",
    "Instance",
    "Net",
    "CouplingAnnotation",
    "ClusterExtractor",
    "ExtractionConfig",
    "ClusterExtraction",
    "build_cluster",
    "parse_spef",
    "NetDeclaration",
    "CouplingDeclaration",
    "NetClosed",
    "read_coupling_file",
    "write_coupling_file",
    "annotate_design",
    "SPEFError",
    "StreamingClusterExtractor",
    "DesignRoles",
    "NetRole",
    "StreamStats",
    "StreamWindowExceeded",
    "SyntheticChip",
]

"""Unified public API for every analysis in the repo.

This package is the single front door the paper's "complete SNA methodology"
deserves: a frozen :class:`AnalysisConfig`, a pluggable analysis-method
registry (:func:`register_method` / :func:`list_methods`) and the
:class:`NoiseAnalysisSession` whose ``analyze`` / ``analyze_many`` /
``run_design`` entry points are the one way to analyze a cluster, a batch
or a whole design.

Quick start::

    from repro.api import AnalysisConfig, NoiseAnalysisSession
    from repro.experiments import default_library, table1_cluster

    session = NoiseAnalysisSession(
        default_library("cmos130"),
        AnalysisConfig(methods=("golden", "macromodel"), check_nrc=True),
    )
    report = session.analyze(table1_cluster())
    print(report.comparison_table())
"""

from .config import DEFAULT_METHODS, AnalysisConfig
from .registry import (
    AnalysisMethod,
    DuplicateMethodError,
    MethodContext,
    UnknownMethodError,
    create_method,
    list_methods,
    method_descriptions,
    register_method,
    unregister_method,
)
from .report import ClusterError, ClusterReport, SessionReport
from .session import NoiseAnalysisSession
from .wire import SCHEMA_VERSION, WireFormatError

__all__ = [
    "AnalysisConfig",
    "DEFAULT_METHODS",
    "AnalysisMethod",
    "MethodContext",
    "UnknownMethodError",
    "DuplicateMethodError",
    "register_method",
    "unregister_method",
    "list_methods",
    "method_descriptions",
    "create_method",
    "ClusterError",
    "ClusterReport",
    "SessionReport",
    "NoiseAnalysisSession",
    "SCHEMA_VERSION",
    "WireFormatError",
]

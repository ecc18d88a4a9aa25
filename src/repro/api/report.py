"""Typed result aggregation for analysis sessions.

A :class:`ClusterReport` collects everything one ``analyze`` call produced
for one noise cluster: the per-method :class:`NoiseAnalysisResult` objects,
the NRC verdicts and the wall-clock runtime.  A :class:`SessionReport`
aggregates the cluster reports of a batch (``analyze_many``) or design run
(``run_design``) together with engine statistics, one structure every
caller shares.
"""

from __future__ import annotations

import traceback as _traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..noise.analysis import NRCCheck
from ..noise.cluster import NoiseClusterSpec
from ..noise.engine import EngineStatistics
from ..noise.results import NoiseAnalysisResult, format_comparison_table
from . import wire

__all__ = ["ClusterError", "ClusterReport", "SessionReport", "exception_chain"]


def exception_chain(exc: BaseException) -> Tuple[str, ...]:
    """``("Type: message", ...)`` for ``exc`` and its cause/context chain.

    Walks ``__cause__`` first (explicit ``raise ... from``), falling back to
    ``__context__``, with cycle protection -- the same order tracebacks
    print the chain.  The first entry is the outermost exception.
    """
    entries: List[str] = []
    seen = set()
    current: Optional[BaseException] = exc
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        entries.append(f"{type(current).__name__}: {current}")
        current = current.__cause__ or current.__context__
    return tuple(entries)


@dataclass(frozen=True)
class ClusterError:
    """Structured record of one cluster analysis that raised.

    Batch entry points (``analyze_many`` with ``on_error="collect"``, the
    scenario sweep runner) attach this to the failed cluster's report instead
    of aborting the whole batch, so a failing scenario stays visible -- with
    enough context to reproduce it -- while its siblings complete.
    """

    exception_type: str
    message: str
    #: Formatted traceback (``traceback.format_exc`` of the failure).
    traceback_text: str = ""
    #: Registry name of the analysis method that was running when the
    #: failure happened; empty when the failure preceded method dispatch
    #: (characterisation, model building, NRC lookup).
    method: str = ""
    #: ``"Type: message"`` entries of the exception and its ``__cause__`` /
    #: ``__context__`` chain, outermost first.  A ``SingularMatrixError``
    #: wrapped in a builder failure stays diagnosable from the report alone.
    cause_chain: Tuple[str, ...] = ()

    @classmethod
    def from_exception(cls, exc: BaseException, *, method: str = "") -> "ClusterError":
        """Build the structured record from a live exception (with chain)."""
        return cls(
            exception_type=type(exc).__name__,
            message=str(exc),
            traceback_text=_traceback.format_exc(),
            method=method or getattr(exc, "_repro_active_method", ""),
            cause_chain=exception_chain(exc),
        )

    def summary(self) -> str:
        where = f" in method '{self.method}'" if self.method else ""
        return f"{self.exception_type}{where}: {self.message}"


@dataclass
class ClusterReport:
    """Everything the session computed for one noise cluster."""

    label: str
    spec: NoiseClusterSpec
    #: Per-method results, in the order the methods were run.
    results: Dict[str, NoiseAnalysisResult]
    #: Per-method NRC verdicts (empty when NRC checking was off).
    nrc_checks: Dict[str, NRCCheck] = field(default_factory=dict)
    runtime_seconds: float = 0.0
    #: Victim net name when the cluster came out of a design run.
    victim_net: str = ""
    #: Set when the analysis of this cluster failed (batch error collection);
    #: ``results`` is then empty -- a cluster either completes every
    #: requested method or reports the failure, never a partial answer.
    error: Optional[ClusterError] = None
    #: One line per rejected attempt when the numerical degradation ladder
    #: (:func:`repro.resilience.resilient_analyze`) produced this report
    #: from a lower rung; empty for a first-try result.
    degradation: Tuple[str, ...] = ()
    #: How the analysis service obtained this report: ``"recomputed"`` when a
    #: worker ran the cluster, ``"reused"`` when the server's result store
    #: satisfied the fingerprint without touching the pool, ``""`` for
    #: reports produced outside the service.  Annotated at merge time so the
    #: stored report itself stays provenance-free.
    provenance: str = ""

    @property
    def ok(self) -> bool:
        """Whether this cluster's analysis completed without error."""
        return self.error is None

    @property
    def primary_method(self) -> str:
        """Registry name of the first method run (the session's main answer)."""
        if not self.results:
            raise ValueError(
                f"cluster {self.label!r} has no results"
                + (f" (failed: {self.error.summary()})" if self.error else "")
            )
        return next(iter(self.results))

    @property
    def primary(self) -> NoiseAnalysisResult:
        """Result of the first method run."""
        return self.results[self.primary_method]

    def result(self, method: Optional[str] = None) -> NoiseAnalysisResult:
        """Result of ``method`` (default: the primary method)."""
        if method is None:
            return self.primary
        if method not in self.results and self.error is not None:
            # Point the consumer at the real failure instead of leaving them
            # with a bare KeyError on an error-collected report.
            raise KeyError(
                f"cluster {self.label!r} has no {method!r} result; its analysis "
                f"failed: {self.error.summary()}"
            )
        return self.results[method]

    def nrc_check(self, method: Optional[str] = None) -> Optional[NRCCheck]:
        """NRC verdict of ``method`` (default: the primary method), if checked."""
        if method is None and not self.results:
            return None
        return self.nrc_checks.get(method or self.primary_method)

    @property
    def fails(self) -> bool:
        """Whether the primary method's glitch violates the receiver NRC."""
        check = self.nrc_check()
        return bool(check and check.fails)

    def comparison_table(self, reference: str = "golden") -> str:
        """The paper-style method-comparison table for this cluster."""
        return format_comparison_table(self.results, reference)

    def engine_statistics(self) -> EngineStatistics:
        """Summed solver statistics of every method run on this cluster.

        Both the dedicated macromodel engine and the golden transistor-level
        simulation publish an ``EngineStatistics`` (time points, Newton
        iterations, assemblies avoided, LU reuses) in their result details.
        """
        total = EngineStatistics()
        for result in self.results.values():
            stats = result.details.get("engine_statistics")
            if isinstance(stats, EngineStatistics):
                total.merge(stats)
        return total

    def summary(self) -> str:
        if self.error is not None:
            return f"{self.label:24s} ERROR  {self.error.summary()}"
        result = self.primary
        status = "FAIL" if self.fails else ("pass" if self.nrc_checks else "n/a")
        return (
            f"{self.label:24s} {result.method:24s} peak={result.peak:+.4f} V  "
            f"area={result.area_v_ps:8.2f} V*ps  [{status}]"
        )

    # ---------------------------------------------------------------- wire

    def to_json(self) -> Dict:
        """Lossless, versioned JSON payload (see :mod:`repro.api.wire`)."""
        return wire.wrap("cluster_report", self)

    @classmethod
    def from_json(cls, payload: Dict) -> "ClusterReport":
        """Rebuild a report from its :meth:`to_json` payload."""
        report = wire.unwrap(payload, "cluster_report")
        if not isinstance(report, cls):
            raise wire.WireFormatError(
                f"cluster_report payload decoded to {type(report).__name__!r}"
            )
        return report


@dataclass
class SessionReport:
    """Aggregated outcome of a batch or design-level session run."""

    clusters: List[ClusterReport]
    methods: Tuple[str, ...]
    total_runtime_seconds: float
    design_name: str = ""

    def __iter__(self):
        return iter(self.clusters)

    def __len__(self) -> int:
        return len(self.clusters)

    def cluster(self, label: str) -> ClusterReport:
        """The report of the cluster labelled ``label`` (or its victim net)."""
        for report in self.clusters:
            if report.label == label or report.victim_net == label:
                return report
        raise KeyError(f"no cluster labelled {label!r} in this report")

    @property
    def violations(self) -> List[ClusterReport]:
        """Clusters whose primary glitch violates the receiver NRC.

        An *errored* cluster is not a violation -- it has no verdict at all.
        Gates must check :attr:`ok` (or :attr:`errors`), not just this list:
        a crashed analysis proves nothing about the cluster being clean.
        """
        return [report for report in self.clusters if report.fails]

    @property
    def errors(self) -> List[ClusterReport]:
        """Clusters whose analysis raised (error-collecting batch runs)."""
        return [report for report in self.clusters if not report.ok]

    @property
    def ok(self) -> bool:
        """Every cluster analysed without error and without an NRC violation.

        The one-line sign-off gate: ``False`` when anything failed --
        violation *or* crash -- so error-collected failures can never read
        as a clean design.
        """
        return not self.violations and not self.errors

    def engine_statistics(self) -> EngineStatistics:
        """Summed dedicated-engine statistics across all clusters."""
        total = EngineStatistics()
        for report in self.clusters:
            total.merge(report.engine_statistics())
        return total

    def text(self) -> str:
        """Multi-line report mirroring the industrial violation-report style."""
        title = self.design_name or "batch"
        lines = [
            f"Noise analysis report for '{title}' "
            f"({'/'.join(self.methods)}, {len(self.clusters)} clusters, "
            f"{self.total_runtime_seconds:.2f} s)",
            f"{'cluster':24s} {'peak(V)':>8s} {'area(Vps)':>10s} {'width(ps)':>9s} "
            f"{'margin':>8s}  status",
        ]
        for report in self.clusters:
            name = report.victim_net or report.label
            if report.error is not None:
                lines.append(f"{name:24s} ERROR  {report.error.summary()}")
                continue
            result = report.primary
            check = report.nrc_check()
            status = "FAIL" if report.fails else ("pass" if check else "n/a ")
            margin = f"{check.margin:+.3f}" if check else "  -  "
            lines.append(
                f"{name:24s} {result.peak:8.3f} {result.area_v_ps:10.1f} "
                f"{result.width_ps:9.1f} {margin:>8s}  {status}"
            )
        lines.append(f"violations: {len(self.violations)} / {len(self.clusters)}")
        if self.errors:
            lines.append(f"errors: {len(self.errors)} / {len(self.clusters)}")
        stats = self.engine_statistics()
        if stats.num_time_points:
            lines.append(
                f"engine: {stats.num_time_points} time points, "
                f"{stats.newton_iterations} Newton iters, "
                f"{stats.assemblies_avoided} assemblies avoided, "
                f"{stats.lu_reuse_hits} LU reuses "
                f"({stats.matrix_factorizations} factorizations, "
                f"{stats.factorizations_saved} saved, "
                f"{stats.batched_solves} batched solves)"
            )
        return "\n".join(lines)

    # ---------------------------------------------------------------- wire

    def to_json(self) -> Dict:
        """Lossless, versioned JSON payload (see :mod:`repro.api.wire`)."""
        return wire.wrap("session_report", self)

    @classmethod
    def from_json(cls, payload: Dict) -> "SessionReport":
        """Rebuild a report from its :meth:`to_json` payload."""
        report = wire.unwrap(payload, "session_report")
        if not isinstance(report, cls):
            raise wire.WireFormatError(
                f"session_report payload decoded to {type(report).__name__!r}"
            )
        return report

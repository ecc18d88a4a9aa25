"""Aggregated results of a scenario sweep.

A sweep produces one lightweight :class:`ScenarioResult` per scenario --
scalar glitch metrics per method, NRC verdicts and a structured error field
-- rather than full waveform-carrying cluster reports, so results stay cheap
to ship across process boundaries.  The :class:`SweepReport` aggregates them
into the statistics a characterisation flow actually gates on: worst-case
noise per axis value, NRC failure and error counts, and (when the golden
method ran) method-vs-golden error distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..api import wire

__all__ = ["ScenarioResult", "AxisStats", "SweepHealth", "SweepReport"]


@dataclass
class ScenarioResult:
    """Scalar outcome of one scenario (picklable, no waveforms).

    ``peaks`` / ``areas_v_ps`` / ``widths_ps`` are keyed by method name;
    ``nrc_fails`` holds the per-method NRC verdicts when checking was on.
    A failed scenario has ``ok=False``, the structured ``error`` /
    ``traceback_text`` fields set and empty metric dicts.
    """

    scenario_id: str
    axes: Tuple[Tuple[str, str], ...]
    ok: bool = True
    error: str = ""
    traceback_text: str = ""
    peaks: Dict[str, float] = field(default_factory=dict)
    areas_v_ps: Dict[str, float] = field(default_factory=dict)
    widths_ps: Dict[str, float] = field(default_factory=dict)
    nrc_fails: Dict[str, bool] = field(default_factory=dict)
    runtime_seconds: float = 0.0
    #: The scenario's library key (``str(Scenario.session_key())``) -- the
    #: context needed to rebuild the failing session from the report alone.
    session_key: str = ""
    #: ``"Type: message"`` chain of the failure (outermost first); mirrors
    #: :attr:`repro.api.report.ClusterError.cause_chain`.
    error_chain: Tuple[str, ...] = ()
    #: How many executions this scenario consumed (1 = first try).
    attempts: int = 1
    #: Degradation-ladder events when the result came from a lower rung.
    degradation: Tuple[str, ...] = ()
    #: True when the fault-tolerant runner gave up on this scenario after
    #: repeated worker crashes/timeouts (``ok`` is then also False).
    quarantined: bool = False

    def axis_value(self, axis: str) -> Optional[str]:
        for name, value in self.axes:
            if name == axis:
                return value
        return None

    def peak(self, method: str) -> float:
        return self.peaks[method]

    @property
    def fails_nrc(self) -> bool:
        return any(self.nrc_fails.values())


@dataclass
class AxisStats:
    """Noise statistics of all (successful) scenarios sharing one axis value."""

    axis: str
    value: str
    count: int = 0
    errors: int = 0
    nrc_failures: int = 0
    worst_peak: float = 0.0
    worst_scenario: str = ""
    mean_abs_peak: float = 0.0

    def describe(self) -> str:
        return (
            f"{self.axis}={self.value:12s} n={self.count:3d} "
            f"worst={self.worst_peak:+.4f} V (|mean|={self.mean_abs_peak:.4f} V)  "
            f"nrc_fail={self.nrc_failures}  errors={self.errors}"
        )


@dataclass
class SweepHealth:
    """Fault-tolerance bookkeeping of one sweep run.

    Everything the retry/recovery machinery did -- shard retries and
    bisection splits, pool rebuilds after worker crashes, stall timeouts,
    quarantined scenarios, degradation-ladder fallbacks, non-finite
    screens -- lives here, so a sweep that *survived* faults still shows
    exactly what it survived.
    """

    #: Shard resubmissions after a failure (splits not included).
    retries: int = 0
    #: Bisection splits of multi-scenario shards during fault isolation.
    shard_splits: int = 0
    #: Times the worker pool was torn down and rebuilt.
    pool_rebuilds: int = 0
    #: Stall windows in which no shard completed within ``shard_timeout_s``.
    timeouts: int = 0
    #: Pool-breaking worker deaths observed (segfault/OOM-kill class).
    worker_crashes: int = 0
    #: Scenario ids abandoned after exhausting ``max_retries``.
    quarantined: List[str] = field(default_factory=list)
    #: Scenario ids whose result came from a degradation-ladder rung.
    degraded_scenarios: List[str] = field(default_factory=list)
    #: Degradation trigger summary -> occurrence count.
    fallback_triggers: Dict[str, int] = field(default_factory=dict)
    #: Scenario ids rejected by the non-finite metrics screen.
    nonfinite_scenarios: List[str] = field(default_factory=list)
    #: Worker-recycling limit in force (None = workers live forever).
    max_tasks_per_child: Optional[int] = None
    #: Distinct matrix-topology classes the batched linear core factorised
    #: (one entry per structurally distinct base matrix, summed over workers).
    batch_groups: int = 0
    #: Stacked multi-RHS solves performed through shared factorizations.
    batched_solves: int = 0
    #: Factorizations avoided by a shared-cache hit (bit-identical matrix).
    factorizations_saved: int = 0
    #: Human-readable event log, in order of occurrence.
    events: List[str] = field(default_factory=list)

    def note(self, message: str) -> None:
        self.events.append(message)

    @property
    def faults_seen(self) -> bool:
        """Whether any fault-handling machinery actually engaged."""
        return bool(
            self.retries
            or self.shard_splits
            or self.pool_rebuilds
            or self.timeouts
            or self.worker_crashes
            or self.quarantined
            or self.degraded_scenarios
            or self.nonfinite_scenarios
        )

    def to_dict(self) -> Dict:
        return {
            "retries": self.retries,
            "shard_splits": self.shard_splits,
            "pool_rebuilds": self.pool_rebuilds,
            "timeouts": self.timeouts,
            "worker_crashes": self.worker_crashes,
            "quarantined": list(self.quarantined),
            "degraded_scenarios": list(self.degraded_scenarios),
            "fallback_triggers": dict(self.fallback_triggers),
            "nonfinite_scenarios": list(self.nonfinite_scenarios),
            "max_tasks_per_child": self.max_tasks_per_child,
            "batch_groups": self.batch_groups,
            "batched_solves": self.batched_solves,
            "factorizations_saved": self.factorizations_saved,
            "events": list(self.events),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "SweepHealth":
        """Rebuild the ledger from a :meth:`to_dict` payload."""
        health = cls()
        for name in (
            "retries",
            "shard_splits",
            "pool_rebuilds",
            "timeouts",
            "worker_crashes",
            "batch_groups",
            "batched_solves",
            "factorizations_saved",
        ):
            setattr(health, name, int(payload.get(name, 0)))
        health.quarantined = list(payload.get("quarantined", []))
        health.degraded_scenarios = list(payload.get("degraded_scenarios", []))
        health.fallback_triggers = dict(payload.get("fallback_triggers", {}))
        health.nonfinite_scenarios = list(payload.get("nonfinite_scenarios", []))
        health.max_tasks_per_child = payload.get("max_tasks_per_child")
        health.events = list(payload.get("events", []))
        return health

    def describe(self) -> List[str]:
        lines = [
            "sweep health: "
            f"{self.retries} retries, {self.shard_splits} shard splits, "
            f"{self.pool_rebuilds} pool rebuilds, {self.timeouts} timeouts, "
            f"{self.worker_crashes} worker crashes"
        ]
        if self.quarantined:
            lines.append(f"  quarantined: {', '.join(self.quarantined)}")
        if self.degraded_scenarios:
            lines.append(f"  degraded: {', '.join(self.degraded_scenarios)}")
        if self.nonfinite_scenarios:
            lines.append(f"  non-finite: {', '.join(self.nonfinite_scenarios)}")
        for trigger, count in self.fallback_triggers.items():
            lines.append(f"  fallback x{count}: {trigger}")
        return lines


class SweepReport:
    """Everything a sweep run produced, plus the aggregation helpers."""

    def __init__(
        self,
        results: Sequence[ScenarioResult],
        *,
        methods: Tuple[str, ...],
        elapsed_seconds: float,
        num_workers: int,
        num_shards: int = 0,
        cache_stats: Optional[Dict[str, int]] = None,
        health: Optional[SweepHealth] = None,
    ):
        self.results: List[ScenarioResult] = list(results)
        self.methods = tuple(methods)
        self.elapsed_seconds = elapsed_seconds
        self.num_workers = num_workers
        self.num_shards = num_shards
        #: Aggregated persistent-cache counters summed over all workers
        #: (hits / misses / stores / corrupt_dropped) plus the number of
        #: actual characterisation runs ("characterizations").
        self.cache_stats: Dict[str, int] = dict(cache_stats or {})
        #: Fault-tolerance bookkeeping of the run (always present for runs
        #: through :class:`~repro.scenarios.runner.SweepRunner`).
        self.health: SweepHealth = health if health is not None else SweepHealth()

    # -------------------------------------------------------------- basics

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    @property
    def primary_method(self) -> str:
        return self.methods[0]

    @property
    def ok_results(self) -> List[ScenarioResult]:
        return [result for result in self.results if result.ok]

    @property
    def errors(self) -> List[ScenarioResult]:
        return [result for result in self.results if not result.ok]

    @property
    def nrc_failure_count(self) -> int:
        return sum(1 for result in self.ok_results if result.fails_nrc)

    @property
    def scenarios_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return float("inf")
        return len(self.results) / self.elapsed_seconds

    def result(self, scenario_id: str) -> ScenarioResult:
        for result in self.results:
            if result.scenario_id == scenario_id:
                return result
        raise KeyError(f"no scenario {scenario_id!r} in this report")

    # -------------------------------------------------------- aggregations

    def worst_case(self, method: Optional[str] = None) -> ScenarioResult:
        """The successful scenario with the largest |peak| for ``method``."""
        method = method or self.primary_method
        candidates = [result for result in self.ok_results if method in result.peaks]
        if not candidates:
            raise ValueError(f"no successful scenario ran method {method!r}")
        return max(candidates, key=lambda result: abs(result.peaks[method]))

    def by_axis(self, axis: str, method: Optional[str] = None) -> Dict[str, AxisStats]:
        """Per-value statistics along one axis ("corner", "geometry", ...)."""
        method = method or self.primary_method
        stats: Dict[str, AxisStats] = {}
        sums: Dict[str, float] = {}
        for result in self.results:
            value = result.axis_value(axis)
            if value is None:
                continue
            entry = stats.setdefault(value, AxisStats(axis=axis, value=value))
            if not result.ok:
                entry.errors += 1
                continue
            peak = result.peaks.get(method)
            if peak is None:
                continue
            entry.count += 1
            entry.nrc_failures += 1 if result.fails_nrc else 0
            sums[value] = sums.get(value, 0.0) + abs(peak)
            if abs(peak) >= abs(entry.worst_peak):
                entry.worst_peak = peak
                entry.worst_scenario = result.scenario_id
        for value, entry in stats.items():
            if entry.count:
                entry.mean_abs_peak = sums[value] / entry.count
        return dict(sorted(stats.items()))

    def error_distribution(
        self, method: str, reference: str = "golden"
    ) -> Dict[str, float]:
        """|peak error| statistics of ``method`` against ``reference``.

        Returns ``count`` and the mean / p95 / max absolute peak error in
        percent over every successful scenario where both methods ran and
        the reference peak is non-zero.
        """
        errors: List[float] = []
        for result in self.ok_results:
            peak = result.peaks.get(method)
            ref = result.peaks.get(reference)
            if peak is None or ref is None or ref == 0.0:
                continue
            errors.append(abs(100.0 * (peak - ref) / ref))
        if not errors:
            return {"count": 0, "mean_pct": math.nan, "p95_pct": math.nan, "max_pct": math.nan}
        ordered = sorted(errors)
        p95_index = min(len(ordered) - 1, int(math.ceil(0.95 * len(ordered))) - 1)
        return {
            "count": len(ordered),
            "mean_pct": sum(ordered) / len(ordered),
            "p95_pct": ordered[p95_index],
            "max_pct": ordered[-1],
        }

    # -------------------------------------------------------------- export

    def to_json(self) -> Dict:
        """Lossless, versioned JSON payload.

        A :func:`~repro.api.wire.wrap` envelope whose payload is the list of
        every :class:`ScenarioResult`, alongside the
        derived summary keys the sweep benchmark and CI gates already read
        (``num_scenarios``, ``num_errors``, ``health``, ...), so one payload
        serves both the service wire format and the human dashboards.
        :meth:`from_json` rebuilds an equivalent report from it.
        """
        worst: Optional[Dict] = None
        try:
            worst_result = self.worst_case()
            worst = {
                "scenario_id": worst_result.scenario_id,
                "peak": worst_result.peaks[self.primary_method],
            }
        except ValueError:
            pass
        return {
            **wire.wrap("sweep_report", list(self.results)),
            "num_scenarios": len(self.results),
            "num_errors": len(self.errors),
            "nrc_failures": self.nrc_failure_count,
            "methods": list(self.methods),
            "elapsed_seconds": self.elapsed_seconds,
            "scenarios_per_second": self.scenarios_per_second,
            "num_workers": self.num_workers,
            "num_shards": self.num_shards,
            "cache_stats": dict(self.cache_stats),
            "health": self.health.to_dict(),
            "worst_case": worst,
            "by_corner": {
                value: {
                    "count": stats.count,
                    "worst_peak": stats.worst_peak,
                    "mean_abs_peak": stats.mean_abs_peak,
                    "nrc_failures": stats.nrc_failures,
                    "errors": stats.errors,
                }
                for value, stats in self.by_axis("corner").items()
            },
        }

    @classmethod
    def from_json(cls, payload: Dict) -> "SweepReport":
        """Rebuild a report from its :meth:`to_json` payload."""
        results = wire.unwrap(payload, "sweep_report")
        if not (
            isinstance(results, list)
            and all(isinstance(result, ScenarioResult) for result in results)
        ):
            raise wire.WireFormatError(
                "sweep_report payload does not decode to a list of ScenarioResult"
            )
        return cls(
            results,
            methods=tuple(payload["methods"]),
            elapsed_seconds=payload["elapsed_seconds"],
            num_workers=payload["num_workers"],
            num_shards=payload.get("num_shards", 0),
            cache_stats=payload.get("cache_stats"),
            health=SweepHealth.from_dict(payload.get("health", {})),
        )

    def text(self) -> str:
        """Multi-line human-readable sweep summary."""
        lines = [
            f"Scenario sweep: {len(self.results)} scenarios "
            f"({'/'.join(self.methods)}), {self.elapsed_seconds:.2f} s "
            f"({self.scenarios_per_second:.1f} scenarios/s, "
            f"{self.num_workers} worker{'s' if self.num_workers != 1 else ''})",
        ]
        for axis in ("corner", "geometry"):
            stats = self.by_axis(axis)
            if len(stats) > 1:
                for entry in stats.values():
                    lines.append("  " + entry.describe())
        try:
            worst = self.worst_case()
            lines.append(
                f"worst case: {worst.scenario_id} "
                f"peak={worst.peaks[self.primary_method]:+.4f} V"
            )
        except ValueError:
            pass
        if "golden" in self.methods:
            for method in self.methods:
                if method == "golden":
                    continue
                dist = self.error_distribution(method)
                if dist["count"]:
                    lines.append(
                        f"{method} vs golden |peak error|: mean {dist['mean_pct']:.1f}%, "
                        f"p95 {dist['p95_pct']:.1f}%, max {dist['max_pct']:.1f}% "
                        f"(n={dist['count']})"
                    )
        lines.append(
            f"NRC failures: {self.nrc_failure_count} / {len(self.ok_results)}; "
            f"errors: {len(self.errors)} / {len(self.results)}"
        )
        if self.cache_stats:
            cache = self.cache_stats
            lines.append(
                "characterization cache: "
                f"{cache.get('characterizations', 0)} computed, "
                f"{cache.get('disk_hits', 0)} disk hits, "
                f"{cache.get('disk_stores', 0)} stored, "
                f"{cache.get('corrupt_dropped', 0)} corrupt dropped"
            )
        if self.health.batch_groups or self.health.factorizations_saved:
            lines.append(
                f"batched solver: {self.health.batch_groups} matrix groups, "
                f"{self.health.factorizations_saved} factorizations saved, "
                f"{self.health.batched_solves} stacked solves"
            )
        if self.health.faults_seen:
            lines.extend(self.health.describe())
        for result in self.errors:
            lines.append(f"  ERROR {result.scenario_id}: {result.error}")
        return "\n".join(lines)

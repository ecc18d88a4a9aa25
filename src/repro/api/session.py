"""The unified analysis session -- the one front door to every analysis.

:class:`NoiseAnalysisSession` binds a cell library, a shared (cached)
:class:`~repro.characterization.characterizer.LibraryCharacterizer` and a
frozen :class:`~repro.api.config.AnalysisConfig`, and exposes the three
entry points every driver in the repo now goes through:

* :meth:`analyze` -- one noise cluster, any registered methods;
* :meth:`analyze_many` -- a batch of clusters, optionally thread-parallel,
  with the characterisation warmed up front so each distinct cell arc is
  characterised exactly once per session;
* :meth:`run_design` -- cluster extraction over an annotated design plus
  per-cluster analysis and NRC checking.

Analysis backends are resolved by name through the pluggable registry
(:mod:`repro.api.registry`), so new engines plug into every entry point --
and every example/benchmark driver -- by registering a factory.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from ..characterization.characterizer import LibraryCharacterizer
from ..characterization.diskcache import PersistentCharacterizationCache
from ..circuit.batched import FactorizationCache
from ..noise.analysis import check_against_nrc
from ..noise.builder import ClusterModelBuilder
from ..noise.cluster import NoiseClusterSpec
from ..noise.results import NoiseAnalysisResult
from ..technology.library import CellLibrary
from .config import AnalysisConfig
from .registry import AnalysisMethod, MethodContext, UnknownMethodError, create_method, list_methods
from .report import ClusterError, ClusterReport, SessionReport

if TYPE_CHECKING:
    from ..sna.design import Design
    from ..sna.extraction import ClusterExtraction, ClusterExtractor, ExtractionConfig

__all__ = ["NoiseAnalysisSession"]


def _chunked(items: Iterable, size: int) -> Iterable[list]:
    """Batch an iterable into lists of ``size`` without materialising it."""
    chunk: list = []
    for item in items:
        chunk.append(item)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


class NoiseAnalysisSession:
    """Configured, cache-sharing front end to all registered noise analyses."""

    def __init__(
        self,
        library: CellLibrary,
        config: Optional[AnalysisConfig] = None,
        *,
        characterizer: Optional[LibraryCharacterizer] = None,
    ):
        self.library = library
        self.config = config or AnalysisConfig()
        if characterizer is None:
            cache_dir = self.config.resolve_cache_dir()
            disk_cache = (
                PersistentCharacterizationCache(cache_dir) if cache_dir else None
            )
            characterizer = LibraryCharacterizer(
                library, vccs_grid=self.config.vccs_grid, disk_cache=disk_cache
            )
        self.characterizer = characterizer
        #: Session-shared factorization cache (``config.batching == "auto"``):
        #: engines built by this session's methods factorise each distinct
        #: macromodel base matrix once per session -- Monte Carlo samples of
        #: one cluster take cache hits.  Thread-safe, so ``analyze_many``
        #: workers share it directly.
        self.solver_cache: Optional[FactorizationCache] = (
            FactorizationCache() if self.config.batching == "auto" else None
        )
        self._instances: Dict[str, AnalysisMethod] = {}

    # ------------------------------------------------------------- resolution

    def method(self, name: str) -> AnalysisMethod:
        """The (session-cached) backend instance registered under ``name``."""
        if name not in self._instances:
            context = MethodContext(
                library=self.library,
                characterizer=self.characterizer,
                config=self.config,
                solver_cache=self.solver_cache,
            )
            self._instances[name] = create_method(name, context)
        return self._instances[name]

    def _resolve_methods(self, methods: Optional[Sequence[str]]) -> Tuple[str, ...]:
        """Validate the requested method names against the registry up front."""
        names = self.config.methods if methods is None else AnalysisConfig._as_name_tuple(methods)
        if not names:
            raise ValueError("at least one analysis method must be requested")
        registered = list_methods()
        for name in names:
            if name not in registered:
                raise UnknownMethodError(name, registered)
        return names

    def _builder(self, spec: NoiseClusterSpec) -> ClusterModelBuilder:
        return ClusterModelBuilder(
            self.library,
            spec,
            characterizer=self.characterizer,
            vccs_grid=self.config.vccs_grid,
        )

    # ---------------------------------------------------------------- analyse

    def analyze(
        self,
        spec: NoiseClusterSpec,
        *,
        methods: Optional[Sequence[str]] = None,
        dt: Optional[float] = None,
        t_stop: Optional[float] = None,
        check_nrc: Optional[bool] = None,
        label: Optional[str] = None,
    ) -> ClusterReport:
        """Run the configured (or given) methods on one cluster.

        All methods share one :class:`ClusterModelBuilder` -- and through it
        the session characterizer -- so the cluster is characterised once no
        matter how many methods run on it.
        """
        names = self._resolve_methods(methods)
        dt = dt if dt is not None else self.config.dt
        t_stop = t_stop if t_stop is not None else self.config.t_stop
        do_nrc = self.config.check_nrc if check_nrc is None else check_nrc

        builder = self._builder(spec)
        start = time.perf_counter()
        results: Dict[str, NoiseAnalysisResult] = {}
        for name in names:
            try:
                results[name] = self.method(name).analyze(
                    spec, dt=dt, t_stop=t_stop, builder=builder
                )
            except Exception as exc:
                # Tag the failure with the active method so batch error
                # collection can report *where* the cluster died.
                exc._repro_active_method = name  # type: ignore[attr-defined]
                raise

        nrc_checks = {}
        if do_nrc and spec.victim.receiver_cell:
            nrc = self.characterizer.noise_rejection_curve(
                spec.victim.receiver_cell, widths=self.config.nrc_widths
            )
            nrc_checks = {name: check_against_nrc(result, nrc) for name, result in results.items()}

        runtime = time.perf_counter() - start
        return ClusterReport(
            label=label or spec.name,
            spec=spec,
            results=results,
            nrc_checks=nrc_checks,
            runtime_seconds=runtime,
        )

    def analyze_resilient(
        self,
        spec: NoiseClusterSpec,
        *,
        dt: Optional[float] = None,
        t_stop: Optional[float] = None,
        check_nrc: Optional[bool] = None,
        label: Optional[str] = None,
    ) -> ClusterReport:
        """:meth:`analyze` behind the numerical degradation ladder.

        A cluster that dies of a numerical failure (singular factorisation,
        non-convergent Newton) or fails a result screen is retried on
        progressively more conservative configurations
        (``reduced -> sparse -> dense``, see :mod:`repro.resilience`);
        derived rung sessions share this session's characterizer, so
        retries never re-characterise.  The accepted report carries the
        rejected attempts in :attr:`ClusterReport.degradation`.
        """
        from ..resilience import resilient_analyze

        report, _ = resilient_analyze(
            self, spec, label=label, dt=dt, t_stop=t_stop, check_nrc=check_nrc
        )
        return report

    # ------------------------------------------------------------------ batch

    def warm_characterization(
        self,
        specs: Iterable[NoiseClusterSpec],
        *,
        methods: Optional[Sequence[str]] = None,
        check_nrc: Optional[bool] = None,
    ) -> None:
        """Characterise every cell arc the given clusters will need.

        Running this sequentially before a parallel batch guarantees each
        distinct characterisation is computed exactly once (workers then only
        take cache hits) and keeps the expensive work out of the per-cluster
        timings.
        """
        names = self._resolve_methods(methods)
        do_nrc = self.config.check_nrc if check_nrc is None else check_nrc
        needs_propagation = "superposition" in names
        for spec in specs:
            builder = self._builder(spec)
            builder.victim_surface()
            for aggressor in spec.aggressors:
                builder.aggressor_thevenin(aggressor)
            if needs_propagation and spec.victim.input_glitch is not None:
                self.characterizer.propagation_table(
                    spec.victim.driver_cell,
                    builder.victim_arc,
                    load_capacitance=builder.net_total_capacitance(spec.victim.net),
                )
            if do_nrc and spec.victim.receiver_cell:
                self.characterizer.noise_rejection_curve(
                    spec.victim.receiver_cell, widths=self.config.nrc_widths
                )

    def analyze_many(
        self,
        specs: Iterable[NoiseClusterSpec],
        *,
        methods: Optional[Sequence[str]] = None,
        dt: Optional[float] = None,
        t_stop: Optional[float] = None,
        check_nrc: Optional[bool] = None,
        labels: Optional[Sequence[str]] = None,
        max_workers: Optional[int] = None,
        on_error: str = "collect",
    ) -> List[ClusterReport]:
        """Analyse a batch of clusters; results keep the input order.

        With ``max_workers`` (or ``config.max_workers``) greater than one the
        clusters are analysed in a thread pool; the characterisation is
        warmed sequentially first, so workers only read the shared cache.

        ``on_error`` controls what a failing cluster does to the batch:
        ``"collect"`` (the default) turns the failure into a structured
        :class:`~repro.api.report.ClusterError` on that cluster's report --
        every other cluster still completes and keeps its position --
        while ``"raise"`` propagates the first exception and aborts the
        batch.  Request-validation errors (unknown method names, a label
        count mismatch, a bad worker count) always raise: they mean the
        *batch* is malformed, not one cluster.
        """
        specs = list(specs)
        names = self._resolve_methods(methods)
        if on_error not in ("collect", "raise"):
            raise ValueError(
                f"on_error must be 'collect' or 'raise', got {on_error!r}"
            )
        if labels is not None:
            labels = list(labels)
            if len(labels) != len(specs):
                raise ValueError(
                    f"got {len(labels)} labels for {len(specs)} specs"
                )
        workers = self.config.max_workers if max_workers is None else max_workers
        if workers < 1:
            raise ValueError(f"max_workers must be at least 1, got {workers}")

        parallel = workers > 1 and len(specs) > 1
        if parallel:
            # Resolve the backend instances before fanning out (method() has
            # no lock) and characterise everything sequentially so workers
            # only take cache hits.  A cluster whose *characterisation*
            # already fails is skipped here and re-raises inside run_one,
            # where the per-item error handling picks it up.
            for name in names:
                self.method(name)
            for spec in specs:
                try:
                    self.warm_characterization([spec], methods=names, check_nrc=check_nrc)
                except Exception:
                    if on_error == "raise":
                        raise

        def run_one(index: int) -> ClusterReport:
            label = labels[index] if labels is not None else specs[index].name
            start = time.perf_counter()
            try:
                return self.analyze(
                    specs[index],
                    methods=names,
                    dt=dt,
                    t_stop=t_stop,
                    check_nrc=check_nrc,
                    label=labels[index] if labels is not None else None,
                )
            except Exception as exc:
                if on_error == "raise":
                    raise
                return ClusterReport(
                    label=label,
                    spec=specs[index],
                    results={},
                    runtime_seconds=time.perf_counter() - start,
                    error=ClusterError.from_exception(exc),
                )

        if parallel:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(run_one, range(len(specs))))
        # Sequential runs characterise on demand (the cache still guarantees
        # exactly-once), so an already-warm batch pays no extra walk.
        return [run_one(index) for index in range(len(specs))]

    # ----------------------------------------------------------------- design

    def run_design(
        self,
        design: Optional["Design"] = None,
        *,
        stream: Optional[Iterable["ClusterExtraction"]] = None,
        design_name: Optional[str] = None,
        chunk_size: Optional[int] = None,
        extraction: Optional["ExtractionConfig"] = None,
        input_glitches=None,
        extractor: Optional["ClusterExtractor"] = None,
        methods: Optional[Sequence[str]] = None,
        dt: Optional[float] = None,
        t_stop: Optional[float] = None,
        check_nrc: Optional[bool] = None,
        max_workers: Optional[int] = None,
        on_error: str = "collect",
    ) -> SessionReport:
        """Full-design SNA: extract every noise cluster, analyse, NRC-check.

        Two sources of clusters:

        * ``design`` -- in-memory extraction: pass an
          :class:`~repro.sna.extraction.ExtractionConfig` (and optional
          per-net ``input_glitches``) to control extraction, or a prebuilt
          ``extractor`` for full control.
        * ``stream`` -- any iterable of
          :class:`~repro.sna.extraction.ClusterExtraction`, e.g. the lazy
          output of
          :meth:`repro.sna.stream.StreamingClusterExtractor.extract` over a
          full-chip SPEF.  Extraction is *pipelined* into analysis in chunks
          of ``chunk_size`` clusters (default scales with the worker count),
          so analysis of one chunk overlaps no further than the window the
          streaming extractor holds -- the whole design is never
          materialised.

        ``on_error`` is forwarded to :meth:`analyze_many`: by default a
        failing cluster is reported as a structured per-cluster error instead
        of aborting the design run.
        """
        from ..sna.extraction import ClusterExtractor

        if (design is None) == (stream is None):
            raise ValueError("pass exactly one of design= or stream=")
        if stream is not None and (
            extraction is not None or input_glitches is not None or extractor is not None
        ):
            raise ValueError(
                "extraction/input_glitches/extractor configure in-memory "
                "extraction; with stream= configure the streaming extractor "
                "that produces the stream instead"
            )
        names = self._resolve_methods(methods)
        start = time.perf_counter()

        if design is not None:
            if extractor is None:
                extractor = ClusterExtractor(
                    design, config=extraction, input_glitches=input_glitches
                )
            elif extraction is not None or input_glitches is not None:
                raise ValueError(
                    "pass either a prebuilt extractor or extraction/input_glitches, not both"
                )
            chunks: Iterable[List["ClusterExtraction"]] = [extractor.extract_clusters()]
            name = design.name
        else:
            workers = self.config.max_workers if max_workers is None else max_workers
            if chunk_size is None:
                chunk_size = max(4 * max(workers, 1), 16)
            if chunk_size < 1:
                raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
            chunks = _chunked(stream, chunk_size)
            name = design_name or "streamed_design"

        reports: List[ClusterReport] = []
        for chunk in chunks:
            chunk_reports = self.analyze_many(
                [item.spec for item in chunk],
                methods=names,
                dt=dt,
                t_stop=t_stop,
                check_nrc=check_nrc,
                max_workers=max_workers,
                on_error=on_error,
            )
            for item, report in zip(chunk, chunk_reports):
                report.victim_net = item.victim_net
            reports.extend(chunk_reports)
        total = time.perf_counter() - start
        return SessionReport(
            clusters=reports,
            methods=names,
            total_runtime_seconds=total,
            design_name=name,
        )

    # ---------------------------------------------------------------- summary

    def describe(self) -> str:
        """Session configuration and characterisation-cache state."""
        return "\n".join(
            [
                f"NoiseAnalysisSession on library '{self.library.technology.name}'",
                f"  {self.config.describe()}",
                f"  registered methods: {list_methods()}",
                f"  {self.characterizer.cache_summary()}",
            ]
        )

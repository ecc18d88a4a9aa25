"""Outside tracer: spans around the program's public functions.

The tracer patches module and class attributes while it is installed and
puts the originals back when it is removed, so nothing under ``src/``
changes and an uninstalled tracer costs nothing.  Each wrapped call becomes
one span (layer name, start, end, parent span, counters).  Spans are kept in
memory; :meth:`Tracer.layer_table` reduces them to per-layer busy time,
self time (duration minus the part covered by child spans) and call counts.

Only the outermost span of a layer is recorded per thread: a wrapped
function that re-enters its own layer (``wire.encode`` recursing, a model
build calling another model-build entry point) is timed once, by its outer
call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    counters: Dict[str, float] = field(default_factory=dict)
    #: Summed duration of the direct child spans.
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


#: A counter hook sees (args, kwargs, result) of the wrapped call and returns
#: the counters to attach to its span.
CounterHook = Callable[[tuple, dict, Any], Dict[str, float]]


class Tracer:
    """Records spans from wrapped callables; one instance per traced run."""

    def __init__(self, layers: Callable[["Tracer"], None]) -> None:
        #: Installs this run's layer wrappers (see the ``install_*`` functions).
        self.layers = layers
        self.spans: List[Span] = []
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ----------------------------------------------------------- recording

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Optional[int]:
        """Start a span; ``None`` when ``name`` is already open on this thread."""
        stack = self._stack()
        if any(self.spans[index].name == name for index in stack):
            return None
        span = Span(name, time.perf_counter(), parent=stack[-1] if stack else None)
        self.spans.append(span)
        stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: Optional[int], counters: Optional[Dict[str, float]] = None) -> None:
        if index is None:
            return
        span = self.spans[index]
        span.end = time.perf_counter()
        if counters:
            span.counters.update(counters)
        stack = self._stack()
        stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_time += span.duration

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    # ------------------------------------------------------------- patching

    def wrap(self, owner: Any, attribute: str, name: str, counters: Optional[CounterHook] = None) -> None:
        """Replace ``owner.attribute`` by a traced wrapper until :meth:`uninstall`."""
        raw = inspect.getattr_static(owner, attribute)
        descriptor = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        target = raw.__func__ if descriptor else raw

        @functools.wraps(target)
        def traced(*args, **kwargs):
            index = self.open(name)
            result = None
            try:
                result = target(*args, **kwargs)
                return result
            finally:
                self.close(index, counters(args, kwargs, result) if counters and index is not None else None)

        self._patches.append((owner, attribute, raw))
        setattr(owner, attribute, descriptor(traced) if descriptor else traced)

    def uninstall(self) -> None:
        """Put every patched attribute back, newest patch first."""
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap the layers for one traced unit, under a root span ``unit``."""
        self.layers(self)
        try:
            with self.span("unit"):
                yield
        finally:
            self.uninstall()

    # ------------------------------------------------------------- reducing

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per-layer ``{"busy_s", "self_s", "calls", <counters>}`` over every span."""
        table: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            row = table.setdefault(span.name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
            row["busy_s"] += span.duration
            row["self_s"] += span.self_time
            row["calls"] += 1
            for key, value in span.counters.items():
                row[key] = row.get(key, 0) + value
        return table


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.index: Optional[int] = None
        self.counters: Dict[str, float] = {}

    def __enter__(self) -> "_SpanContext":
        self.index = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer.close(self.index, self.counters)


class TracedIterator:
    """Times each ``next()`` of a lazy iterator as one span (streaming ingest)."""

    def __init__(self, tracer: Optional[Tracer], iterable, name: str):
        self.tracer = tracer
        self.iterator = iter(iterable)
        self.name = name

    def __iter__(self) -> "TracedIterator":
        return self

    def __next__(self):
        if self.tracer is None:
            return next(self.iterator)
        index = self.tracer.open(self.name)
        try:
            return next(self.iterator)
        finally:
            self.tracer.close(index)


# ---------------------------------------------------------------------------
# The layer map: which public callables belong to which layer
# ---------------------------------------------------------------------------


def _transient_counters(args, kwargs, result) -> Dict[str, float]:
    return {"newton_iterations": getattr(result, "newton_iterations", 0) or 0}


def _dc_counters(args, kwargs, result) -> Dict[str, float]:
    return {"newton_iterations": getattr(result, "iterations", 0) or 0}


def _engine_counters(args, kwargs, result) -> Dict[str, float]:
    stats = args[0].statistics
    return {
        "time_points": stats.num_time_points,
        "newton_iterations": stats.newton_iterations,
        "factorizations_built": stats.matrix_factorizations,
        "factorizations_saved": stats.factorizations_saved,
    }


def install_analysis_layers(tracer: Tracer) -> None:
    """Wrap the sna / characterization / circuit / noise / api layers."""
    from repro.api.session import NoiseAnalysisSession
    import repro.api.session as session_module
    import repro.characterization.characterizer as characterizer
    import repro.characterization.loadsurface as loadsurface
    import repro.characterization.propagation as propagation
    import repro.characterization.thevenin as thevenin
    from repro.characterization.diskcache import PersistentCharacterizationCache
    from repro.noise.builder import ClusterModelBuilder
    from repro.noise.engine import DedicatedNoiseEngine
    from repro.noise.macromodel import MacromodelAnalysis
    from repro.waveform import Waveform

    # ``repro.circuit`` re-exports the ``transient`` function under the
    # submodule's name, so fetch the module itself.
    transient_module = importlib.import_module("repro.circuit.transient")

    tracer.wrap(NoiseAnalysisSession, "analyze", "api.analyze")
    tracer.wrap(characterizer, "characterize_nrc", "characterization.nrc")
    tracer.wrap(characterizer, "characterize_thevenin_driver", "characterization.thevenin")
    tracer.wrap(characterizer, "characterize_load_surface", "characterization.vccs")
    tracer.wrap(characterizer, "characterize_noise_propagation", "characterization.propagation")
    tracer.wrap(PersistentCharacterizationCache, "put", "characterization.disk_put")
    tracer.wrap(PersistentCharacterizationCache, "get", "characterization.disk_get")
    for module in (thevenin, propagation):
        tracer.wrap(module, "transient", "circuit.transient", _transient_counters)
    for module in (thevenin, loadsurface, transient_module):
        tracer.wrap(module, "dc_operating_point", "circuit.dc", _dc_counters)
    tracer.wrap(MacromodelAnalysis, "build_network", "noise.build")
    tracer.wrap(ClusterModelBuilder, "wiring_network", "noise.build")
    tracer.wrap(DedicatedNoiseEngine, "__init__", "noise.build")
    tracer.wrap(DedicatedNoiseEngine, "simulate", "noise.engine", _engine_counters)
    tracer.wrap(Waveform, "glitch_metrics", "noise.measure")
    tracer.wrap(session_module, "check_against_nrc", "noise.nrc_check")


def _message_bytes(args, kwargs, result) -> Dict[str, float]:
    return {"bytes": len(result)}


def _line_bytes(args, kwargs, result) -> Dict[str, float]:
    return {"bytes": len(args[0])}


def install_client_layers(tracer: Tracer) -> None:
    """Wrap the service client: encode, decode and the wait for replies."""
    import repro.api.wire as wire
    import repro.service.client as client
    from repro.api.report import SessionReport
    from repro.service.client import ServiceClient

    tracer.wrap(ServiceClient, "submit_design", "service.wait")
    tracer.wrap(wire, "encode", "service.client_encode")
    tracer.wrap(client, "dump_message", "service.client_encode", _message_bytes)
    tracer.wrap(client, "parse_message", "service.client_decode", _line_bytes)
    tracer.wrap(SessionReport, "from_json", "service.client_decode")


def install_server_layers(tracer: Tracer) -> None:
    """Wrap the daemon's in-process work (its spawn worker is not traced)."""
    import repro.service.server as server

    tracer.wrap(server, "cluster_fingerprint", "service.fingerprint")

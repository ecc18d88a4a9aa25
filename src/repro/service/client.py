"""Synchronous client of the analysis service.

Blocking socket client for the line-delimited JSON protocol -- what
examples, tests and CI drive the daemon with.  One client owns one
connection; requests on it are serial (submit streams progress until its
result arrives).
"""

from __future__ import annotations

import socket
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..api import wire
from ..api.config import AnalysisConfig
from ..api.report import SessionReport
from ..noise.cluster import NoiseClusterSpec
from .protocol import PROTOCOL_VERSION, ProtocolError, dump_message, parse_message

__all__ = ["ServiceClient", "ServiceError", "ServiceResult"]

#: ``(label, spec)`` pairs or a ``label -> spec`` mapping.
Clusters = Union[
    Mapping[str, NoiseClusterSpec], Iterable[Tuple[str, NoiseClusterSpec]]
]


class ServiceError(RuntimeError):
    """The server reported an error, or the connection broke."""


@dataclass
class ServiceResult:
    """Outcome of one submitted design revision."""

    job_id: int
    #: The merged report; each cluster's ``provenance`` is ``"reused"`` or
    #: ``"recomputed"``.
    report: SessionReport
    reused: List[str] = field(default_factory=list)
    recomputed: List[str] = field(default_factory=list)
    #: Labels whose analysis errored (their reports carry the ClusterError).
    failed: List[str] = field(default_factory=list)
    counters: Dict[str, Any] = field(default_factory=dict)


class ServiceClient:
    """Blocking client: ``ping`` / ``status`` / ``submit_design`` / ``shutdown``.

    ``address`` is a ``(host, port)`` tuple for TCP or a filesystem path
    for a unix socket -- exactly what ``AnalysisServer.address`` /
    ``ServiceHandle.address`` yields.
    """

    def __init__(
        self,
        address: Union[Tuple[str, int], str, Path],
        *,
        timeout: Optional[float] = 600.0,
    ):
        if isinstance(address, (str, Path)):
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            self._sock.connect(str(address))
        else:
            host, port = address
            self._sock = socket.create_connection((host, int(port)), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        try:
            self.hello = self._read()
            if self.hello.get("type") != "hello":
                raise ServiceError(f"expected a hello greeting, got {self.hello!r}")
            if self.hello.get("protocol_version") != PROTOCOL_VERSION:
                raise ServiceError(
                    f"protocol version mismatch: server speaks "
                    f"{self.hello.get('protocol_version')!r}, client {PROTOCOL_VERSION}"
                )
            # Checked here, not when a result fails to decode mid-job.
            if self.hello.get("schema_version") != wire.SCHEMA_VERSION:
                raise ServiceError(
                    f"wire schema version mismatch: server writes "
                    f"{self.hello.get('schema_version')!r}, client reads {wire.SCHEMA_VERSION}"
                )
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------ io

    def _send(self, message: Dict[str, Any]) -> None:
        self._file.write(dump_message(message))
        self._file.flush()

    def _read(self) -> Dict[str, Any]:
        line = self._file.readline()
        if not line:
            raise ServiceError("connection closed by the server")
        try:
            return parse_message(line)
        except ProtocolError as exc:
            raise ServiceError(str(exc)) from exc

    def _request(self, message: Dict[str, Any], expect: str) -> Dict[str, Any]:
        self._send(message)
        reply = self._read()
        if reply.get("type") == "error":
            raise ServiceError(reply.get("message", "unspecified server error"))
        if reply.get("type") != expect:
            raise ServiceError(f"expected {expect!r}, got {reply!r}")
        return reply

    # ------------------------------------------------------------- requests

    def ping(self) -> None:
        self._request({"type": "ping"}, "pong")

    def status(self) -> Dict[str, Any]:
        """The server's health telemetry (see API.md for the fields)."""
        return self._request({"type": "status"}, "status_report")

    def shutdown(self) -> None:
        """Ask the server to stop; the connection is closed afterwards."""
        self._request({"type": "shutdown"}, "shutdown_ack")

    def submit_design(
        self,
        clusters: Clusters,
        *,
        config: Optional[AnalysisConfig] = None,
        technology: Any = "cmos130",
        design_name: str = "",
        on_progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> ServiceResult:
        """Submit one design revision and block until its merged report.

        ``clusters`` is the full revision -- every submit is a complete
        design; the server's fingerprint diff decides what actually runs.
        ``on_progress`` receives each per-cluster progress event as it
        streams in.
        """
        if isinstance(clusters, Mapping):
            pairs = list(clusters.items())
        else:
            pairs = list(clusters)
        job: Dict[str, Any] = {
            "design_name": design_name,
            "technology": (
                technology if isinstance(technology, str) else wire.encode(technology)
            ),
            "config": None if config is None else wire.encode(config),
            "clusters": [
                {"label": str(label), "spec": wire.encode(spec)}
                for label, spec in pairs
            ],
        }
        ack = self._request({"type": "submit", "job": job}, "ack")
        job_id = ack["job_id"]
        while True:
            message = self._read()
            mtype = message.get("type")
            if mtype == "progress":
                if on_progress is not None:
                    on_progress(message)
            elif mtype == "result":
                return ServiceResult(
                    job_id=job_id,
                    report=SessionReport.from_json(message["report"]),
                    reused=list(message.get("reused", [])),
                    recomputed=list(message.get("recomputed", [])),
                    failed=list(message.get("failed", [])),
                    counters=dict(message.get("counters", {})),
                )
            elif mtype == "error":
                raise ServiceError(message.get("message", "unspecified server error"))
            else:
                raise ServiceError(f"unexpected message during submit: {message!r}")

    def submit_design_stream(
        self,
        extractions: Iterable[Any],
        *,
        chunk_size: int = 64,
        config: Optional[AnalysisConfig] = None,
        technology: Any = "cmos130",
        design_name: str = "",
        on_progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> ServiceResult:
        """Stream a full-chip extraction into the service, chunk by chunk.

        ``extractions`` is a lazy iterable of
        :class:`~repro.sna.extraction.ClusterExtraction` (e.g.
        ``StreamingClusterExtractor.extract(...)``) or of ``(label, spec)``
        pairs; clusters are submitted in chunks of ``chunk_size`` as the
        extractor discovers them, so neither client nor server ever holds
        the whole design.  Each chunk is a :meth:`submit_design` revision --
        the server's fingerprint store still deduplicates repeated clusters
        across chunks and revisions.  Returns one merged
        :class:`ServiceResult` (``job_id`` of the last chunk; int counters
        summed across chunks).
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
        merged: Optional[ServiceResult] = None
        chunk: List[Tuple[str, NoiseClusterSpec]] = []

        def flush() -> None:
            nonlocal merged
            if not chunk:
                return
            result = self.submit_design(
                list(chunk),
                config=config,
                technology=technology,
                design_name=design_name,
                on_progress=on_progress,
            )
            if merged is None:
                merged = result
            else:
                merged.job_id = result.job_id
                merged.report.clusters.extend(result.report.clusters)
                merged.report.total_runtime_seconds += result.report.total_runtime_seconds
                merged.reused.extend(result.reused)
                merged.recomputed.extend(result.recomputed)
                merged.failed.extend(result.failed)
                for key, value in result.counters.items():
                    if isinstance(value, int) and isinstance(merged.counters.get(key), int):
                        merged.counters[key] += value
                    else:
                        merged.counters[key] = value
            chunk.clear()

        for item in extractions:
            if isinstance(item, tuple):
                label, spec = item
                chunk.append((str(label), spec))
            else:
                chunk.append((item.spec.name, item.spec))
            if len(chunk) >= chunk_size:
                flush()
        flush()
        if merged is None:
            return ServiceResult(
                job_id=-1,
                report=SessionReport(
                    clusters=[],
                    methods=(),
                    total_runtime_seconds=0.0,
                    design_name=design_name,
                ),
            )
        return merged

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        for resource in (self._file, self._sock):
            try:
                resource.close()
            except OSError:
                pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

"""Line-delimited JSON protocol of the analysis service.

One message per line, UTF-8 JSON, newline-terminated -- trivially
debuggable with ``nc``/``socat`` and implementable from any language.
Payload values (cluster specs, reports) ride inside messages in the
:mod:`repro.api.wire` format, so protocol framing and value encoding are
versioned independently (``protocol_version`` vs ``schema_version``).

Message types
-------------

Server greeting (sent on connect)::

    {"type": "hello", "protocol_version": 1, "schema_version": 2,
     "server_version": "0.4.0"}

Client requests and their responses:

``{"type": "ping"}``
    -> ``{"type": "pong"}``
``{"type": "status"}``
    -> ``{"type": "status_report", ...}`` (see API.md for the fields)
``{"type": "submit", "job": {...}}``
    -> ``{"type": "ack", "job_id": ...}``, then one
    ``{"type": "progress", ...}`` per finished cluster, then
    ``{"type": "result", "job_id": ..., "report": <session_report>, ...}``.
``{"type": "shutdown"}``
    -> ``{"type": "shutdown_ack"}``; the server then stops accepting work.

Any malformed or unserviceable request produces
``{"type": "error", "message": ...}`` without closing the connection.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional

__all__ = [
    "MAX_MESSAGE_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "dump_message",
    "parse_message",
    "read_message",
    "write_message",
]

#: Version of the framing + message vocabulary (not of payload encoding).
PROTOCOL_VERSION = 1

#: Upper bound on one message line.  Reports carry full waveforms, so lines
#: run far past asyncio's 64 KiB default stream limit; servers must pass
#: this as ``limit=`` when creating their streams.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024


class ProtocolError(ValueError):
    """A message violates the line-delimited JSON protocol."""


def dump_message(message: Dict[str, Any]) -> bytes:
    """Serialise one message to its wire line (newline included)."""
    line = json.dumps(message, separators=(",", ":"), allow_nan=True)
    data = line.encode("utf-8") + b"\n"
    if len(data) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"message of {len(data)} bytes exceeds MAX_MESSAGE_BYTES "
            f"({MAX_MESSAGE_BYTES})"
        )
    return data


def parse_message(line: bytes) -> Dict[str, Any]:
    """Parse one received line into a message dict."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed message line: {exc}") from exc
    if not isinstance(message, dict) or not isinstance(message.get("type"), str):
        raise ProtocolError("a message must be a JSON object with a string 'type'")
    return message


async def read_message(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    """Read one message; ``None`` on a clean EOF."""
    try:
        line = await reader.readline()
    except (ValueError, asyncio.LimitOverrunError) as exc:
        raise ProtocolError(f"message line exceeds the stream limit: {exc}") from exc
    if not line:
        return None
    if not line.endswith(b"\n"):
        # readline() returns a partial tail when the peer dies mid-line.
        raise ProtocolError("connection closed mid-message")
    return parse_message(line)


async def write_message(writer: asyncio.StreamWriter, message: Dict[str, Any]) -> None:
    """Send one message and drain the transport."""
    writer.write(dump_message(message))
    await writer.drain()

"""Versioned, lossless JSON wire format for reports and specifications.

The analysis service ships reports between processes and over sockets, so
every report type needs a serialisation that (a) survives a round trip
bit-identically and (b) is wire-stable: payloads carry an explicit
``schema_version`` so a v2 server can keep reading v1 results.

The codec is type-tagged JSON.  Primitives pass through untouched; every
non-JSON value is wrapped in an object carrying the reserved ``__wire__``
tag:

* tuples -- ``{"__wire__": "tuple", "items": [...]}`` (kept distinct from
  lists so frozen dataclasses reconstruct with their exact field types);
* numpy arrays -- dtype + shape + nested list data (float64 values survive
  exactly: Python's JSON float serialisation uses ``repr``, which
  round-trips every finite double, and NaN/Infinity are encoded as JSON
  extensions the standard library reads back);
* :class:`~repro.waveform.Waveform` -- times + values arrays;
* dataclasses -- ``{"__wire__": "dataclass", "class": "module:QualName",
  "fields": {...}}``, reconstructed by importing the class and calling its
  constructor (so ``__post_init__`` validation re-runs on every decode).
  Only classes from the ``repro`` package are ever imported back --
  a payload naming anything else is rejected, not executed.

Entry points: :func:`encode` / :func:`decode` for bare values, and
:func:`wrap` / :func:`unwrap` which add the versioned envelope
(``schema_version`` + ``kind``) used by ``ClusterReport.to_json`` /
``SessionReport.to_json`` / ``SweepReport.to_json`` and the service
protocol.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import Any, Dict

import numpy as np

from ..waveform import Waveform

__all__ = [
    "SCHEMA_VERSION",
    "WireFormatError",
    "decode",
    "encode",
    "unwrap",
    "wrap",
]

#: Version of the wire format.  Bump on any change that would make an old
#: payload unreadable (field renames, tag changes, envelope changes).
SCHEMA_VERSION = 1

#: Reserved key marking a type-tagged object.
_TAG = "__wire__"

#: Only dataclasses from these package roots are reconstructed on decode.
_TRUSTED_PACKAGES = ("repro",)


class WireFormatError(ValueError):
    """A value cannot be encoded, or a payload cannot be decoded."""


# ------------------------------------------------------------------- encode


def encode(value: Any) -> Any:
    """Encode ``value`` into JSON-serialisable, type-tagged form."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.bool_, np.integer, np.floating)):
        return value.item()
    if isinstance(value, np.ndarray):
        return {
            _TAG: "ndarray",
            "dtype": str(value.dtype),
            "shape": list(value.shape),
            "data": value.ravel(order="C").tolist(),
        }
    if isinstance(value, Waveform):
        return {
            _TAG: "waveform",
            "times": value.times.tolist(),
            "values": value.values.tolist(),
        }
    if isinstance(value, tuple):
        return {_TAG: "tuple", "items": [encode(item) for item in value]}
    if isinstance(value, list):
        return [encode(item) for item in value]
    if isinstance(value, dict):
        if all(isinstance(key, str) for key in value) and _TAG not in value:
            return {key: encode(item) for key, item in value.items()}
        # Non-string keys (or a key colliding with the tag) need explicit
        # pairs -- JSON objects only have string keys.
        return {
            _TAG: "mapping",
            "items": [[encode(key), encode(item)] for key, item in value.items()],
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        return {
            _TAG: "dataclass",
            "class": f"{cls.__module__}:{cls.__qualname__}",
            "fields": {
                f.name: encode(getattr(value, f.name))
                for f in dataclasses.fields(cls)
                if f.init
            },
        }
    raise WireFormatError(
        f"cannot encode {type(value).__name__!r} for the wire; supported: "
        "JSON primitives, tuples/lists/dicts, numpy arrays, Waveform and "
        "dataclasses"
    )


# ------------------------------------------------------------------- decode


def _resolve_dataclass(reference: str) -> type:
    module_name, _, qualname = reference.partition(":")
    root = module_name.split(".", 1)[0]
    if root not in _TRUSTED_PACKAGES or not qualname:
        raise WireFormatError(
            f"refusing to import {reference!r}: wire payloads may only "
            f"reference dataclasses from {_TRUSTED_PACKAGES}"
        )
    try:
        target: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            target = getattr(target, part)
    except (ImportError, AttributeError) as exc:
        raise WireFormatError(f"cannot resolve wire class {reference!r}: {exc}") from exc
    if not (isinstance(target, type) and dataclasses.is_dataclass(target)):
        raise WireFormatError(f"{reference!r} is not a dataclass type")
    return target


def decode(payload: Any) -> Any:
    """Reconstruct a value encoded by :func:`encode`.

    Every malformed payload raises :class:`WireFormatError`, chained to the
    error it caused (a missing key, a shape that does not fit its data, an
    unhashable mapping key, data that overflows its dtype...).
    """
    if payload is None or isinstance(payload, (bool, int, float, str)):
        return payload
    if isinstance(payload, list):
        return [decode(item) for item in payload]
    if not isinstance(payload, dict):
        raise WireFormatError(f"unexpected wire payload of type {type(payload).__name__!r}")
    tag = payload.get(_TAG)
    if tag is None:
        return {key: decode(item) for key, item in payload.items()}
    try:
        return _decode_tagged(tag, payload)
    except WireFormatError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise WireFormatError(f"malformed {tag!r} wire payload: {exc!r}") from exc


def _decode_tagged(tag: Any, payload: Dict[str, Any]) -> Any:
    if tag == "tuple":
        return tuple(decode(item) for item in payload["items"])
    if tag == "mapping":
        return {decode(key): decode(item) for key, item in payload["items"]}
    if tag == "ndarray":
        dtype = np.dtype(payload["dtype"])
        if dtype.hasobject:
            raise WireFormatError(f"refusing to decode an ndarray of dtype {dtype}")
        return np.array(payload["data"], dtype=dtype).reshape(payload["shape"])
    if tag == "waveform":
        return Waveform(payload["times"], payload["values"])
    if tag == "dataclass":
        cls = _resolve_dataclass(payload["class"])
        field_names = {f.name for f in dataclasses.fields(cls) if f.init}
        kwargs = {}
        for name, item in payload["fields"].items():
            if name not in field_names:
                raise WireFormatError(
                    f"wire payload for {cls.__name__} carries unknown field {name!r}"
                )
            kwargs[name] = decode(item)
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise WireFormatError(
                f"cannot reconstruct {cls.__name__} from wire payload: {exc}"
            ) from exc
    raise WireFormatError(f"unknown wire tag {tag!r}")


# ----------------------------------------------------------------- envelope


def wrap(kind: str, value: Any) -> Dict[str, Any]:
    """Encode ``value`` under the versioned envelope used by ``to_json``."""
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "payload": encode(value)}


def unwrap(payload: Dict[str, Any], kind: str) -> Any:
    """Validate an envelope produced by :func:`wrap` and decode its payload."""
    if not isinstance(payload, dict):
        raise WireFormatError(f"expected a wire envelope dict, got {type(payload).__name__!r}")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise WireFormatError(
            f"unsupported schema_version {version!r} (this build reads "
            f"version {SCHEMA_VERSION})"
        )
    if payload.get("kind") != kind:
        raise WireFormatError(
            f"expected a {kind!r} payload, got {payload.get('kind')!r}"
        )
    if "payload" not in payload:
        raise WireFormatError(f"the {kind!r} wire envelope carries no payload")
    return decode(payload["payload"])

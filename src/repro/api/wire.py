"""Versioned, lossless JSON wire format for reports and specifications.

The analysis service ships reports between processes and over sockets, so
every report type needs a serialisation that (a) survives a round trip
bit-identically and (b) is wire-stable: payloads carry an explicit
``schema_version`` and a build refuses versions it does not read.

The codec is type-tagged JSON.  Primitives pass through untouched; every
non-JSON value is wrapped in an object carrying the reserved ``__wire__``
tag:

* tuples -- ``{"__wire__": "tuple", "items": [...]}`` (kept distinct from
  lists so frozen dataclasses reconstruct with their exact field types);
* numpy arrays -- ``{"__wire__": "ndarray", "dtype": "<f8", "shape": [...],
  "data": "<base64>"}``: the base64 of the array's little-endian, C-order
  bytes, so every value (NaN payloads, -0.0, subnormals) survives bit for
  bit.  Only bool, integer, float and complex dtypes travel;
* :class:`~repro.waveform.Waveform` -- ``values`` packed the same way as
  float64 bytes, and the time axis either inline (``"times"``, packed
  alike) or, inside an envelope, as ``"axis"``: an index into the
  envelope's ``axes`` table, which stores each distinct axis once;
* dataclasses -- ``{"__wire__": "dataclass", "class": "module:QualName",
  "fields": {...}}``, reconstructed by importing the class and calling its
  constructor (so ``__post_init__`` validation re-runs on every decode).
  Only classes from the ``repro`` package are ever imported back --
  a payload naming anything else is rejected, not executed.

Entry points: :func:`encode` / :func:`decode` for bare values (time axes
inline), and :func:`wrap` / :func:`unwrap` which add the versioned
envelope (``schema_version`` + ``kind`` + ``axes``) used by
``ClusterReport.to_json`` / ``SessionReport.to_json`` /
``SweepReport.to_json`` and the service protocol.
"""

from __future__ import annotations

import base64
import dataclasses
import functools
import importlib
import math
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

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
SCHEMA_VERSION = 2

#: Reserved key marking a type-tagged object.
_TAG = "__wire__"

#: Only dataclasses from these package roots are reconstructed on decode.
_TRUSTED_PACKAGES = ("repro",)

#: dtype kinds an ndarray payload may carry: bool, signed and unsigned
#: integers, floats and complex numbers.
_NUMERIC_KINDS = "biufc"

#: Byte layout of waveform times and values on the wire.
_F8 = np.dtype("<f8")


class WireFormatError(ValueError):
    """A value cannot be encoded, or a payload cannot be decoded."""


def _pack(array: np.ndarray) -> str:
    """Base64 of ``array``'s little-endian bytes in C order."""
    little = array.astype(array.dtype.newbyteorder("<"), copy=False)
    return base64.b64encode(little.tobytes()).decode("ascii")


def _unpack(data: Any, dtype: np.dtype) -> np.ndarray:
    """A read-only 1-D view of the items ``data`` packs (see :func:`_pack`)."""
    raw = base64.b64decode(data, validate=True)
    if len(raw) % dtype.itemsize:
        raise ValueError(f"{len(raw)} bytes are not a whole number of {dtype} items")
    return np.frombuffer(raw, dtype=dtype)


def _unpack_f8(data: Any) -> np.ndarray:
    """A writeable native float64 vector from :func:`_pack`'d bytes."""
    return _unpack(data, _F8).astype(float)


# ------------------------------------------------------------------- encode


class _Encoder:
    """One encode pass.

    With an ``axes`` list, each waveform's time axis is stored there once
    (deduplicated by its exact bytes, in order of first appearance) and
    referenced by index; without one, it is packed inline.
    """

    def __init__(self, axes: Optional[List[str]]):
        self.axes = axes
        self._axis_index: Dict[bytes, int] = {}

    def axis(self, times: np.ndarray) -> int:
        key = times.astype(_F8, copy=False).tobytes()
        index = self._axis_index.get(key)
        if index is None:
            index = self._axis_index[key] = len(self.axes)
            self.axes.append(base64.b64encode(key).decode("ascii"))
        return index

    def encode(self, value: Any) -> Any:
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        if isinstance(value, (np.bool_, np.integer, np.floating)):
            return value.item()
        if isinstance(value, np.ndarray):
            if value.dtype.kind not in _NUMERIC_KINDS:
                raise WireFormatError(
                    f"cannot encode an ndarray of dtype {value.dtype}; supported "
                    "kinds: bool, integer, float, complex"
                )
            return {
                _TAG: "ndarray",
                "dtype": value.dtype.newbyteorder("<").str,
                "shape": list(value.shape),
                "data": _pack(value),
            }
        if isinstance(value, Waveform):
            values = _pack(value.values)
            if self.axes is None:
                return {_TAG: "waveform", "times": _pack(value.times), "values": values}
            return {_TAG: "waveform", "axis": self.axis(value.times), "values": values}
        if isinstance(value, tuple):
            return {_TAG: "tuple", "items": [self.encode(item) for item in value]}
        if isinstance(value, list):
            return [self.encode(item) for item in value]
        if isinstance(value, dict):
            if all(isinstance(key, str) for key in value) and _TAG not in value:
                return {key: self.encode(item) for key, item in value.items()}
            # Non-string keys (or a key colliding with the tag) need explicit
            # pairs -- JSON objects only have string keys.
            return {
                _TAG: "mapping",
                "items": [[self.encode(key), self.encode(item)] for key, item in value.items()],
            }
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            cls = type(value)
            return {
                _TAG: "dataclass",
                "class": f"{cls.__module__}:{cls.__qualname__}",
                "fields": {
                    f.name: self.encode(getattr(value, f.name))
                    for f in dataclasses.fields(cls)
                    if f.init
                },
            }
        raise WireFormatError(
            f"cannot encode {type(value).__name__!r} for the wire; supported: "
            "JSON primitives, tuples/lists/dicts, numeric numpy arrays, "
            "Waveform and dataclasses"
        )


def encode(value: Any) -> Any:
    """Encode ``value`` into JSON-serialisable, type-tagged form.

    Waveform time axes are packed inline; :func:`wrap` shares them instead.
    """
    return _Encoder(None).encode(value)


# ------------------------------------------------------------------- decode


@functools.lru_cache(maxsize=None)
def _resolve_dataclass(reference: str) -> Tuple[type, FrozenSet[str]]:
    """The dataclass ``reference`` names and its ``__init__`` field names.

    Cached: only references that resolve are stored, and those name
    dataclasses of the trusted packages, of which there are finitely many.
    """
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
    return target, frozenset(f.name for f in dataclasses.fields(target) if f.init)


def _decode_ndarray(payload: Dict[str, Any]) -> np.ndarray:
    name, shape = payload["dtype"], payload["shape"]
    if not isinstance(name, str):
        raise TypeError(f"dtype must be a string, got {name!r}")
    dtype = np.dtype(name)
    if dtype.kind not in _NUMERIC_KINDS:
        raise TypeError(f"refusing to decode an ndarray of dtype {dtype}")
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"shape must be a list of non-negative ints, got {shape!r}")
    items = _unpack(payload["data"], dtype)
    if items.size != math.prod(shape):
        raise ValueError(f"{items.size} items of {dtype} do not fill shape {shape}")
    # astype copies: the result owns its data, is writeable and native-order.
    return items.reshape(shape).astype(dtype.newbyteorder("="))


class _Decoder:
    """One decode pass over a payload, resolving ``axis`` references in
    ``axes`` (``None`` outside an envelope)."""

    def __init__(self, axes: Optional[List[np.ndarray]]):
        self.axes = axes

    def decode(self, payload: Any) -> Any:
        if payload is None or isinstance(payload, (bool, int, float, str)):
            return payload
        if isinstance(payload, list):
            return [self.decode(item) for item in payload]
        if not isinstance(payload, dict):
            raise WireFormatError(f"unexpected wire payload of type {type(payload).__name__!r}")
        tag = payload.get(_TAG)
        if tag is None:
            return {key: self.decode(item) for key, item in payload.items()}
        try:
            return self._decode_tagged(tag, payload)
        except WireFormatError:
            raise
        except (AttributeError, LookupError, OverflowError, TypeError, ValueError) as exc:
            raise WireFormatError(f"malformed {tag!r} wire payload: {exc!r}") from exc

    def axis(self, index: Any) -> np.ndarray:
        if self.axes is None:
            raise LookupError(f"axis {index!r} given outside an envelope's 'axes' table")
        if type(index) is not int:
            raise TypeError(f"axis must be an int, got {index!r}")
        if not 0 <= index < len(self.axes):
            raise IndexError(f"axis {index} is not in a table of {len(self.axes)} axes")
        return self.axes[index]

    def _decode_tagged(self, tag: Any, payload: Dict[str, Any]) -> Any:
        if tag == "tuple":
            return tuple(self.decode(item) for item in payload["items"])
        if tag == "mapping":
            return {self.decode(key): self.decode(item) for key, item in payload["items"]}
        if tag == "ndarray":
            return _decode_ndarray(payload)
        if tag == "waveform":
            if "axis" in payload:
                # Waveforms never write to their axis, so one array serves all.
                times = self.axis(payload["axis"])
            else:
                times = _unpack_f8(payload["times"])
            return Waveform(times, _unpack_f8(payload["values"]))
        if tag == "dataclass":
            cls, field_names = _resolve_dataclass(payload["class"])
            kwargs = {}
            for name, item in payload["fields"].items():
                if name not in field_names:
                    raise WireFormatError(
                        f"wire payload for {cls.__name__} carries unknown field {name!r}"
                    )
                kwargs[name] = self.decode(item)
            try:
                return cls(**kwargs)
            except (TypeError, ValueError) as exc:
                raise WireFormatError(
                    f"cannot reconstruct {cls.__name__} from wire payload: {exc}"
                ) from exc
        raise WireFormatError(f"unknown wire tag {tag!r}")


def decode(payload: Any) -> Any:
    """Reconstruct a value encoded by :func:`encode`.

    Every malformed payload raises :class:`WireFormatError`, chained to the
    error it caused (a missing key, invalid base64, a byte count that does
    not fit the shape, a non-numeric dtype, an unhashable mapping key...).
    """
    return _Decoder(None).decode(payload)


# ----------------------------------------------------------------- envelope


def wrap(kind: str, value: Any) -> Dict[str, Any]:
    """Encode ``value`` under the versioned envelope used by ``to_json``.

    Each distinct waveform time axis is stored once in ``axes``.
    """
    axes: List[str] = []
    payload = _Encoder(axes).encode(value)
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "axes": axes, "payload": payload}


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
    table = payload.get("axes")
    try:
        if not isinstance(table, list):
            raise TypeError(f"'axes' must be a list, got {type(table).__name__!r}")
        axes = [_unpack_f8(axis) for axis in table]
    except (TypeError, ValueError) as exc:
        raise WireFormatError(f"malformed 'axes' table in the {kind!r} envelope: {exc!r}") from exc
    return _Decoder(axes).decode(payload["payload"])

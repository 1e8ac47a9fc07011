"""Compact tagged binary encoding for scalar-ish Python values.

One byte of type tag followed by a fixed ``struct`` body (or a length
prefix for variable-size data).  This is the value codec shared by the
v2 data-page layout (:mod:`repro.storage.serializer`) and the binary
wire payloads (:mod:`repro.server.binpayload`): record values
and wire scalars are the same small universe — ``None``, bools, ints,
floats, strings, bytes, and shallow containers — so one codec serves
both and pickle survives only as the fallback tag for anything else.

Decoding works over ``bytes`` *or* ``memoryview`` without copying the
input (strings/bytes are materialized, everything else is unpacked in
place), which is what lets page images decode straight out of a file
slot or WAL overlay buffer.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Union

from repro.errors import SerializationError

Buffer = Union[bytes, bytearray, memoryview]

_TAG_NONE = 0
_TAG_FALSE = 1
_TAG_TRUE = 2
_TAG_INT64 = 3
_TAG_BIGINT = 4
_TAG_FLOAT64 = 5
_TAG_STR = 6
_TAG_BYTES = 7
_TAG_LIST = 8
_TAG_TUPLE = 9
_TAG_DICT = 10
_TAG_PICKLE = 11

_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_LEN = struct.Struct("<I")

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def encode_into(
    out: bytearray, value: Any, *, pickle_fallback: bool = True
) -> None:
    """Append ``value``'s tagged encoding to ``out``.

    With ``pickle_fallback=False`` a value outside the tagged universe
    raises :class:`~repro.errors.SerializationError` instead of being
    pickled — the wire payload codec uses this so a frame never
    carries (or accepts) a pickle, which would be remote code execution
    waiting to happen.
    """
    if value is None:
        out.append(_TAG_NONE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif type(value) is int:
        if _INT64_MIN <= value <= _INT64_MAX:
            out.append(_TAG_INT64)
            out += _I64.pack(value)
        else:
            raw = value.to_bytes(
                (value.bit_length() + 8) // 8, "little", signed=True
            )
            out.append(_TAG_BIGINT)
            out += _LEN.pack(len(raw))
            out += raw
    elif type(value) is float:
        out.append(_TAG_FLOAT64)
        out += _F64.pack(value)
    elif type(value) is str:
        raw = value.encode("utf-8")
        out.append(_TAG_STR)
        out += _LEN.pack(len(raw))
        out += raw
    elif type(value) is bytes or type(value) is bytearray:
        out.append(_TAG_BYTES)
        out += _LEN.pack(len(value))
        out += value
    elif type(value) is list:
        out.append(_TAG_LIST)
        out += _LEN.pack(len(value))
        for item in value:
            encode_into(out, item, pickle_fallback=pickle_fallback)
    elif type(value) is tuple:
        out.append(_TAG_TUPLE)
        out += _LEN.pack(len(value))
        for item in value:
            encode_into(out, item, pickle_fallback=pickle_fallback)
    elif type(value) is dict:
        out.append(_TAG_DICT)
        out += _LEN.pack(len(value))
        for key, item in value.items():
            encode_into(out, key, pickle_fallback=pickle_fallback)
            encode_into(out, item, pickle_fallback=pickle_fallback)
    elif not pickle_fallback:
        raise SerializationError(
            f"no tagged binary encoding for {type(value).__name__}"
        )
    else:
        raw = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        out.append(_TAG_PICKLE)
        out += _LEN.pack(len(raw))
        out += raw


def encode(value: Any) -> bytes:
    """``value`` as one self-contained tagged blob."""
    out = bytearray()
    encode_into(out, value)
    return bytes(out)


def decode_from(
    buf: Buffer, offset: int, *, allow_pickle: bool = True
) -> tuple[Any, int]:
    """Decode one tagged value at ``offset``; returns ``(value, end)``.

    ``allow_pickle=False`` rejects the pickle tag outright — required
    for any input that crossed a trust boundary (wire frames).
    """
    try:
        tag = buf[offset]
        offset += 1
        if tag == _TAG_NONE:
            return None, offset
        if tag == _TAG_FALSE:
            return False, offset
        if tag == _TAG_TRUE:
            return True, offset
        if tag == _TAG_INT64:
            return _I64.unpack_from(buf, offset)[0], offset + _I64.size
        if tag == _TAG_FLOAT64:
            return _F64.unpack_from(buf, offset)[0], offset + _F64.size
        if tag in (_TAG_BIGINT, _TAG_STR, _TAG_BYTES, _TAG_PICKLE):
            (length,) = _LEN.unpack_from(buf, offset)
            offset += _LEN.size
            end = offset + length
            raw = buf[offset:end]
            if len(raw) < length:
                raise SerializationError("tagged value truncated")
            if tag == _TAG_STR:
                return str(raw, "utf-8"), end
            if tag == _TAG_BYTES:
                return bytes(raw), end
            if tag == _TAG_PICKLE:
                if not allow_pickle:
                    raise SerializationError(
                        "pickled value refused on this input"
                    )
                return pickle.loads(raw), end
            return int.from_bytes(bytes(raw), "little", signed=True), end
        if tag in (_TAG_LIST, _TAG_TUPLE):
            (count,) = _LEN.unpack_from(buf, offset)
            offset += _LEN.size
            items = []
            for _ in range(count):
                item, offset = decode_from(
                    buf, offset, allow_pickle=allow_pickle
                )
                items.append(item)
            return (tuple(items) if tag == _TAG_TUPLE else items), offset
        if tag == _TAG_DICT:
            (count,) = _LEN.unpack_from(buf, offset)
            offset += _LEN.size
            mapping: dict[Any, Any] = {}
            for _ in range(count):
                key, offset = decode_from(
                    buf, offset, allow_pickle=allow_pickle
                )
                value, offset = decode_from(
                    buf, offset, allow_pickle=allow_pickle
                )
                mapping[key] = value
            return mapping, offset
    except (struct.error, IndexError, UnicodeDecodeError,
            pickle.UnpicklingError, EOFError) as exc:
        raise SerializationError(f"corrupt tagged value: {exc}") from exc
    raise SerializationError(f"unknown value tag {tag:#x}")


def decode(buf: Buffer, *, allow_pickle: bool = True) -> Any:
    """Decode exactly one tagged blob; trailing garbage is an error."""
    value, end = decode_from(buf, 0, allow_pickle=allow_pickle)
    if end != len(buf):
        raise SerializationError(
            f"{len(buf) - end} trailing byte(s) after tagged value"
        )
    return value

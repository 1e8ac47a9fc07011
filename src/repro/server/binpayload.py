"""Frame payload bodies: one format byte, then a tagged binary object.

A frame's payload starts with one *format byte*; ``0x02`` is the only
format — the payload object in the tagged binary encoding of
:mod:`repro.storage.binval`, with pickle disabled in both directions (a
frame crossed a trust boundary, so the pickle tag is refused rather
than executed).  A value outside that tagged universe cannot be
encoded, and any other format byte cannot be decoded; both fail with a
structured ``bad-payload`` error.

This module and :mod:`repro.server.shard` (the on-disk topology file)
are the only service-layer files allowed to touch :mod:`json` (rule
REP107): every other server module is on the hot path.  The JSON here
is :func:`canonical_blob`, the migration digest's record encoding,
never wire traffic.
"""

from __future__ import annotations

import json
from typing import Any, Union

from repro.errors import ProtocolError, SerializationError
from repro.storage import binval

Buffer = Union[bytes, bytearray, memoryview]

#: The payload format byte (an empty payload has no body at all).
FORMAT_BINARY = 0x02


def encode_payload(payload: Any) -> bytes:
    """One payload body: format byte + encoded object."""
    out = bytearray(1)
    out[0] = FORMAT_BINARY
    try:
        binval.encode_into(out, payload, pickle_fallback=False)
    except SerializationError as exc:
        raise ProtocolError(
            f"unencodable payload: {exc}", code="bad-payload"
        ) from None
    return bytes(out)


def decode_payload(raw: Buffer) -> Any:
    """Invert :func:`encode_payload`; raises ``bad-payload`` on garbage."""
    if raw[0] != FORMAT_BINARY:
        raise ProtocolError(
            f"unknown payload format byte {raw[0]:#x}", code="bad-payload"
        )
    try:
        return binval.decode(raw[1:], allow_pickle=False)
    except SerializationError as exc:
        raise ProtocolError(
            f"undecodable payload: {exc}", code="bad-payload"
        ) from None


def canonical_blob(key: Any, value: Any) -> bytes:
    """The migration digest's canonical record encoding.

    Deliberately *stays* JSON: both ends of a digest comparison must
    produce byte-identical blobs across library versions, and the JSON
    form is the one PR 8's migrators already hash.
    """
    return json.dumps(
        [key, value], separators=(",", ":"), sort_keys=True
    ).encode("utf-8")

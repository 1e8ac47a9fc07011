"""The wire protocol: length-prefixed binary frames.

Every frame has one layout (all integers little-endian)::

    u32  body length                  (frame = 4-byte prefix + body)
    u8   protocol version             (3)
    u8   opcode                       (Opcode)
    u32  request id                   (client-chosen; echoed in replies)
    u32  topology epoch               (0 = "not asserting an epoch")
    ...  payload                      (optional: format byte + body)

The payload, when present, starts with a format byte — ``0x02``, the
tagged binary encoding of :mod:`repro.server.binpayload` — so no frame
pays ``json.dumps``/``loads``.  A frame carrying any other version byte
is rejected with ``bad-version``, a payload with any other format byte
with ``bad-payload``; both replies are structured and the stream keeps
serving.

The epoch is the sharding layer's staleness fence: a
:class:`~repro.server.router.ShardRouter` stamps every reply with its
current topology epoch, and a client echoes the last epoch it saw on
each data request.  A request carrying a stale non-zero epoch is
rejected with ``stale-topology`` — the error reply's header already
carries the new epoch, so the client refreshes and retries without a
round trip.  Servers that do not shard (a plain ``QueryServer``) run at
epoch 0 and never reject.

The length prefix counts the body (version byte onward) and is capped at
:data:`MAX_FRAME`; a larger claim is rejected before any allocation — a
garbage prefix must never buffer gigabytes.  A ``PING`` reply advertises
``max_frame``, the server's frame-body cap; after
:meth:`~repro.server.client.QueryClient.negotiate` both endpoints frame
and accept bodies up to that size instead of the default.  Requests and
replies share the layout; a reply echoes the request id and carries
either :attr:`Opcode.REPLY_OK` with a result object or
:attr:`Opcode.REPLY_ERR` with a structured ``{"code", "message"}``
payload.

Pipelining: a client may send any number of frames before reading
replies (bounded by the server's per-session limit); replies may arrive
out of order, matched by request id.

Error codes travel as short stable strings (``duplicate-key``,
``key-not-found``, ``busy``, ``bad-payload``, ...) so clients can map
them back to the :mod:`repro.errors` hierarchy without parsing prose.
The ``busy`` family (``busy``, ``pipeline-limit``, ``latch-timeout``,
``shutting-down``) is the 503-style backpressure surface: retryable,
never fatal, never queued unboundedly on the server.  ``shard-down``
and ``stale-topology`` are the routing layer's structured failures:
the first is a dead upstream surfaced instead of a hang, the second is
handled transparently by the client as described above.
"""

from __future__ import annotations

import asyncio
import dataclasses
import enum
import struct
from typing import Any

from repro.errors import (
    CapacityError,
    DuplicateKeyError,
    EncodingError,
    InvariantViolation,
    KeyDimensionError,
    KeyNotFoundError,
    LatchTimeout,
    ProtocolError,
    SerializationError,
    StorageError,
)
# A submodule import (not an attribute of the package) so the circular
# ``repro.server`` package init resolves; binpayload imports nothing
# from this module.
from repro.server import binpayload

#: The one frame version every endpoint encodes and accepts.
PROTOCOL_VERSION = 3
#: Default cap on a frame body; larger length prefixes are garbage.
#: Endpoints may negotiate a different cap (the server's ``max_frame``
#: config, advertised in its PING reply) — every framing entry point
#: below takes an optional override.
MAX_FRAME = 1 << 20

_LEN = struct.Struct("<I")
_HEAD = struct.Struct("<BBII")  # version, opcode, request id, epoch
_ID_LIMIT = 1 << 32  # request ids and epochs are u32 on the wire


class Opcode(enum.IntEnum):
    """Request and reply opcodes."""

    PING = 1
    INSERT = 2
    SEARCH = 3
    DELETE = 4
    INSERT_MANY = 5
    SEARCH_MANY = 6
    DELETE_MANY = 7
    RANGE = 8
    STATS = 9
    TOPOLOGY = 10
    ROUTE = 11
    MIGRATE = 12
    #: Replication stream control: ``hello`` attaches a WAL tap
    #: and reports the checkpoint size, ``checkpoint`` pages committed
    #: images to a bootstrapping follower, ``tail`` drains committed
    #: batches, ``bye`` detaches.  Read-side: never enters the write
    #: aggregator.
    REPL = 13
    REPLY_OK = 128
    REPLY_ERR = 129


#: Opcodes that mutate the index — these must flow through the write
#: aggregator; everything else is a read and fans out.
MUTATION_OPCODES = frozenset(
    (Opcode.INSERT, Opcode.DELETE, Opcode.INSERT_MANY, Opcode.DELETE_MANY)
)

#: Exception class -> wire error code.  First match wins (subclasses
#: before bases: LatchTimeout is not a StorageError but Serialization
#: and Crash errors are).
_ERROR_CODES: tuple[tuple[type, str], ...] = (
    (DuplicateKeyError, "duplicate-key"),
    (KeyNotFoundError, "key-not-found"),
    (KeyDimensionError, "bad-key"),
    (EncodingError, "bad-key"),
    (CapacityError, "capacity"),
    (LatchTimeout, "latch-timeout"),
    (InvariantViolation, "invariant"),
    (SerializationError, "storage"),
    (StorageError, "storage"),
    (ProtocolError, "bad-payload"),
)

#: Codes the client should treat as retryable backpressure (503-style).
BUSY_CODES = frozenset(
    ("busy", "pipeline-limit", "latch-timeout", "shutting-down")
)


def error_code(exc: BaseException) -> str:
    """The wire code for an exception raised while serving a request.

    An exception carrying a string ``code`` attribute (``ProtocolError``,
    ``ShardDownError``, ``StaleTopologyError``, a client-side
    ``RemoteError`` being re-raised by the router) keeps that code —
    this is what lets a structured error round-trip shard → router →
    client without collapsing to ``internal``.
    """
    code = getattr(exc, "code", None)
    if isinstance(code, str) and code:
        return code
    for cls, wire_code in _ERROR_CODES:
        if isinstance(exc, cls):
            return wire_code
    return "internal"


def encode_frame(
    opcode: int,
    request_id: int,
    payload: Any = None,
    *,
    epoch: int = 0,
    max_frame: int | None = None,
) -> bytes:
    """Serialize one frame (length prefix included).

    Request ids and epochs must fit ``u32``.  ``max_frame`` overrides
    the default body cap when the endpoints negotiated one.
    """
    if not 0 <= request_id < _ID_LIMIT:
        raise ProtocolError(
            f"request id {request_id} outside [0, 2^32)", code="bad-frame"
        )
    body = _HEAD.pack(PROTOCOL_VERSION, opcode, request_id, epoch % _ID_LIMIT)
    if payload is not None:
        body += binpayload.encode_payload(payload)
    limit = MAX_FRAME if max_frame is None else max_frame
    if len(body) > limit:
        raise ProtocolError(
            f"frame body of {len(body)} bytes exceeds the "
            f"{limit}-byte limit",
            code="oversized",
        )
    return _LEN.pack(len(body)) + body


def encode_error(
    request_id: int,
    code: str,
    message: str,
    *,
    epoch: int = 0,
    max_frame: int | None = None,
) -> bytes:
    """Serialize a structured error reply."""
    return encode_frame(
        Opcode.REPLY_ERR,
        request_id,
        {"code": code, "message": message},
        epoch=epoch,
        max_frame=max_frame,
    )


@dataclasses.dataclass(frozen=True)
class Frame:
    """One decoded frame body."""

    opcode: int
    request_id: int
    payload: Any
    epoch: int = 0


def decode_frame(body: bytes) -> Frame:
    """Parse a frame body.

    Raises :class:`~repro.errors.ProtocolError` (with a structured code)
    on a truncated header, a foreign version byte, or an undecodable
    payload.  An unknown-but-well-formed opcode is returned as-is — the
    dispatcher replies ``bad-opcode`` at the request level, keeping the
    stream usable.
    """
    if len(body) < 1:
        raise ProtocolError("empty frame body", code="bad-frame")
    if body[0] != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {body[0]} is not supported "
            f"(this endpoint speaks {PROTOCOL_VERSION})",
            code="bad-version",
        )
    if len(body) < _HEAD.size:
        raise ProtocolError(
            f"frame body of {len(body)} bytes is shorter than the "
            f"{_HEAD.size}-byte header",
            code="bad-frame",
        )
    _, opcode, request_id, epoch = _HEAD.unpack_from(body, 0)
    raw = body[_HEAD.size :]
    payload = binpayload.decode_payload(raw) if raw else None
    return Frame(opcode, request_id, payload, epoch)


def negotiated_max_frame(ping_reply: Any) -> int:
    """The frame-body cap a peer advertises in its ``PING`` reply.

    A peer that advertises nothing (or garbage) runs at the default
    :data:`MAX_FRAME`.
    """
    if not isinstance(ping_reply, dict):
        return MAX_FRAME
    advertised = ping_reply.get("max_frame")
    if not isinstance(advertised, int) or advertised < 1:
        return MAX_FRAME
    return advertised


class FrameReader:
    """Buffered frame splitter for a connection's read loop.

    Under a pipelined burst the peer delivers many frames per TCP
    segment, so a per-connection buffer turns them into one ``read()``
    per segment and plain slicing per frame.  Returns ``None`` on a
    clean EOF at a frame boundary; raises ``bad-frame`` on a zero
    length or a mid-frame truncation and ``oversized`` past the cap —
    the connection cannot be resynced after either, so the session
    replies once and closes.
    """

    __slots__ = ("_reader", "_buf", "_pos")

    #: Bytes requested per stream read — large enough to swallow a
    #: whole pipelined burst in one syscall.
    _CHUNK = 1 << 16

    def __init__(self, reader: asyncio.StreamReader) -> None:
        self._reader = reader
        self._buf = bytearray()
        self._pos = 0

    async def next_frame(self, max_frame: int | None = None) -> bytes | None:
        """One frame body (``max_frame`` may change between calls: the
        session tightens it after negotiation)."""
        limit = MAX_FRAME if max_frame is None else max_frame
        buf = self._buf
        prefix_size = _LEN.size
        while True:
            avail = len(buf) - self._pos
            if avail >= prefix_size:
                (length,) = _LEN.unpack_from(buf, self._pos)
                if length == 0 or length > limit:
                    raise ProtocolError(
                        f"frame length {length} outside (0, {limit}]",
                        code="oversized" if length else "bad-frame",
                    )
                if avail >= prefix_size + length:
                    start = self._pos + prefix_size
                    end = start + length
                    body = bytes(buf[start:end])
                    if end == len(buf):
                        buf.clear()
                        self._pos = 0
                    elif end >= self._CHUNK:
                        del buf[:end]
                        self._pos = 0
                    else:
                        self._pos = end
                    return body
            chunk = await self._reader.read(self._CHUNK)
            if not chunk:
                if avail == 0:
                    return None  # clean EOF at a frame boundary
                raise ProtocolError(
                    "truncated frame body"
                    if avail >= prefix_size
                    else "truncated length prefix",
                    code="bad-frame",
                )
            buf += chunk


# -- payload field validation -------------------------------------------------


def field(payload: Any, name: str, kind: type | None = None) -> Any:
    """Extract a required payload field, raising ``bad-payload`` errors
    a fuzzer cannot turn into a server crash."""
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"payload must be an object, got {type(payload).__name__}",
            code="bad-payload",
        )
    if name not in payload:
        raise ProtocolError(f"missing field {name!r}", code="bad-payload")
    value = payload[name]
    if kind is not None and not isinstance(value, kind):
        raise ProtocolError(
            f"field {name!r} must be {kind.__name__}, "
            f"got {type(value).__name__}",
            code="bad-payload",
        )
    return value


def key_field(payload: Any, name: str = "key") -> list:
    """A key vector: a JSON array of attribute values."""
    return field(payload, name, list)

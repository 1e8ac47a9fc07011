"""The asyncio pipelining client.

:class:`QueryClient` mirrors the :class:`~repro.core.facade.MultiKeyFile`
API over the wire.  Every call is one request frame; a background reader
task matches replies to requests by id, so any number of calls may be in
flight on one connection (pipelining) — fire them with
``asyncio.gather`` and the server interleaves them up to its per-session
limit.  Wire errors are mapped back onto the :mod:`repro.errors`
hierarchy: a served ``duplicate-key`` raises
:class:`~repro.errors.DuplicateKeyError` exactly as the embedded index
would, and the 503-style backpressure codes raise :class:`ServerBusy`,
which callers treat as retryable.

Long-lived connections are first-class:

* request ids wrap modulo 2^32 (the wire width), skipping 0 and any id
  still awaiting its reply, so a pipelined connection never dies of id
  exhaustion;
* reply payloads are validated through :func:`repro.server.protocol.field`
  before indexing — a malformed ``REPLY_OK`` surfaces as a structured
  :class:`~repro.errors.ProtocolError` (``bad-payload``), never a raw
  ``TypeError``/``KeyError``;
* against a sharding router every reply header updates the cached
  topology epoch, every data request echoes it, and a
  ``stale-topology`` rejection is retried transparently with the
  refreshed epoch.
"""

from __future__ import annotations

import asyncio
from typing import Any, Sequence

from repro.errors import (
    CapacityError,
    DuplicateKeyError,
    EncodingError,
    KeyDimensionError,
    KeyNotFoundError,
    ProtocolError,
    ReproError,
    ShardDownError,
    StaleTopologyError,
    StorageError,
)
from repro.server import protocol
from repro.server.protocol import BUSY_CODES, Opcode

#: Request ids are ``u32`` on the wire; 0 is reserved for server-initiated
#: error frames, so the usable id space is [1, 2^32).
_ID_SPACE = 1 << 32

#: Bounded transparent retries on ``stale-topology`` — each retry uses
#: the epoch learned from the rejecting reply's own header, so one
#: round normally suffices; the bound guards against a flapping router.
_STALE_RETRIES = 3

#: Socket write-buffer size past which a request awaits ``drain()``.
#: Below it, requests are fire-and-forget writes — a pipelined gather
#: burst costs no per-request suspension.
_WRITE_HIGH_WATER = 256 * 1024


class RemoteError(ReproError):
    """A structured error reply the client has no local class for.

    Attributes:
        code: the wire error code (``internal``, ``invariant``, ...).
    """

    def __init__(self, message: str, *, code: str = "internal") -> None:
        self.code = code
        super().__init__(f"[{code}] {message}")


class ServerBusy(RemoteError):
    """A 503-style backpressure reply: the request was rejected, not
    failed — retry after easing off."""


#: Wire code -> local exception class (bare message constructors).
_CODE_ERRORS: dict[str, type] = {
    "duplicate-key": DuplicateKeyError,
    "key-not-found": KeyNotFoundError,
    "bad-key": KeyDimensionError,
    "encoding": EncodingError,
    "capacity": CapacityError,
    "storage": StorageError,
    "shard-down": ShardDownError,
    "stale-topology": StaleTopologyError,
}


def _error_for(code: str, message: str) -> Exception:
    if code in BUSY_CODES:
        return ServerBusy(message, code=code)
    cls = _CODE_ERRORS.get(code)
    if cls is not None:
        return cls(message)
    if code.startswith("bad-") or code == "oversized":
        return ProtocolError(message, code=code)
    return RemoteError(message, code=code)


class QueryClient:
    """One pipelined connection to a :class:`QueryServer` or
    :class:`~repro.server.router.ShardRouter`."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._frames = protocol.FrameReader(reader)
        self._writer = writer
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._closed = False
        #: Frame-size cap agreed at negotiation (None = protocol default).
        self._max_frame: int | None = None
        #: Last topology epoch seen in any reply header (0 = none).
        self._epoch = 0
        #: Outgoing frames buffered for one coalesced ``write()`` per
        #: loop tick — a pipelined gather burst becomes one syscall on
        #: this side and one large ``recv`` on the server's.
        self._out: list[bytes] = []
        self._flush_scheduled = False
        self._loop = asyncio.get_running_loop()
        self._reader_task = self._loop.create_task(
            self._read_replies(), name="repro-client-reader"
        )

    @classmethod
    async def connect(
        cls, host: str, port: int, *, negotiate: bool = False
    ) -> "QueryClient":
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(reader, writer)
        if negotiate:
            await client.negotiate()
        return client

    @property
    def max_frame(self) -> int:
        """The frame-size cap in force on this connection."""
        return (
            protocol.MAX_FRAME if self._max_frame is None else self._max_frame
        )

    @property
    def epoch(self) -> int:
        """The last topology epoch observed from the peer (0 = none)."""
        return self._epoch

    async def __aenter__(self) -> "QueryClient":
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    async def close(self) -> None:
        if self._closed:
            return
        self._flush_out()  # last queued frames, before _closed drops them
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._fail_pending(ConnectionError("client closed"))

    def _fail_pending(self, exc: Exception) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()

    def _abandon(self, exc: Exception) -> None:
        """Mark the connection dead after an EOF or reader failure.

        Without this, a peer that dies *between* requests leaves the
        client looking healthy (`_closed` False, nothing pending) and
        the next request writes into a dead socket and waits forever —
        the reply that would resolve it can never arrive.  Flagging the
        client closed here makes callers (the router's shard links, any
        reconnect wrapper) observe the death synchronously.
        """
        self._closed = True
        try:
            self._writer.close()
        except Exception:
            pass
        self._fail_pending(exc)

    # -- plumbing ------------------------------------------------------------

    def _send_frame(self, data: bytes) -> None:
        """Queue one frame; all frames queued this tick share a write.

        Order is preserved (one FIFO list), so pipelined requests still
        hit the wire in submission order.
        """
        self._out.append(data)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self._loop.call_soon(self._flush_out)

    def _flush_out(self) -> None:
        self._flush_scheduled = False
        if not self._out or self._closed:
            self._out.clear()
            return
        data = b"".join(self._out)
        self._out.clear()
        self._writer.write(data)

    async def _read_replies(self) -> None:
        try:
            while True:
                body = await self._frames.next_frame(self._max_frame)
                if body is None:
                    self._abandon(
                        ConnectionError("server closed the connection")
                    )
                    return
                frame = protocol.decode_frame(body)
                if frame.epoch:
                    # Every reply refreshes the topology epoch — the
                    # stale-topology retry path depends on the rejection
                    # itself having already delivered the new epoch.
                    self._epoch = frame.epoch
                future = self._pending.pop(frame.request_id, None)
                if future is None or future.done():
                    continue  # unsolicited or already-failed request
                if frame.opcode == Opcode.REPLY_OK:
                    future.set_result(frame.payload)
                elif frame.opcode == Opcode.REPLY_ERR:
                    code = "internal"
                    message = "unstructured error reply"
                    if isinstance(frame.payload, dict):
                        code = str(frame.payload.get("code", code))
                        message = str(frame.payload.get("message", message))
                    future.set_exception(_error_for(code, message))
                else:
                    future.set_exception(
                        ProtocolError(
                            f"unexpected reply opcode {frame.opcode}",
                            code="bad-opcode",
                        )
                    )
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._abandon(
                exc if isinstance(exc, ReproError)
                else ConnectionError(f"connection failed: {exc}")
            )

    def _allocate_id(self) -> int:
        """The next request id: wraps modulo 2^32, skips 0 (reserved for
        server-initiated errors) and ids still awaiting replies.

        The id space dwarfs any admissible pipeline depth, so the scan
        terminates after at most ``len(_pending) + 2`` steps.
        """
        for _ in range(len(self._pending) + 2):
            self._next_id = (self._next_id + 1) % _ID_SPACE
            if self._next_id != 0 and self._next_id not in self._pending:
                return self._next_id
        raise ProtocolError(
            "no free request id: every id in the 2^32 space is in flight",
            code="bad-frame",
        )

    async def request(self, opcode: Opcode, payload: Any = None) -> Any:
        """Send one request frame and await its reply payload.

        The generic entry point behind every typed method — also the
        router's upstream hook.  Handles id allocation, epoch stamping
        and the transparent ``stale-topology`` retry.
        """
        last: StaleTopologyError | None = None
        for _ in range(_STALE_RETRIES):
            try:
                return await self._request_once(opcode, payload)
            except StaleTopologyError as exc:
                # The rejecting reply's header already updated
                # self._epoch; re-send with the fresh value.
                last = exc
        assert last is not None
        raise last

    async def _request_once(self, opcode: Opcode, payload: Any = None) -> Any:
        if self._closed:
            raise ConnectionError("client is closed")
        request_id = self._allocate_id()
        # Encode before registering: a payload that cannot be framed
        # (unencodable, oversized) raises without leaving a pending id.
        frame = protocol.encode_frame(
            opcode,
            request_id,
            payload,
            epoch=self._epoch,
            max_frame=self._max_frame,
        )
        future: asyncio.Future = self._loop.create_future()
        self._pending[request_id] = future
        self._send_frame(frame)
        transport = self._writer.transport
        if (
            transport is not None
            and transport.get_write_buffer_size() > _WRITE_HIGH_WATER
        ):
            await self._writer.drain()
        return await future

    # -- negotiation ----------------------------------------------------------

    async def negotiate(self) -> int:
        """Adopt the peer's advertised frame-size cap.

        Sends a ``PING``; a peer that advertises a ``max_frame`` fixes
        this connection's frame-size cap in both directions.  Returns
        the cap now in force.
        """
        reply = await self._request_once(Opcode.PING)
        self._max_frame = protocol.negotiated_max_frame(reply)
        return self._max_frame

    # -- the MultiKeyFile API, served ---------------------------------------

    async def ping(self) -> dict:
        reply = await self.request(Opcode.PING)
        if not isinstance(reply, dict):
            raise ProtocolError(
                f"PING reply must be an object, got {type(reply).__name__}",
                code="bad-payload",
            )
        return reply

    async def insert(self, key: Sequence[Any], value: Any = None) -> None:
        await self.request(Opcode.INSERT, {"key": list(key), "value": value})

    async def search(self, key: Sequence[Any]) -> Any:
        reply = await self.request(Opcode.SEARCH, {"key": list(key)})
        return protocol.field(reply, "value")

    async def delete(self, key: Sequence[Any]) -> Any:
        reply = await self.request(Opcode.DELETE, {"key": list(key)})
        return protocol.field(reply, "value")

    async def insert_many(
        self, pairs: Sequence[tuple[Sequence[Any], Any]]
    ) -> int:
        reply = await self.request(
            Opcode.INSERT_MANY,
            {"pairs": [[list(key), value] for key, value in pairs]},
        )
        return protocol.field(reply, "inserted", int)

    async def search_many(self, keys: Sequence[Sequence[Any]]) -> list[Any]:
        reply = await self.request(
            Opcode.SEARCH_MANY, {"keys": [list(key) for key in keys]}
        )
        return protocol.field(reply, "values", list)

    async def delete_many(self, keys: Sequence[Sequence[Any]]) -> list[Any]:
        reply = await self.request(
            Opcode.DELETE_MANY, {"keys": [list(key) for key in keys]}
        )
        return protocol.field(reply, "values", list)

    async def range_search(
        self,
        lows: Sequence[Any],
        highs: Sequence[Any],
        parallelism: int | None = None,
    ) -> list[tuple[tuple[Any, ...], Any]]:
        payload: dict[str, Any] = {"lows": list(lows), "highs": list(highs)}
        if parallelism is not None:
            payload["parallelism"] = parallelism
        reply = await self.request(Opcode.RANGE, payload)
        items = protocol.field(reply, "items", list)
        try:
            return [(tuple(key), value) for key, value in items]
        except (TypeError, ValueError) as exc:
            raise ProtocolError(
                f"malformed RANGE items: {exc}", code="bad-payload"
            ) from None

    async def stats(self) -> dict:
        reply = await self.request(Opcode.STATS)
        if not isinstance(reply, dict):
            raise ProtocolError(
                f"STATS reply must be an object, got {type(reply).__name__}",
                code="bad-payload",
            )
        return reply

    # -- routing introspection ------------------------------------------------

    async def topology(self) -> dict:
        """The peer's shard topology (a plain server reports one shard)."""
        reply = await self.request(Opcode.TOPOLOGY)
        if not isinstance(reply, dict):
            raise ProtocolError(
                f"TOPOLOGY reply must be an object, "
                f"got {type(reply).__name__}",
                code="bad-payload",
            )
        return reply

    async def route(self, key: Sequence[Any]) -> dict:
        """Which shard owns ``key`` (routing debug surface)."""
        reply = await self.request(Opcode.ROUTE, {"key": list(key)})
        if not isinstance(reply, dict):
            raise ProtocolError(
                f"ROUTE reply must be an object, got {type(reply).__name__}",
                code="bad-payload",
            )
        return reply

    async def migrate(self, action: str, **fields: Any) -> dict:
        """One MIGRATE admin request (see
        :meth:`repro.server.router.ShardRouter._migrate_admin` for the
        router verbs — ``split``/``merge``/``status`` — and
        :meth:`repro.server.server.QueryServer._migrate` for the worker
        verbs the migrator drives)."""
        reply = await self.request(Opcode.MIGRATE, {"action": action, **fields})
        if not isinstance(reply, dict):
            raise ProtocolError(
                f"MIGRATE reply must be an object, "
                f"got {type(reply).__name__}",
                code="bad-payload",
            )
        return reply

    async def repl(self, action: str, **fields: Any) -> dict:
        """One REPL stream-control request (``hello``/``checkpoint``/
        ``tail``/``bye`` — see
        :meth:`repro.server.server.QueryServer._repl`)."""
        reply = await self.request(Opcode.REPL, {"action": action, **fields})
        if not isinstance(reply, dict):
            raise ProtocolError(
                f"REPL reply must be an object, got {type(reply).__name__}",
                code="bad-payload",
            )
        return reply

"""One client connection: framing, pipelining, structured errors.

A :class:`Session` reads frames in a loop and dispatches each request.
Three dispatch lanes, fastest first:

* **inline reads** — a server exposing ``try_dispatch_inline`` (the
  :class:`~repro.server.server.QueryServer` does, for PING/SEARCH/
  SEARCH_MANY) answers uncontended point reads synchronously on the
  event loop: no task, no executor hop, no per-reply syscall;
* **mutation futures** — a server exposing ``submit_mutation_nowait``
  enqueues the mutation on the write aggregator and the reply is framed
  from the future's done-callback, again without spawning a task;
* **handler tasks** — everything else (range scans, stats, routed ops)
  runs as its own task, so a pipelining client still gets concurrent
  execution up to the admission controller's per-session limit.

Replies from all three lanes go through one outbound buffer that is
flushed once per event-loop tick (``call_soon``), so a pipelined burst
of replies costs one ``write()`` instead of one syscall each; the
transport's write buffer is drained asynchronously past a high-water
mark so a slow client cannot balloon server memory.

The error discipline is the fuzz suite's contract:

* a malformed-but-framed request (foreign version byte, unknown
  opcode, bad payload) gets a structured ``REPLY_ERR`` and the stream
  continues — frame boundaries are intact, so the next frame is
  readable;
* an unframeable byte stream (garbage length prefix, oversized claim,
  mid-frame truncation) gets one final structured error and the
  connection closes — there is no way to resync;
* nothing a client sends can crash the server or leak a latch: request
  handlers release admission slots and latches in ``finally`` blocks,
  and every exception is mapped to a wire code.

Sessions are shared between :class:`~repro.server.server.QueryServer`
and :class:`~repro.server.router.ShardRouter` — anything satisfying the
:class:`ServesSessions` protocol.  Every reply carries the server's
current topology epoch, which is how a router pushes topology changes
to its clients for free.
"""

from __future__ import annotations

import asyncio
from typing import Any, Protocol

from repro.errors import ProtocolError
from repro.server import protocol
from repro.server.admission import AdmissionController
from repro.server.metrics import ServerMetrics
from repro.server.protocol import MUTATION_OPCODES, Opcode

#: Sentinel returned by ``try_dispatch_inline`` when the request must
#: take the task path (contended locks, non-read opcode, big batch).
INLINE_MISS = object()

#: Transport write-buffer size past which a flush schedules an async
#: drain, applying backpressure to the reply stream.
_DRAIN_HIGH_WATER = 256 * 1024


class ServesSessions(Protocol):
    """The surface a :class:`Session` needs from its server.

    Satisfied by :class:`~repro.server.server.QueryServer` (and so by
    its read-replica subclass,
    :class:`~repro.server.replica.ReplicaServer`) and
    :class:`~repro.server.router.ShardRouter`.  The fast-path hooks
    (``try_dispatch_inline``, ``submit_mutation_nowait``) and the
    ``max_frame`` cap are optional — the session probes them with
    ``getattr`` so duck-typed test servers keep working.
    """

    metrics: ServerMetrics
    admission: AdmissionController
    draining: bool
    drain_timeout: float

    @property
    def epoch(self) -> int:
        """Current topology epoch, stamped into every reply."""
        ...

    async def dispatch(
        self, opcode: Opcode, payload: Any, epoch: int = 0
    ) -> Any:
        ...

    def _session_done(self, session: "Session") -> None:
        ...


class Session:
    """The per-connection read-dispatch-reply loop."""

    _next_id = 0

    def __init__(
        self,
        server: ServesSessions,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        Session._next_id += 1
        self.session_id = Session._next_id
        self._server = server
        self._reader = reader
        self._frames = protocol.FrameReader(reader)
        self._writer = writer
        self._max_frame: int | None = getattr(server, "max_frame", None)
        self._inline = getattr(server, "try_dispatch_inline", None)
        self._submit_nowait = getattr(server, "submit_mutation_nowait", None)
        #: In-flight work: handler tasks plus pending mutation futures.
        self._tasks: set[asyncio.Future] = set()
        #: Reply frames accumulated this event-loop tick.
        self._out: list[bytes] = []
        self._flush_scheduled = False
        self.closed = False

    # -- outbound ------------------------------------------------------------

    def _send_soon(self, frame: bytes) -> None:
        """Queue one reply frame; the whole tick's worth is written in
        a single ``write()`` from a ``call_soon`` callback."""
        if self.closed:
            return
        self._out.append(frame)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            asyncio.get_running_loop().call_soon(self._flush_out)

    def _flush_out(self) -> None:
        self._flush_scheduled = False
        if not self._out:
            return
        data = b"".join(self._out)
        self._out.clear()
        if self.closed:
            return
        try:
            self._writer.write(data)
        except (ConnectionError, OSError):
            self.closed = True
            return
        transport = self._writer.transport
        if (
            transport is not None
            and transport.get_write_buffer_size() > _DRAIN_HIGH_WATER
        ):
            self._track(
                asyncio.get_running_loop().create_task(self._drain_writer())
            )

    async def _drain_writer(self) -> None:
        try:
            await self._writer.drain()
        except (ConnectionError, OSError):
            self.closed = True

    def _track(self, task: asyncio.Future) -> None:
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _reply_error(self, request_id: int, code: str, message: str) -> None:
        self._server.metrics.replies_err += 1
        self._send_soon(
            protocol.encode_error(
                request_id,
                code,
                message,
                epoch=self._server.epoch,
                max_frame=self._max_frame,
            )
        )

    def _reply_ok(self, request_id: int, result: Any) -> None:
        """Frame and queue a success reply (shared by all three lanes)."""
        metrics = self._server.metrics
        try:
            frame = protocol.encode_frame(
                Opcode.REPLY_OK,
                request_id,
                result,
                epoch=self._server.epoch,
                max_frame=self._max_frame,
            )
        except Exception as exc:
            # A codec decoded to something the frame cannot carry; the
            # request still gets a structured reply.
            self._reply_error(
                request_id, "internal", f"unencodable reply: {exc}"
            )
        else:
            metrics.replies_ok += 1
            self._send_soon(frame)

    # -- inbound -------------------------------------------------------------

    async def run(self) -> None:
        """Serve frames until EOF, a fatal framing error, or shutdown."""
        metrics = self._server.metrics
        try:
            while not self.closed:
                try:
                    body = await self._frames.next_frame(self._max_frame)
                except ProtocolError as exc:
                    # Unframeable stream: reply once, then close — the
                    # frame boundary is lost, resync is impossible.
                    metrics.protocol_errors += 1
                    self._reply_error(0, exc.code, str(exc))
                    return
                if body is None:
                    return  # clean EOF
                await self._dispatch_frame(body)
        finally:
            await self._finish()

    async def _dispatch_frame(self, body: bytes) -> None:
        metrics = self._server.metrics
        try:
            frame = protocol.decode_frame(body)
        except ProtocolError as exc:
            # The frame was delimited correctly — the stream is intact,
            # reply and keep serving.
            metrics.protocol_errors += 1
            self._reply_error(0, exc.code, str(exc))
            return
        request_id = frame.request_id
        try:
            opcode = Opcode(frame.opcode)
        except ValueError:
            metrics.protocol_errors += 1
            self._reply_error(
                request_id,
                "bad-opcode",
                f"unknown opcode {frame.opcode}",
            )
            return
        if opcode in (Opcode.REPLY_OK, Opcode.REPLY_ERR):
            metrics.protocol_errors += 1
            self._reply_error(
                request_id,
                "bad-opcode",
                "reply opcodes are server-to-client",
            )
            return
        metrics.record_request(opcode.name)
        if self._server.draining:
            metrics.drain_rejections += 1
            self._reply_error(
                request_id, "shutting-down", "server is draining"
            )
            return
        rejection = self._server.admission.try_admit(self.session_id)
        if rejection is not None:
            if rejection == "busy":
                metrics.busy_rejections += 1
            else:
                metrics.pipeline_rejections += 1
            self._reply_error(
                request_id,
                rejection,
                "request rejected by admission control, retry",
            )
            return
        # Lane 1: synchronous inline reads (no task, no executor hop).
        if self._inline is not None:
            try:
                result = self._inline(opcode, frame.payload)
            except asyncio.CancelledError:
                self._server.admission.release(self.session_id)
                raise
            except BaseException as exc:
                self._reply_error(
                    request_id, protocol.error_code(exc), str(exc)
                )
                self._server.admission.release(self.session_id)
                return
            if result is not INLINE_MISS:
                self._reply_ok(request_id, result)
                self._server.admission.release(self.session_id)
                return
        # Lane 2: mutations resolve from the aggregator's future — the
        # reply is framed in its done-callback.
        if self._submit_nowait is not None and opcode in MUTATION_OPCODES:
            try:
                future = self._submit_nowait(opcode, frame.payload)
            except asyncio.CancelledError:
                self._server.admission.release(self.session_id)
                raise
            except BaseException as exc:
                self._reply_error(
                    request_id, protocol.error_code(exc), str(exc)
                )
                self._server.admission.release(self.session_id)
                return
            self._tasks.add(future)
            future.add_done_callback(
                lambda fut, rid=request_id: self._mutation_done(fut, rid)
            )
            return
        # Lane 3: the general handler task.
        self._track(
            asyncio.get_running_loop().create_task(
                self._handle(opcode, request_id, frame.payload, frame.epoch)
            )
        )

    def _mutation_done(self, future: asyncio.Future, request_id: int) -> None:
        """Frame a mutation's reply from its aggregator future."""
        self._tasks.discard(future)
        metrics = self._server.metrics
        try:
            if future.cancelled():
                return
            exc = future.exception()
            if exc is not None:
                code = protocol.error_code(exc)
                if code == "latch-timeout":
                    metrics.latch_timeouts += 1
                self._reply_error(request_id, code, str(exc))
            else:
                self._reply_ok(request_id, future.result())
        finally:
            self._server.admission.release(self.session_id)

    async def _handle(
        self,
        opcode: Opcode,
        request_id: int,
        payload: Any,
        epoch: int,
    ) -> None:
        """Execute one admitted request and reply; never raises."""
        metrics = self._server.metrics
        try:
            result = await self._server.dispatch(opcode, payload, epoch)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            code = protocol.error_code(exc)
            if code == "latch-timeout":
                metrics.latch_timeouts += 1
            self._reply_error(request_id, code, str(exc))
        else:
            self._reply_ok(request_id, result)
        finally:
            self._server.admission.release(self.session_id)

    # -- teardown ------------------------------------------------------------

    async def drain(self, timeout: float | None = None) -> None:
        """Wait for this session's in-flight requests to finish."""
        tasks = [t for t in self._tasks if not t.done()]
        if not tasks:
            return
        done, pending = await asyncio.wait(tasks, timeout=timeout)
        for task in pending:
            task.cancel()

    async def _finish(self) -> None:
        await self.drain(timeout=self._server.drain_timeout)
        # Push out replies framed by late done-callbacks before closing.
        self._flush_out()
        self.closed = True
        self._server.admission.forget_session(self.session_id)
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._server._session_done(self)

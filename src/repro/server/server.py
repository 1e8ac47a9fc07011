"""The asyncio TCP query server.

:class:`QueryServer` exposes every :class:`~repro.core.facade.MultiKeyFile`
operation over the wire protocol, multiplexing any number of client
sessions onto one index with the concurrency discipline the storage
layer expects:

* **reads fan out** — point lookups run on a thread-pool executor under
  the service gate's shared side plus the store latch's shared side
  (with a timeout: a stuck writer is a ``latch-timeout`` backpressure
  reply, not a hang); range queries may additionally fan per-page scans
  through :func:`~repro.core.rangequery.scan_parallel`, whose workers
  read via :meth:`~repro.storage.disk.PageStore.read_shared`;
* **writes serialize and coalesce** — every mutation flows through the
  :class:`~repro.server.aggregator.WriteAggregator` (enforced by lint
  rule REP106), which holds the gate's exclusive side per coalesced
  window and commits the whole window under one
  :meth:`~repro.storage.disk.PageStore.group` scope;
* **admission is bounded** — the in-flight budget and per-session
  pipelining limit reject excess load with 503-style replies instead of
  queueing it (see :mod:`repro.server.admission`).

Graceful shutdown drains in three stages: stop accepting and reject new
requests (``shutting-down``), wait for in-flight requests and flush the
aggregator's final window, then make the served state durable — on a
WAL backend via :func:`repro.storage.wal.checkpoint`, binding the last
commit to a whole-index state that
:func:`~repro.storage.wal.recover_index` can reopen; elsewhere via a
plain store flush.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence

from repro.bits import interleave
from repro.core.facade import MultiKeyFile
from repro.errors import LatchTimeout, ProtocolError
from repro.server.admission import AdmissionController, ReadWriteGate
from repro.server.aggregator import (
    DEFAULT_MAX_BATCH,
    DEFAULT_WINDOW,
    WriteAggregator,
)
from repro.server.binpayload import canonical_blob
from repro.server.metrics import ServerMetrics
from repro.server.protocol import (
    MAX_FRAME,
    MUTATION_OPCODES,
    PROTOCOL_VERSION,
    Opcode,
    field,
    key_field,
)
from repro.server.session import INLINE_MISS, Session
from repro.storage.wal import WALBackend, checkpoint

#: Largest SEARCH_MANY batch answered synchronously on the event loop;
#: bigger batches take the executor path so the loop never stalls.
_INLINE_BATCH_LIMIT = 128


class _MigrationTap:
    """A committed-window tail of one z range.

    Registered as a :class:`~repro.server.aggregator.WriteAggregator`
    observer, it accumulates every *committed* mutation whose key falls
    in ``[z_low, z_high]`` — published before the write is acked, so the
    tap never misses an acknowledged write.  This is the service-level
    equivalent of tailing the committed WAL for the moving range: the
    migrator drains it with ``delta`` rounds while bulk-copying, then
    once more under the router's fence.

    A window whose committed key set could not be fully described (a
    partially-applied ``_many`` op) sets ``tainted``; the migrator then
    falls back to the digest/reconcile path instead of trusting the
    delta stream.
    """

    def __init__(
        self, z_low: int, z_high: int, z_of: Callable[[Sequence[Any]], int]
    ) -> None:
        self.z_low = z_low
        self.z_high = z_high
        self._z_of = z_of
        self.ops: list[list[Any]] = []
        self.tainted = False

    def __call__(
        self, committed: list[tuple[str, Any, Any]], tainted: bool
    ) -> None:
        if tainted:
            self.tainted = True
        for kind, key, value in committed:
            try:
                z = self._z_of(key)
            except Exception:
                # An unroutable key cannot belong to the moving range,
                # but be conservative: force the digest path.
                self.tainted = True
                continue
            if self.z_low <= z <= self.z_high:
                self.ops.append([kind, list(key), value])


class QueryServer:
    """Serve one :class:`MultiKeyFile` to concurrent TCP clients."""

    def __init__(
        self,
        file: MultiKeyFile,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 64,
        session_pipeline: int = 16,
        coalesce_window: float = DEFAULT_WINDOW,
        max_batch: int = DEFAULT_MAX_BATCH,
        read_workers: int = 4,
        latch_timeout: float | None = 5.0,
        drain_timeout: float = 10.0,
        max_frame: int = MAX_FRAME,
    ) -> None:
        self._file = file
        self._host = host
        self._port = port
        #: Frame-body cap, advertised in PING replies; sessions read and
        #: write frames up to this size once a client negotiates.
        self.max_frame = max_frame
        self.metrics = ServerMetrics()
        self.admission = AdmissionController(max_inflight, session_pipeline)
        self._gate = ReadWriteGate()
        self._latch_timeout = latch_timeout
        self.drain_timeout = drain_timeout
        #: Serializes store access when point reads fan out over the
        #: executor: a byte backend's file handle seeks, the pool's LRU
        #: and the dedup ledgers are all single-threaded (the same
        #: discipline as ``PageStore.read_shared``'s internal lock).
        #: The fan-out win is at the wire level — parse/encode/framing
        #: overlap — and inside parallel range scans, whose workers
        #: serialize on ``read_shared`` themselves.
        self._read_mutex = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, read_workers),
            thread_name_prefix="repro-serve",
        )
        self._aggregator = WriteAggregator(
            file,
            self._gate,
            self.metrics,
            executor=self._executor,
            window=coalesce_window,
            max_batch=max_batch,
            latch_timeout=latch_timeout,
        )
        self._server: asyncio.base_events.Server | None = None
        self._sessions: set[Session] = set()
        self.draining = False
        self._shut_down = False
        #: Live migration taps by id (see :class:`_MigrationTap`).
        self._taps: dict[int, _MigrationTap] = {}
        self._next_tap = 1
        #: Live replication streams by id: each holds a WAL tap (see
        #: :class:`repro.storage.wal.ReplicationTap`) a follower drains.
        self._repl_streams: dict[int, Any] = {}
        self._next_repl = 1

    # -- lifecycle -----------------------------------------------------------

    @property
    def file(self) -> MultiKeyFile:
        return self._file

    @property
    def aggregator(self) -> WriteAggregator:
        return self._aggregator

    @property
    def epoch(self) -> int:
        """A plain server has no shard topology: always epoch 0, which
        clients read as "nothing to assert"."""
        return 0

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` ephemerals)."""
        if self._server is None:
            raise ProtocolError("server is not started", code="internal")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> "QueryServer":
        self._server = await asyncio.start_server(
            self._on_connect, self._host, self._port
        )
        self._aggregator.start()
        return self

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def __aenter__(self) -> "QueryServer":
        return await self.start()

    async def __aexit__(self, *exc: Any) -> None:
        await self.shutdown()

    async def _on_connect(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session = Session(self, reader, writer)
        self._sessions.add(session)
        self.metrics.connections_opened += 1
        try:
            await session.run()
        except (ConnectionError, OSError):
            # A peer that dies during teardown can surface a reset from
            # transport internals after the session's own handlers ran;
            # a dead connection is this callback's normal end state.
            pass

    def _session_done(self, session: Session) -> None:
        self._sessions.discard(session)
        self.metrics.connections_closed += 1

    async def shutdown(self) -> None:
        """Drain sessions, flush the last write window, make the state
        durable.  Idempotent."""
        if self._shut_down:
            return
        self._shut_down = True
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for session in list(self._sessions):
            await session.drain(timeout=self.drain_timeout)
        await self._aggregator.stop()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(self._executor, self._final_checkpoint)
        for session in list(self._sessions):
            session.closed = True
            await session._finish()
        self._executor.shutdown(wait=True)

    def _final_checkpoint(self) -> None:
        """The durability half of the shutdown contract: after this,
        :func:`~repro.storage.wal.recover_index` on the page file
        reopens exactly the drained state."""
        store = self._file.store
        if isinstance(store.backend, WALBackend):
            checkpoint(self._file.index)
        else:
            store.flush()

    # -- dispatch ------------------------------------------------------------

    async def dispatch(
        self, opcode: Opcode, payload: Any, epoch: int = 0
    ) -> Any:
        """Execute one admitted request; returns the reply payload.

        ``epoch`` is the client's asserted topology epoch — meaningful
        only behind a router; a plain server accepts any value.
        """
        if opcode in MUTATION_OPCODES:
            return await self._aggregator.submit(opcode, payload)
        if opcode == Opcode.PING:
            return self._ping_reply()
        if opcode == Opcode.TOPOLOGY:
            return await self._run_read(self._topology, latched=False)
        if opcode == Opcode.ROUTE:
            key_field(payload)  # validate shape even though unrouted
            return {"epoch": 0, "shard": 0, "role": "server"}
        if opcode == Opcode.SEARCH:
            key = key_field(payload)
            return await self._run_read(
                lambda: {"value": self._file.search(key)}
            )
        if opcode == Opcode.SEARCH_MANY:
            keys = field(payload, "keys", list)
            for key in keys:
                if not isinstance(key, list):
                    raise ProtocolError(
                        "keys must be [key, ...]", code="bad-payload"
                    )
            return await self._run_read(
                lambda: {"values": self._file.search_many(keys)}
            )
        if opcode == Opcode.RANGE:
            return await self._range(payload)
        if opcode == Opcode.STATS:
            return await self._run_read(self._stats)
        if opcode == Opcode.MIGRATE:
            return await self._migrate(payload)
        if opcode == Opcode.REPL:
            return await self._repl(payload)
        raise ProtocolError(f"unknown opcode {opcode}", code="bad-opcode")

    def _ping_reply(self) -> dict[str, Any]:
        return {
            "pong": True,
            "version": PROTOCOL_VERSION,
            "max_frame": self.max_frame,
            "role": "server",
        }

    # -- the inline fast path -------------------------------------------------

    def try_dispatch_inline(self, opcode: Opcode, payload: Any) -> Any:
        """Answer an uncontended point read synchronously on the event
        loop; returns :data:`~repro.server.session.INLINE_MISS` when the
        request must take the task path.

        Safety argument: nothing here awaits, so between the gate check
        and the return no other event-loop callback runs — the write
        aggregator (which takes the gate's exclusive side *on the loop*)
        cannot start a window mid-read, which is exactly the exclusion
        ``read_locked`` buys the task path.  Non-service writers are
        excluded by the store latch's shared side, acquired
        non-blockingly — writer contention is a miss, never a stall on
        the loop.  Executor-thread readers are excluded by the read
        mutex, taken in the same latch-then-mutex order as
        ``_latched_read`` (so the two read paths cannot deadlock) and
        held only for the one point read — a bounded, sub-millisecond
        wait.
        """
        if opcode is Opcode.PING:
            return self._ping_reply()
        if opcode is Opcode.SEARCH:
            key = key_field(payload)
            reader = lambda: {"value": self._file.search(key)}  # noqa: E731
        elif opcode is Opcode.SEARCH_MANY:
            keys = field(payload, "keys", list)
            if len(keys) > _INLINE_BATCH_LIMIT:
                return INLINE_MISS
            for key in keys:
                if not isinstance(key, list):
                    raise ProtocolError(
                        "keys must be [key, ...]", code="bad-payload"
                    )
            reader = lambda: {  # noqa: E731
                "values": self._file.search_many(keys)
            }
        else:
            return INLINE_MISS
        if not self._gate.writer_idle:
            return INLINE_MISS
        # Same order as ``_latched_read`` (latch, then read mutex) so the
        # two read paths can never deadlock against each other.
        store = self._file.store
        try:
            store.latch.acquire_read(timeout=0)
        except LatchTimeout:
            return INLINE_MISS
        try:
            with self._read_mutex:
                result = reader()
        finally:
            store.latch.release_read()
        self.metrics.reads_served += 1
        return result

    def submit_mutation_nowait(
        self, opcode: Opcode, payload: Any
    ) -> "asyncio.Future[Any]":
        """Enqueue a mutation without a wrapping task; the session frames
        the reply from the returned future's done-callback."""
        return self._aggregator.submit_nowait(opcode, payload)

    async def _run_read(
        self, fn: Callable[[], Any], latched: bool = True
    ) -> Any:
        """Run a read on the executor under the service gate's shared
        side (fanning out with other reads, excluded from write
        windows), plus — for point reads — the store latch's shared side
        with a timeout, guarding against non-service writers."""
        loop = asyncio.get_running_loop()
        async with self._gate.read_locked():
            result = await loop.run_in_executor(
                self._executor, self._latched_read, fn, latched
            )
        self.metrics.reads_served += 1
        return result

    def _latched_read(self, fn: Callable[[], Any], latched: bool) -> Any:
        store = self._file.store
        if not latched:
            return fn()
        with store.latch.read(timeout=self._latch_timeout):
            with self._read_mutex:
                return fn()

    async def _range(self, payload: Any) -> Any:
        lows = field(payload, "lows", list)
        highs = field(payload, "highs", list)
        parallelism = None
        if isinstance(payload, dict) and payload.get("parallelism") is not None:
            parallelism = payload["parallelism"]
            if not isinstance(parallelism, int) or parallelism < 1:
                raise ProtocolError(
                    "parallelism must be a positive integer",
                    code="bad-payload",
                )

        def scan(file: MultiKeyFile) -> Any:
            records = [
                [list(key), value]
                for key, value in file.range_search(
                    lows, highs, parallelism=parallelism
                )
            ]
            return {"items": records, "count": len(records)}

        return await self._read_at_snapshot(scan)

    async def _read_at_snapshot(
        self, fn: Callable[[MultiKeyFile], Any]
    ) -> Any:
        """The MVCC read path: pin a snapshot at a committed window
        boundary (the gate's shared side covers only the *open*, which
        is cheap), then run ``fn`` latch-free against the pinned page
        versions with the gate released — a long scan never blocks the
        write aggregator, and a write storm can never turn the scan into
        a ``latch-timeout``.  ``fn`` gets the file read under the gate,
        whose store the snapshot pins: a replica swaps its file per
        applied tail, only under the gate's exclusive side."""
        loop = asyncio.get_running_loop()
        async with self._gate.read_locked():
            file = self._file
            snap = await loop.run_in_executor(
                self._executor,
                lambda: file.store.snapshot(timeout=self._latch_timeout),
            )
        try:

            def run() -> Any:
                with snap.reading():
                    return fn(file)

            result = await loop.run_in_executor(self._executor, run)
        finally:
            snap.close()
        self.metrics.reads_served += 1
        self.metrics.snapshot_reads += 1
        return result

    # -- migration (worker side) ----------------------------------------------

    def _z_key(self, key: Sequence[Any]) -> int:
        codec = self._file.codec
        return interleave(codec.encode(key), codec.widths)

    @staticmethod
    def _migration_snapshot(
        file: MultiKeyFile,
    ) -> list[tuple[int, list[Any], Any]]:
        """Every record as ``(z, key, value)`` — run through
        :meth:`_read_at_snapshot`, so the iteration sees one pinned MVCC
        state and never blocks (or is blocked by) the write window."""
        codec = file.codec
        widths = codec.widths
        out: list[tuple[int, list[Any], Any]] = []
        for codes, value in file.index.items():
            out.append(
                (interleave(tuple(codes), widths), list(codec.decode(codes)),
                 value)
            )
        return out

    async def _migrate(self, payload: Any) -> Any:
        """The worker half of online migration: taps, paged snapshot
        reads and range eviction, driven over the wire by a
        :class:`~repro.server.migrate.ShardMigrator`.

        Tap bookkeeping happens on the event loop (no locks needed);
        snapshot reads run through :meth:`_run_read`; eviction is a
        plain ``DELETE_MANY`` through the aggregator, so it obeys every
        durability and latch rule an external delete would.
        """
        action = field(payload, "action", str)
        if action == "begin":
            z_low = field(payload, "z_low", int)
            z_high = field(payload, "z_high", int)
            tap_id = self._next_tap
            self._next_tap += 1
            tap = _MigrationTap(z_low, z_high, self._z_key)
            self._taps[tap_id] = tap
            self._aggregator.add_observer(tap)
            return {"tap": tap_id}
        if action in ("end", "abort"):
            tap = self._taps.pop(field(payload, "tap", int), None)
            if tap is not None:
                self._aggregator.remove_observer(tap)
            return {"ok": True, "released": tap is not None}
        if action == "delta":
            tap = self._taps.get(field(payload, "tap", int))
            if tap is None:
                raise ProtocolError(
                    "unknown migration tap", code="bad-payload"
                )
            limit = 4096
            if isinstance(payload, dict) and payload.get("limit") is not None:
                limit = field(payload, "limit", int)
            ops = tap.ops[:limit]
            del tap.ops[: len(ops)]
            return {"ops": ops, "more": bool(tap.ops), "tainted": tap.tainted}
        if action not in ("fetch", "digest", "sample", "evict"):
            raise ProtocolError(
                f"unknown migration action {action!r}", code="bad-payload"
            )
        z_low = field(payload, "z_low", int)
        z_high = field(payload, "z_high", int)
        snapshot = await self._read_at_snapshot(self._migration_snapshot)
        in_range = sorted(
            (entry for entry in snapshot if z_low <= entry[0] <= z_high),
            key=lambda entry: entry[0],
        )
        if action == "fetch":
            after_z = -1
            if isinstance(payload, dict) and payload.get("after_z") is not None:
                after_z = field(payload, "after_z", int)
            limit = 512
            if isinstance(payload, dict) and payload.get("limit") is not None:
                limit = field(payload, "limit", int)
            pending = [entry for entry in in_range if entry[0] > after_z]
            page = pending[:limit]
            return {
                "items": [[key, value] for _, key, value in page],
                "next_z": page[-1][0] if page else after_z,
                "done": len(pending) <= limit,
            }
        if action == "digest":
            crc = 0
            for z, key, value in in_range:
                crc = zlib.crc32(canonical_blob(key, value), crc)
            return {"count": len(in_range), "crc": crc}
        if action == "sample":
            limit = 1024
            if isinstance(payload, dict) and payload.get("limit") is not None:
                limit = field(payload, "limit", int)
            zs = [entry[0] for entry in in_range]
            if len(zs) > limit:
                stride = len(zs) / limit
                zs = [zs[int(i * stride)] for i in range(limit)]
            return {"zs": zs, "keys": len(in_range)}
        # evict: delete every in-range record through the aggregator —
        # the post-cutover cleanup of the moved (now orphaned) range.
        keys = [key for _, key, _ in in_range]
        if not keys:
            return {"evicted": 0}
        await self._aggregator.submit(Opcode.DELETE_MANY, {"keys": keys})
        return {"evicted": len(keys)}

    # -- replication (primary side) -------------------------------------------

    async def _repl(self, payload: Any) -> Any:
        """The primary half of WAL shipping, driven over the wire by a
        :class:`~repro.server.replica.ReplicaManager` follower.

        ``hello`` attaches a :class:`~repro.storage.wal.ReplicationTap`
        (which also takes a compaction floor, so ``compact()`` cannot
        drop records the stream still needs); ``checkpoint`` pages the
        committed images to a bootstrapping follower; ``tail`` drains
        the committed batches published since the last drain; ``bye``
        detaches.  Requires a WAL backend (page images travel as raw
        bytes).  Everything here is read-side: replication can
        never enter the write aggregator.
        """
        action = field(payload, "action", str)
        backend = self._file.store.backend
        if not isinstance(backend, WALBackend):
            raise ProtocolError(
                "replication requires a WAL-backed server", code="no-wal"
            )
        if action == "hello":
            stream_id = self._next_repl
            self._next_repl += 1
            self._repl_streams[stream_id] = backend.attach_tap()
            pages = await self._run_read(
                lambda: sum(1 for _ in backend.inner.page_ids()),
                latched=False,
            )
            return {
                "stream": stream_id,
                "lsn": backend.lsn,
                "pages": pages,
                "meta": backend.metadata,
            }
        stream_id = field(payload, "stream", int)
        tap = self._repl_streams.get(stream_id)
        if tap is None:
            raise ProtocolError(
                f"unknown replication stream {stream_id}", code="bad-payload"
            )
        if action == "bye":
            del self._repl_streams[stream_id]
            backend.detach_tap(tap.tap_id)
            return {"ok": True}
        if action == "checkpoint":
            after = -1
            if isinstance(payload, dict) and payload.get("after") is not None:
                after = field(payload, "after", int)
            limit = 64
            if isinstance(payload, dict) and payload.get("limit") is not None:
                limit = field(payload, "limit", int)

            def chunk() -> Any:
                # Under the store's io_lock: the committed-image reads
                # share the page file's seeking handle with the pool's
                # and the snapshot machinery's backend hops.
                items: list[list[Any]] = []
                done = True
                with self._file.store.io_lock:
                    for pid, image in backend.committed_pages():
                        if pid <= after:
                            continue
                        if len(items) >= limit:
                            done = False
                            break
                        items.append([pid, image])
                return {
                    "pages": items,
                    "next": items[-1][0] if items else after,
                    "done": done,
                }

            # Under the gate's shared side: the commit window applies
            # pending images to the inner file, so excluding it keeps
            # the enumeration on one committed state.
            return await self._run_read(chunk, latched=False)
        if action == "tail":
            batches = [
                [b["lsn"], [[op, pid, image] for op, pid, image in b["ops"]],
                 b["meta"]]
                for b in tap.drain()
            ]
            self.metrics.repl_batches_shipped += len(batches)
            return {
                "batches": batches,
                "lsn": backend.lsn,
                "overflowed": tap.overflowed,
            }
        raise ProtocolError(
            f"unknown replication action {action!r}", code="bad-payload"
        )

    def _topology(self) -> dict[str, Any]:
        """The degenerate one-shard topology: a plain server owns the
        whole z keyspace, so routing clients can treat it uniformly."""
        index = self._file.index
        z_high = (1 << sum(index.widths)) - 1
        shard: dict[str, Any] = {
            "shard": 0,
            "z_low": 0,
            "z_high": z_high,
            "keys": len(index),
        }
        try:
            host, port = self.address
        except ProtocolError:
            pass
        else:
            shard["host"], shard["port"] = host, port
        return {
            "role": "server",
            "epoch": 0,
            "boundaries": [],
            "shards": [shard],
        }

    def _stats(self) -> dict[str, Any]:
        index = self._file.index
        store = self._file.store
        stats: dict[str, Any] = {
            "scheme": type(index).__name__,
            "dims": index.dims,
            "widths": list(index.widths),
            "page_capacity": index.page_capacity,
            "keys": len(index),
            "directory_size": index.directory_size,
            "data_pages": index.data_page_count,
            "load_factor": index.load_factor,
            "store": {
                "logical_reads": store.stats.reads,
                "logical_writes": store.stats.writes,
                "backend_reads": store.backend_stats.reads,
                "backend_writes": store.backend_stats.writes,
            },
            "server": self.metrics.snapshot(),
            "admission": {
                "inflight": self.admission.inflight,
                "max_inflight": self.admission.max_inflight,
                "per_session": self.admission.per_session,
                "underflows": self.admission.underflows,
            },
            # The sharded bench's critical-path metric: CPU consumed by
            # this server's process, attributable per shard worker.
            "process": {
                "pid": os.getpid(),
                "cpu_seconds": time.process_time(),
            },
        }
        backend = store.backend
        if isinstance(backend, WALBackend):
            stats["wal"] = {
                "commits": backend.checkpoints,
                "records": backend.wal_records,
                "replayed_ops": backend.replayed_ops,
                "lsn": backend.lsn,
                "taps": backend.tap_count,
            }
        return stats

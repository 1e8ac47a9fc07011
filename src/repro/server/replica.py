"""WAL-shipping read replicas and hot failover.

The read path of ROADMAP item 3: every byte of read traffic no longer
has to land on the one primary per shard.  A :class:`ReplicaManager`
runs ``N`` read-only follower processes per shard worker.  Each
follower bootstraps over the wire — ``REPL hello`` attaches a
:class:`~repro.storage.wal.ReplicationTap` on the primary's WAL (which
also takes a compaction floor), ``REPL checkpoint`` pages the committed
images across, then a ``REPL tail`` loop drains committed batches — and
applies everything through
:meth:`~repro.storage.disk.PageStore.apply_replicated` into its *own*
WAL-backed page file, while it serves reads through the primary's own
paths (:class:`ReplicaServer`).  Two properties fall out of that choice:

* the follower's durable state is a standard WAL page file, so
  promotion reopens it through the stock
  :func:`~repro.storage.wal.recover_index` path — no special follower
  format, no bespoke recovery;
* every applied batch was published after the primary's COMMIT
  durability flush (capture==acked, the PR 8 contract), so a follower
  can never serve a write the primary might still roll back.

**Failover** (:func:`promote`) is kill-the-primary →
promote-most-caught-up-follower: the candidate with the highest applied
LSN is chosen (and its replica processes retired), the promoted page
file is caught up from the dead primary's *durable* WAL state — acked
means durably committed on the primary before the client future
resolved, so replaying the primary's committed images into the
follower's file guarantees zero acked-write loss even when every
follower lagged — and a replacement worker is forked over the caught-up
file.  :meth:`~repro.server.shard.ShardManager.apply_promote` commits
the replacement with an epoch bump; the router's fence + topology
install turns that bump into the fencing point that cuts off any
still-routing client of the old primary.

Everything here is read-side by construction: a follower rejects every
mutation opcode (``read-only``) in both session lanes, refuses the
primary-only verbs (``MIGRATE``, ``REPL``, ``ROUTE``) as ``bad-opcode``,
applies replicated batches only through the storage layer's replication
entry point, and analyzer rule REP108 statically refuses any direct
index/store mutation reachable from this module.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import signal
from multiprocessing.connection import Connection
from typing import Any, cast

from repro.core.facade import MultiKeyFile
from repro.errors import ProtocolError, ShardDownError
from repro.server.client import QueryClient
from repro.server.protocol import MUTATION_OPCODES, Opcode, field
from repro.server.server import QueryServer
from repro.server.shard import ShardManager

#: Checkpoint-transfer page size (images per REPL checkpoint request).
_BOOTSTRAP_CHUNK = 64

#: Reads answered from replicated state, refused ``replica-stale`` past
#: the lag bound or while a re-bootstrap replaces that state.
_DATA_READS = frozenset({Opcode.SEARCH, Opcode.SEARCH_MANY, Opcode.RANGE})
#: Primary-only verbs: migration (``MIGRATE evict`` would delete through
#: the aggregator), replication streams, and routing.
_UNSERVED_OPCODES = frozenset({Opcode.MIGRATE, Opcode.REPL, Opcode.ROUTE})


@dataclasses.dataclass(frozen=True)
class ReplicaConfig:
    """Everything one follower process needs, as picklable primitives."""

    shard: int
    replica: int
    widths: tuple[int, ...]
    page_capacity: int
    #: The follower's own WAL page file (fresh-bootstrapped on start).
    wal_path: str
    primary_host: str
    primary_port: int
    host: str
    #: Seconds between tail drains; also the replication lag floor.
    poll_interval: float
    #: Reads are rejected ``replica-stale`` past this many unapplied
    #: committed batches (``None`` = serve however stale).
    max_lag: int | None
    max_inflight: int
    session_pipeline: int
    read_workers: int


@dataclasses.dataclass(frozen=True)
class ReplicaSpec:
    """One live follower: identity and address."""

    shard: int
    replica: int
    host: str
    port: int
    pid: int

    def as_payload(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


class ReplicaServer(QueryServer):
    """A read-only follower serving one shard's replicated state.

    A :class:`~repro.server.server.QueryServer` whose write source is
    the primary's WAL tap instead of the write aggregator: reads take
    the primary's paths unchanged, and the tail loop applies each
    drained tail under the gate's exclusive side, as an aggregator
    window is applied.
    """

    def __init__(self, config: ReplicaConfig) -> None:
        # No file until the bootstrap pulls one; no aggregator ever runs.
        super().__init__(
            cast(Any, None),
            host=config.host,
            max_inflight=config.max_inflight,
            session_pipeline=config.session_pipeline,
            read_workers=config.read_workers,
            drain_timeout=5.0,
        )
        self._config = config
        self._client: QueryClient | None = None
        self._stream: int | None = None
        self._tail_task: asyncio.Task | None = None
        #: Replication progress: LSN of the last applied batch, and the
        #: primary's LSN as of the last successful tail round-trip.
        self._applied_lsn = 0
        self._primary_lsn = 0
        self._primary_down = False
        self._batches_applied = 0
        self._rebootstraps = 0

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> "ReplicaServer":
        await self._bootstrap()
        self._server = await asyncio.start_server(
            self._on_connect, self._host, self._port
        )
        self._tail_task = asyncio.get_running_loop().create_task(
            self._tail_loop(), name="repro-replica-tail"
        )
        return self

    async def shutdown(self) -> None:
        self.draining = True
        if self._tail_task is not None:
            self._tail_task.cancel()
            await asyncio.gather(self._tail_task, return_exceptions=True)
        await self._detach()
        await super().shutdown()

    async def _detach(self) -> None:
        """Release this follower's tap on the primary and drop the link."""
        client, self._client = self._client, None
        if client is None:
            return
        try:
            await asyncio.wait_for(
                client.repl("bye", stream=self._stream), 2.0
            )
        except Exception:
            pass  # a dead primary cannot release the tap anyway
        await client.close()

    def _final_checkpoint(self) -> None:
        # PageStore.close() -> flush -> WALBackend.close(): the
        # follower's applied state is durably committed on exit, so a
        # promotion can reopen the file through recover_index.  Never
        # checkpoint(): only applied batches may change a follower.
        if self._file is not None:
            self._file.store.close()

    # -- bootstrap ------------------------------------------------------------

    async def _bootstrap(self) -> None:
        """Fresh checkpoint transfer: wipe local state, pull every
        committed image, commit the primary's metadata blob."""
        from repro.storage import PageStore
        from repro.storage.wal import WALBackend

        for path in (self._config.wal_path, self._config.wal_path + ".wal"):
            if os.path.exists(path):
                os.unlink(path)
        loop = asyncio.get_running_loop()
        # Pool-less on purpose: every read of a follower page then loads
        # the applied image, with no frame cache to keep coherent.
        store = await loop.run_in_executor(
            self._executor,
            lambda: PageStore(WALBackend(self._config.wal_path)),
        )
        client = await QueryClient.connect(
            self._config.primary_host,
            self._config.primary_port,
            negotiate=True,
        )
        hello = await client.repl("hello")
        stream = field(hello, "stream", int)
        base_lsn = field(hello, "lsn", int)
        after = -1
        while True:
            chunk = await client.repl(
                "checkpoint",
                stream=stream,
                after=after,
                limit=_BOOTSTRAP_CHUNK,
            )
            pages = field(chunk, "pages", list)
            ops: list[tuple[str, int, bytes | None]] = [
                ("store", int(pid), bytes(image)) for pid, image in pages
            ]
            if ops:
                await loop.run_in_executor(
                    self._executor, store.apply_replicated, ops, None
                )
            after = field(chunk, "next", int)
            if chunk.get("done"):
                break
        meta = hello.get("meta")
        if meta is not None:
            await loop.run_in_executor(
                self._executor, store.apply_replicated, [], bytes(meta)
            )
        self._file = self._build_file(store, store.backend.metadata)
        self._client = client
        self._stream = stream
        self._applied_lsn = base_lsn
        self._primary_lsn = base_lsn
        self._primary_down = False

    def _build_file(self, store: Any, blob: bytes | None) -> MultiKeyFile:
        """The typed facade over the replicated state (fresh empty index
        when the primary has never committed)."""
        from repro.encoding import KeyCodec, UIntEncoder
        from repro.storage.snapshot import restore_from_metadata
        from repro.storage.wal import decode_metadata_blob

        codec = KeyCodec([UIntEncoder(w) for w in self._config.widths])
        if blob is None:
            return MultiKeyFile(
                codec,
                page_capacity=self._config.page_capacity,
                store=store,
            )
        meta, directory = decode_metadata_blob(blob)
        index = restore_from_metadata(meta, store, directory)
        return MultiKeyFile.from_index(codec, index)

    # -- the tail loop ---------------------------------------------------------

    async def _tail_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while not self.draining:
            await asyncio.sleep(self._config.poll_interval)
            client = self._client
            if client is None:
                continue
            try:
                reply = await client.repl("tail", stream=self._stream)
            except asyncio.CancelledError:
                raise
            except Exception:
                # Primary unreachable: keep serving the applied state
                # (the router falls back / a promotion replaces us).
                self._primary_down = True
                continue
            self._primary_down = False
            if reply.get("overflowed"):
                # The tap dropped batches we never saw; the tail is
                # unrecoverable — rebuild from a fresh checkpoint.
                self._rebootstraps += 1
                await self._rebootstrap()
                continue
            self._primary_lsn = field(reply, "lsn", int)
            batches = field(reply, "batches", list)
            if batches:
                async with self._gate.write_locked():
                    await loop.run_in_executor(
                        self._executor, self._apply_batches, batches
                    )

    async def _rebootstrap(self) -> None:
        """Replace the whole replicated state under the gate's exclusive
        side.  Reads answer ``replica-stale`` until the new file is in
        place (``_check_fresh``), so the router falls back to the
        primary instead of reading a closed store."""
        await self._detach()
        loop = asyncio.get_running_loop()
        async with self._gate.write_locked():
            file, self._file = self._file, None
            if file is not None:
                # Snapshot scans run with the gate released: let them
                # finish before their store closes under them.
                while file.store.open_snapshots:
                    await asyncio.sleep(0.01)
                await loop.run_in_executor(self._executor, file.store.close)
            await self._bootstrap()

    def _apply_batches(self, batches: list[Any]) -> None:
        """Apply one drained tail (executor thread; the event loop holds
        the gate's exclusive side, this the latch's).

        The facade is rebuilt from the last batch's metadata blob before
        readers resume, so no reader sees batch ``n+1``'s pages through
        batch ``n``'s index header; snapshot scans under way keep their
        pinned pages (``PageStore.apply_replicated`` preserves them).
        """
        store = self._file.store
        with store.latch.write():
            for lsn, ops, meta in batches:
                store.apply_replicated(ops, meta)
                self._applied_lsn = int(lsn)
                self._batches_applied += 1
            if any(meta is not None for _, _, meta in batches):
                self._file = self._build_file(store, store.backend.metadata)

    # -- dispatch --------------------------------------------------------------

    def _check_fresh(self) -> None:
        if self._file is None:
            raise ProtocolError(
                "replica is re-bootstrapping from the primary",
                code="replica-stale",
            )
        max_lag = self._config.max_lag
        if max_lag is None:
            return
        lag = self._primary_lsn - self._applied_lsn
        if lag > max_lag:
            raise ProtocolError(
                f"replica is {lag} batches behind the primary "
                f"(max_lag={max_lag})",
                code="replica-stale",
            )

    async def dispatch(
        self, opcode: Opcode, payload: Any, epoch: int = 0
    ) -> Any:
        if opcode in MUTATION_OPCODES:
            raise _read_only()
        if opcode in _UNSERVED_OPCODES:
            raise ProtocolError(
                f"opcode {opcode} is not served by a replica",
                code="bad-opcode",
            )
        if opcode in _DATA_READS:
            self._check_fresh()
        return await super().dispatch(opcode, payload, epoch)

    def try_dispatch_inline(self, opcode: Opcode, payload: Any) -> Any:
        if opcode in _DATA_READS:
            self._check_fresh()
        return super().try_dispatch_inline(opcode, payload)

    def submit_mutation_nowait(
        self, opcode: Opcode, payload: Any
    ) -> "asyncio.Future[Any]":
        raise _read_only()

    def _ping_reply(self) -> dict[str, Any]:
        return {**super()._ping_reply(), "role": "replica"}

    def _topology(self) -> dict[str, Any]:
        return {"role": "replica", "epoch": 0, "shards": []}

    def _stats(self) -> dict[str, Any]:
        stats = super()._stats()
        stats["role"] = "replica"
        stats["replica"] = {
            "shard": self._config.shard,
            "replica": self._config.replica,
            "applied_lsn": self._applied_lsn,
            "primary_lsn": self._primary_lsn,
            "lag": max(0, self._primary_lsn - self._applied_lsn),
            "primary_down": self._primary_down,
            "batches_applied": self._batches_applied,
            "rebootstraps": self._rebootstraps,
        }
        return stats


def _read_only() -> ProtocolError:
    return ProtocolError(
        "replica is read-only — route mutations to the primary",
        code="read-only",
    )


# -- the follower process ------------------------------------------------------


async def _serve_replica(config: ReplicaConfig, conn: Connection) -> None:
    server = ReplicaServer(config)
    await server.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    host, port = server.address
    conn.send(("ready", host, port))
    conn.close()
    await stop.wait()
    await server.shutdown()


def _replica_main(config: ReplicaConfig, conn: Connection) -> None:
    """Entry point of one follower process."""
    try:
        asyncio.run(_serve_replica(config, conn))
    except Exception as exc:  # pragma: no cover - startup failures only
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
            conn.close()
        except (OSError, ValueError):
            pass
        raise SystemExit(1)


# -- the manager ---------------------------------------------------------------


class ReplicaManager:
    """Run ``N`` read-only followers per shard worker.

    Synchronous (it forks) — same discipline as
    :class:`~repro.server.shard.ShardManager`, which it piggybacks on
    for workdir layout, start method and topology.  Follower files are
    ``replica-{worker:03d}-{i}.pages`` beside the primaries' WALs;
    a fresh bootstrap wipes them, so stale replica files are never
    trusted across restarts.
    """

    def __init__(
        self,
        manager: ShardManager,
        replicas_per_shard: int = 1,
        *,
        poll_interval: float = 0.02,
        max_lag: int | None = 64,
        read_workers: int = 2,
        max_inflight: int = 256,
        session_pipeline: int = 256,
        ready_timeout: float = 30.0,
    ) -> None:
        if replicas_per_shard < 0:
            raise ValueError("replicas_per_shard must be >= 0")
        if manager.workdir is None:
            raise ValueError(
                "replication needs a durable workdir (WAL shipping has "
                "nothing to ship from a memory-backed cluster)"
            )
        self._manager = manager
        self.replicas_per_shard = replicas_per_shard
        self._poll_interval = poll_interval
        self._max_lag = max_lag
        self._read_workers = read_workers
        self._max_inflight = max_inflight
        self._session_pipeline = session_pipeline
        self._ready_timeout = ready_timeout
        #: shard position -> list of (spec, process).
        self._live: dict[int, list[tuple[ReplicaSpec, Any]]] = {}

    def replica_path(self, worker_id: int, replica: int) -> str:
        """The follower's own page file (beside the primaries' WALs)."""
        assert self._manager.workdir is not None
        return str(
            self._manager.workdir
            / f"replica-{worker_id:03d}-{replica}.pages"
        )

    def specs_for(self, shard: int) -> list[ReplicaSpec]:
        return [spec for spec, _ in self._live.get(shard, [])]

    def all_specs(self) -> dict[int, list[ReplicaSpec]]:
        return {shard: self.specs_for(shard) for shard in self._live}

    def start(self) -> dict[int, list[ReplicaSpec]]:
        """Boot every shard's followers (each bootstraps a checkpoint
        transfer from its primary before reporting ready)."""
        for spec in self._manager.specs:
            self.start_for(spec.shard)
        return self.all_specs()

    def start_for(self, shard: int) -> list[ReplicaSpec]:
        """(Re)boot the followers of one shard against its *current*
        primary — also the re-point step after a promotion."""
        import multiprocessing

        self.stop_for(shard)
        primary = self._manager.specs[shard]
        worker_id = self._manager.worker_ids[shard]
        ctx = multiprocessing.get_context(self._manager._start_method)
        live: list[tuple[ReplicaSpec, Any]] = []
        pending: list[tuple[int, Any, Any]] = []
        for i in range(self.replicas_per_shard):
            config = ReplicaConfig(
                shard=shard,
                replica=i,
                widths=self._manager.widths,
                page_capacity=self._manager.page_capacity,
                wal_path=self.replica_path(worker_id, i),
                primary_host=primary.host,
                primary_port=primary.port,
                host=primary.host,
                poll_interval=self._poll_interval,
                max_lag=self._max_lag,
                max_inflight=self._max_inflight,
                session_pipeline=self._session_pipeline,
                read_workers=self._read_workers,
            )
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_replica_main,
                args=(config, child_conn),
                name=f"repro-replica-s{shard}r{i}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            pending.append((i, proc, parent_conn))
        try:
            for i, proc, conn in pending:
                if not conn.poll(self._ready_timeout):
                    raise ShardDownError(
                        f"replica {shard}/{i} did not report ready within "
                        f"{self._ready_timeout:.0f}s",
                        shard=shard,
                    )
                message = conn.recv()
                if message[0] != "ready":
                    raise ShardDownError(
                        f"replica {shard}/{i} failed to start: {message[1]}",
                        shard=shard,
                    )
                live.append(
                    (
                        ReplicaSpec(
                            shard=shard,
                            replica=i,
                            host=message[1],
                            port=message[2],
                            pid=proc.pid or 0,
                        ),
                        proc,
                    )
                )
        except BaseException:
            for _, proc, _ in pending:
                if proc.is_alive():
                    proc.kill()
                proc.join(timeout=5.0)
            raise
        finally:
            for _, _, conn in pending:
                conn.close()
        self._live[shard] = live
        return self.specs_for(shard)

    def stop_for(self, shard: int, timeout: float = 10.0) -> None:
        """Gracefully retire one shard's followers (SIGTERM: each closes
        its WAL cleanly, so its file stays recover-able)."""
        for _, proc in self._live.pop(shard, []):
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=timeout)
            if proc.is_alive():  # pragma: no cover - stuck follower
                proc.kill()
                proc.join(timeout=5.0)

    def kill(self, shard: int, replica: int) -> None:
        """SIGKILL one follower — the crash path."""
        entries = self._live.get(shard, [])
        for idx, (spec, proc) in enumerate(entries):
            if spec.replica == replica:
                if proc.is_alive():
                    proc.kill()
                proc.join(timeout=5.0)
                entries.pop(idx)
                return
        raise ValueError(f"no live replica {replica} for shard {shard}")

    def stop(self, timeout: float = 10.0) -> None:
        for shard in list(self._live):
            self.stop_for(shard, timeout=timeout)

    def __enter__(self) -> "ReplicaManager":
        self.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()


# -- failover ------------------------------------------------------------------

#: The phases :func:`promote` passes through, in order; chaos tests
#: inject a failure after each one and assert a retried promotion still
#: converges with zero acked-write loss.
PROMOTION_PHASES = (
    "killed",
    "chosen",
    "stopped",
    "caught-up",
    "spawned",
    "installed",
)


def _replica_applied_lsn(spec: ReplicaSpec, timeout: float = 5.0) -> int:
    """One follower's applied LSN (``-1`` if unreachable) — the
    promotion candidate score."""

    async def _fetch() -> int:
        client = await QueryClient.connect(
            spec.host, spec.port, negotiate=True
        )
        try:
            stats = await client.stats()
            replica = field(stats, "replica", dict)
            return field(replica, "applied_lsn", int)
        finally:
            await client.close()

    try:
        return asyncio.run(asyncio.wait_for(_fetch(), timeout))
    except Exception:
        return -1


def catch_up_follower(
    primary_path: str, follower_path: str | None, target_path: str
) -> int:
    """Build the promoted worker's page file at ``target_path``.

    Starts from the chosen follower's file (moved into place when one
    exists — the most-caught-up state that needs the least work), then
    replays the dead primary's *durable* committed state over it:
    opening the primary's WAL runs stock recovery (committed tail
    replayed, uncommitted tail discarded), and every committed image
    plus the final metadata blob is applied through
    :meth:`~repro.storage.wal.WALBackend.apply_replicated`.  Full
    images are idempotent, so a crash-and-retry of this step converges.

    Zero acked-write loss follows from the PR 8 contract: a write was
    acked only after its COMMIT record's durability flush on the
    primary, so the primary's recovered state contains every acked
    write — even ones no follower ever saw.  Returns the number of
    committed pages carried over.
    """
    from repro.storage.wal import WALBackend

    for suffix in ("", ".wal"):
        path = target_path + suffix
        if os.path.exists(path):
            os.unlink(path)
    if follower_path is not None:
        for suffix in ("", ".wal"):
            src = follower_path + suffix
            if os.path.exists(src):
                os.replace(src, target_path + suffix)
    primary = WALBackend(primary_path)
    try:
        ops = [
            ("store", pid, image)
            for pid, image in primary.committed_pages()
        ]
        live = {pid for _, pid, _ in ops}
        target = WALBackend(target_path)
        try:
            stale = [
                ("discard", pid, None)
                for pid in target.page_ids()
                if pid not in live
            ]
            target.apply_replicated(ops + stale, primary.metadata)
        finally:
            target.close()
    finally:
        primary.close()
    return len(ops)


def promote(
    manager: ShardManager,
    replicas: ReplicaManager | None,
    shard: int,
    *,
    failpoint: str | None = None,
    restart_replicas: bool = True,
) -> dict[str, Any]:
    """Kill-the-primary → promote-most-caught-up-follower.

    Synchronous and blocking (it forks and waits on ready pipes) — call
    from sync code or an executor thread, never on an event loop.  The
    commit point is :meth:`ShardManager.apply_promote`'s atomic
    topology persist; every earlier phase is retryable (stale files are
    wiped, images are idempotent), which the chaos suite exercises by
    injecting a failure after each :data:`PROMOTION_PHASES` entry.
    Callers holding a router must follow up with ``fence()`` +
    ``install_topology()`` at the returned epoch.
    """
    if failpoint is not None and failpoint not in PROMOTION_PHASES:
        raise ValueError(
            f"unknown promotion failpoint {failpoint!r}; "
            f"phases are {PROMOTION_PHASES}"
        )

    def fail(phase: str) -> None:
        if failpoint == phase:
            raise ShardDownError(
                f"injected promotion failure after {phase!r}", shard=shard
            )

    old_worker = manager.worker_ids[shard]
    primary_path = manager.wal_path(old_worker)
    if primary_path is None:
        raise ValueError(
            "promotion needs a durable workdir: the dead primary's WAL "
            "is the zero-loss catch-up source"
        )
    if manager.is_alive(shard):
        manager.kill(shard)
    fail("killed")
    chosen: ReplicaSpec | None = None
    chosen_lsn = -1
    if replicas is not None:
        for spec in replicas.specs_for(shard):
            lsn = _replica_applied_lsn(spec)
            if lsn > chosen_lsn:
                chosen_lsn, chosen = lsn, spec
    fail("chosen")
    if replicas is not None:
        replicas.stop_for(shard)
    fail("stopped")
    new_worker = manager.allocate_worker_id()
    target_path = manager.wal_path(new_worker)
    assert target_path is not None
    follower_path = (
        replicas.replica_path(old_worker, chosen.replica)
        if replicas is not None and chosen is not None
        else None
    )
    pages = catch_up_follower(primary_path, follower_path, target_path)
    fail("caught-up")
    worker_id, proc, endpoint = manager.spawn_worker(new_worker, fresh=False)
    fail("spawned")
    try:
        manager.apply_promote(
            shard, worker_id=worker_id, proc=proc, endpoint=endpoint
        )
    except BaseException:
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=5.0)
        raise
    fail("installed")
    if replicas is not None and restart_replicas:
        replicas.start_for(shard)
    return {
        "shard": shard,
        "old_worker": old_worker,
        "worker": worker_id,
        "chosen": None if chosen is None else chosen.replica,
        "chosen_lsn": chosen_lsn,
        "pages": pages,
        "epoch": manager.epoch,
    }

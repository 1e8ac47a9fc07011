"""The scatter-gather router fronting a shard cluster.

:class:`ShardRouter` is the client-facing half of the sharding layer
(:mod:`repro.server.shard` is the process half).  It accepts the same
wire protocol as a :class:`~repro.server.server.QueryServer` — the
per-connection :class:`~repro.server.session.Session` machinery is
reused verbatim — but instead of owning an index it owns one
long-lived pipelined :class:`~repro.server.client.QueryClient` per
shard worker and dispatches by z value:

* **point ops** (``INSERT``/``SEARCH``/``DELETE``) interleave the key
  and forward to the one shard whose z range contains it;
* **batch ops** (``*_MANY``) split the batch by shard, fan the
  sub-batches out concurrently, and re-assemble the replies preserving
  the input order; a failing sub-batch re-raises the first error in
  shard order after every sub-batch settles;
* **range queries** scatter to exactly the shards whose z ranges
  intersect ``[z(lows), z(highs)]`` (the corner property of the
  interleaving: every point of the box lies between the corners'
  z values) and gather through the order-preserving merge: each
  shard's items are sorted by z, and because shards own contiguous
  disjoint z ranges, concatenation in shard order *is* the globally
  z-ascending merge — the network analogue of the parallel scanner's
  ordered reduction.

The router's topology epoch stamps every reply header; a data request
asserting a stale epoch is rejected with ``stale-topology`` (the
rejection itself carries the new epoch, so clients retry
transparently).  A dead worker surfaces as a
structured ``shard-down`` error after one bounded reconnect attempt —
never a hang — while the remaining shards keep serving.

Upstream failures do not silently retry mutations: a connection that
dies mid-request may or may not have applied the write, and replaying
it could double-apply.  The link is marked dead, the caller gets
``shard-down``, and the next request attempts one fresh connection.
**Idempotent reads** (``SEARCH``/``SEARCH_MANY``/``RANGE``/``STATS``)
are the exception: a read that dies mid-request is retried exactly once
on an alternate link for the same shard (a replica if the primary died,
the primary if a replica died) — re-running a read cannot double-apply
anything, so the retry is free and masks a single link death.

With a :class:`~repro.server.replica.ReplicaManager` attached, data
reads prefer the shard's replicas (round-robin) and fall back to the
primary when a replica declines as ``replica-stale`` (lag-aware
routing: the replica itself knows its applied-vs-primary LSN gap) or is
down; ``repro rebalance promote`` and the auto-failover loop replace a
dead primary with its most-caught-up follower through
:func:`~repro.server.replica.promote`, re-fencing the topology at the
bumped epoch.
"""

from __future__ import annotations

import asyncio
from typing import Any, Sequence

from repro.bits import interleave
from repro.encoding import KeyCodec
from repro.errors import (
    MigrationError,
    ProtocolError,
    ShardDownError,
    StaleTopologyError,
)
from repro.server import protocol
from repro.server.admission import AdmissionController, ReadWriteGate
from repro.server.client import QueryClient, RemoteError
from repro.server.metrics import ServerMetrics
from repro.server.protocol import (
    MAX_FRAME,
    MUTATION_OPCODES,
    PROTOCOL_VERSION,
    Opcode,
    field,
    key_field,
)
from repro.server.session import Session
from repro.server.shard import ShardManager, ShardSpec, shard_for


class RouterMetrics(ServerMetrics):
    """Server counters plus the routing-specific ones."""

    def __init__(self) -> None:
        super().__init__()
        self.point_ops_routed = 0
        self.batches_split = 0
        self.scatter_queries = 0
        self.scatter_fanout = 0
        self.shard_errors = 0
        self.reconnects = 0
        self.stale_rejections = 0
        #: Data reads answered by a replica instead of the primary.
        self.replica_reads = 0
        #: Reads a replica declined (stale / read-only) that fell back.
        self.replica_fallbacks = 0
        #: Idempotent reads retried once on an alternate link after a
        #: mid-request connection death.
        self.read_retries = 0
        #: Completed primary failovers (manual or automatic).
        self.promotions = 0

    def snapshot(self) -> dict[str, Any]:
        snap = super().snapshot()
        snap.update(
            {
                "point_ops_routed": self.point_ops_routed,
                "batches_split": self.batches_split,
                "scatter_queries": self.scatter_queries,
                "scatter_fanout": self.scatter_fanout,
                "shard_errors": self.shard_errors,
                "reconnects": self.reconnects,
                "stale_rejections": self.stale_rejections,
                "replica_reads": self.replica_reads,
                "replica_fallbacks": self.replica_fallbacks,
                "read_retries": self.read_retries,
                "promotions": self.promotions,
            }
        )
        return snap


class _ShardLink:
    """One long-lived upstream connection to a shard worker."""

    def __init__(
        self,
        spec: ShardSpec,
        metrics: RouterMetrics,
        connect_timeout: float,
    ) -> None:
        self.spec = spec
        self._metrics = metrics
        self._connect_timeout = connect_timeout
        self._client: QueryClient | None = None
        self._connect_lock = asyncio.Lock()

    async def connect(self) -> None:
        async with self._connect_lock:
            if self._client is not None and not self._client._closed:
                return
            reconnecting = self._client is not None
            try:
                # Negotiated links adopt the worker's frame cap for the
                # forwarded traffic and the migration copy stream.
                self._client = await asyncio.wait_for(
                    QueryClient.connect(
                        self.spec.host, self.spec.port, negotiate=True
                    ),
                    timeout=self._connect_timeout,
                )
            except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                self._client = None
                self._metrics.shard_errors += 1
                raise ShardDownError(
                    f"shard {self.spec.shard} at "
                    f"{self.spec.host}:{self.spec.port} is unreachable: "
                    f"{exc or type(exc).__name__}",
                    shard=self.spec.shard,
                ) from None
            if reconnecting:
                self._metrics.reconnects += 1

    async def request(self, opcode: Opcode, payload: Any = None) -> Any:
        """Forward one request; ``shard-down`` instead of a hang or a
        silent mutation replay."""
        if self._client is None or self._client._closed:
            await self.connect()
        client = self._client
        assert client is not None
        try:
            return await client.request(opcode, payload)
        except (ConnectionError, OSError) as exc:
            self._metrics.shard_errors += 1
            raise ShardDownError(
                f"shard {self.spec.shard} connection failed mid-request: "
                f"{exc}",
                shard=self.spec.shard,
            ) from None

    async def close(self) -> None:
        if self._client is not None:
            await self._client.close()
            self._client = None


class ShardRouter:
    """Serve the wire protocol by scatter-gathering over shard workers.

    Duck-types the :class:`~repro.server.session.ServesSessions` surface
    so :class:`~repro.server.session.Session` drives it exactly as it
    drives a :class:`~repro.server.server.QueryServer`.
    """

    def __init__(
        self,
        manager: ShardManager | None = None,
        *,
        specs: Sequence[ShardSpec] | None = None,
        boundaries: Sequence[int] | None = None,
        codec: KeyCodec | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 64,
        session_pipeline: int = 16,
        drain_timeout: float = 10.0,
        connect_timeout: float = 5.0,
        max_frame: int = MAX_FRAME,
        auto_split_keys: int | None = None,
        max_shards: int = 8,
        auto_split_interval: float = 1.0,
        replicas: Any = None,
        auto_failover: bool = False,
        failover_interval: float = 0.25,
    ) -> None:
        if manager is not None:
            specs = manager.specs if specs is None else specs
            boundaries = (
                manager.boundaries if boundaries is None else boundaries
            )
            if codec is None:
                from repro.encoding import UIntEncoder

                codec = KeyCodec([UIntEncoder(w) for w in manager.widths])
        if specs is None or boundaries is None or codec is None:
            raise ValueError(
                "a router needs a manager, or specs + boundaries + codec"
            )
        if not specs:
            raise ValueError("a router needs at least one shard")
        self._specs = list(specs)
        self._boundaries = list(boundaries)
        self._codec = codec
        self._widths = codec.widths
        self._host = host
        self._port = port
        self.metrics = RouterMetrics()
        self.admission = AdmissionController(max_inflight, session_pipeline)
        self.drain_timeout = drain_timeout
        #: Frame-size cap advertised in PING and enforced per frame.
        self.max_frame = max_frame
        self._connect_timeout = connect_timeout
        self._links = [
            _ShardLink(spec, self.metrics, connect_timeout)
            for spec in self._specs
        ]
        self._server: asyncio.base_events.Server | None = None
        self._sessions: set[Session] = set()
        self._epoch = manager.epoch if manager is not None else 1
        self.draining = False
        self._shut_down = False
        self._manager = manager
        #: The topology quiesce gate: every data request holds the read
        #: side for its whole scatter-gather, a cutover holds the write
        #: side.  Swapping the link table therefore never interleaves
        #: with an in-flight fan-out — a range merge is always
        #: single-epoch (writer preference keeps cutovers from starving).
        self._topo_gate = ReadWriteGate()
        self._migrator: Any = None
        self._auto_split_keys = auto_split_keys
        self._max_shards = max_shards
        self._auto_split_interval = auto_split_interval
        self._auto_split_task: asyncio.Task | None = None
        #: The :class:`~repro.server.replica.ReplicaManager` (if reads
        #: are replicated), its per-shard link tables, and the
        #: round-robin cursors spreading reads across each shard's pool.
        self._replicas = replicas
        self._replica_links: dict[int, list[_ShardLink]] = {}
        self._replica_rr: dict[int, int] = {}
        if replicas is not None:
            self.install_replicas(replicas.all_specs())
        self._auto_failover = auto_failover
        self._failover_interval = failover_interval
        self._failover_task: asyncio.Task | None = None
        #: Serializes promotions (auto loop vs. operator verb).
        self._promote_lock = asyncio.Lock()

    # -- ServesSessions surface ----------------------------------------------

    @property
    def epoch(self) -> int:
        """Current topology epoch; bumped by :meth:`set_topology`."""
        return self._epoch

    def _session_done(self, session: Session) -> None:
        self._sessions.discard(session)
        self.metrics.connections_closed += 1

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None:
            raise ProtocolError("router is not started", code="internal")
        return self._server.sockets[0].getsockname()[:2]

    @property
    def migrator(self) -> Any:
        """The lazily-built :class:`~repro.server.migrate.ShardMigrator`
        (requires a manager: migration forks workers and rewrites the
        persisted topology)."""
        if self._migrator is None:
            if self._manager is None:
                raise MigrationError(
                    "this router has no shard manager; online "
                    "split/merge needs one"
                )
            from repro.server.migrate import ShardMigrator

            self._migrator = ShardMigrator(self, self._manager)
        return self._migrator

    async def start(self) -> "ShardRouter":
        for link in self._links:
            await link.connect()
        self._server = await asyncio.start_server(
            self._on_connect, self._host, self._port
        )
        if self._auto_split_keys is not None and self._manager is not None:
            self._auto_split_task = asyncio.get_running_loop().create_task(
                self._auto_split_loop(), name="repro-auto-split"
            )
        if self._auto_failover and self._manager is not None:
            self._failover_task = asyncio.get_running_loop().create_task(
                self._failover_loop(), name="repro-auto-failover"
            )
        return self

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def __aenter__(self) -> "ShardRouter":
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

    async def shutdown(self) -> None:
        """Stop accepting, drain sessions, close the upstream links.
        The workers themselves are the manager's to stop."""
        if self._shut_down:
            return
        self._shut_down = True
        self.draining = True
        for task in (self._auto_split_task, self._failover_task):
            if task is not None:
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
        self._auto_split_task = None
        self._failover_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for session in list(self._sessions):
            await session.drain(timeout=self.drain_timeout)
        for session in list(self._sessions):
            session.closed = True
            await session._finish()
        for link in self._links:
            await link.close()
        for links in self._replica_links.values():
            for link in links:
                await link.close()

    def fence(self) -> Any:
        """The topology write fence, as an async context manager.

        Entering waits for every in-flight data request to finish and
        blocks new ones (they queue on the gate's read side); inside,
        the holder may mutate routing state and :meth:`install_topology`
        atomically.  The migrator holds this around its final delta +
        digest + commit step, so the cutover happens against a quiesced
        router.
        """
        return self._topo_gate.write_locked()

    def install_topology(
        self,
        specs: Sequence[ShardSpec],
        boundaries: Sequence[int],
        epoch: int | None = None,
    ) -> list[_ShardLink]:
        """Swap the routing tables and bump the epoch — synchronously,
        so a fence holder installs with no awaits in between.  Returns
        the superseded links; the caller closes them once the fence is
        released (closing awaits, and nothing routes through them any
        more)."""
        old_links = self._links
        self._specs = list(specs)
        self._boundaries = list(boundaries)
        self._links = [
            _ShardLink(spec, self.metrics, self._connect_timeout)
            for spec in self._specs
        ]
        self._epoch = (
            self._epoch + 1 if epoch is None else max(epoch, self._epoch + 1)
        )
        return old_links

    def install_replicas(
        self, specs_by_shard: dict[int, Sequence[Any]]
    ) -> list[_ShardLink]:
        """Swap the replica link tables (whole-table, like
        :meth:`install_topology`; call under the fence when the router
        is live).  Returns the superseded links for the caller to
        close."""
        old = [
            link
            for links in self._replica_links.values()
            for link in links
        ]
        self._replica_links = {
            shard: [
                _ShardLink(spec, self.metrics, self._connect_timeout)
                for spec in specs
            ]
            for shard, specs in specs_by_shard.items()
            if specs
        }
        self._replica_rr = {}
        return old

    async def set_topology(
        self,
        specs: Sequence[ShardSpec],
        boundaries: Sequence[int],
    ) -> int:
        """Install a new shard layout and bump the epoch.

        Quiesces first: the write fence waits for every in-flight
        scatter-gather to settle before the link table is swapped, so no
        fan-out ever merges results from two epochs.  Every subsequent
        data request asserting the old epoch is rejected with
        ``stale-topology`` and retried by the client with the new one.
        """
        async with self.fence():
            old_links = self.install_topology(specs, boundaries)
        for link in old_links:
            await link.close()
        return self._epoch

    async def _auto_split_loop(self) -> None:
        """Split the hottest shard whenever it outgrows the threshold
        (``--auto-split-keys``), up to ``max_shards`` — the serve-time
        elasticity knob.  Failures are counted in metrics and retried on
        the next tick; a failed split leaves the cluster unchanged."""
        while True:
            await asyncio.sleep(self._auto_split_interval)
            if self.draining or len(self._specs) >= self._max_shards:
                continue
            try:
                async with self._topo_gate.read_locked():
                    stats = await self._stats()
                hottest, keys = None, -1
                for entry in stats["shards"]:
                    if "error" in entry:
                        continue
                    if int(entry.get("keys", 0)) > keys:
                        hottest, keys = int(entry["shard"]), int(entry["keys"])
                if hottest is None or keys < (self._auto_split_keys or 0):
                    continue
                await self.migrator.split(shard=hottest)
            except asyncio.CancelledError:
                raise
            except Exception:
                self.metrics.shard_errors += 1

    # -- routing -------------------------------------------------------------

    def _z(self, key: Sequence[Any]) -> int:
        codes = self._codec.encode(key)
        return interleave(codes, self._widths)

    def _link_for_key(self, key: Sequence[Any]) -> _ShardLink:
        return self._links[shard_for(self._z(key), self._boundaries)]

    def _shard_for_key(self, key: Sequence[Any]) -> int:
        return shard_for(self._z(key), self._boundaries)

    def _read_candidates(
        self, shard: int, prefer_replica: bool
    ) -> list[_ShardLink]:
        """Links to try for an idempotent read, preference first.

        With replicas and ``prefer_replica``: round-robin replica, then
        the primary, then the remaining replicas.  Without (or for
        stats, which should describe the authoritative copy): primary
        first, replicas as spares.  The caller walks this list on
        ``replica-stale`` fallback and on the one permitted
        dead-link retry.
        """
        primary = self._links[shard]
        pool = self._replica_links.get(shard, [])
        if not pool:
            return [primary]
        if not prefer_replica:
            return [primary, *pool]
        cursor = self._replica_rr.get(shard, 0)
        self._replica_rr[shard] = cursor + 1
        rotated = [pool[(cursor + i) % len(pool)] for i in range(len(pool))]
        return [rotated[0], primary, *rotated[1:]]

    async def _read_request(
        self,
        shard: int,
        opcode: Opcode,
        payload: Any = None,
        *,
        prefer_replica: bool = True,
    ) -> Any:
        """One idempotent read against shard ``shard``.

        Two distinct failure handoffs, both bounded:

        * a replica that *answers* but declines (``replica-stale`` past
          its lag bound, or ``read-only`` right after a promotion made
          it the primary's stale twin) costs nothing — move down the
          candidate list;
        * a link that *dies mid-request* (``shard-down``) consumes the
          single retry: re-running a read is safe precisely because it
          is idempotent, which is why mutations get no such retry
          anywhere in this router.
        """
        primary = self._links[shard]
        retried = False
        last_exc: Exception | None = None
        for link in self._read_candidates(shard, prefer_replica):
            if last_exc is not None and isinstance(
                last_exc, ShardDownError
            ):
                if retried:
                    break
                retried = True
                self.metrics.read_retries += 1
            try:
                reply = await link.request(opcode, payload)
            except ShardDownError as exc:
                last_exc = exc
                continue
            except RemoteError as exc:
                if exc.code in ("replica-stale", "read-only"):
                    self.metrics.replica_fallbacks += 1
                    last_exc = exc
                    continue
                raise
            if link is not primary:
                self.metrics.replica_reads += 1
            return reply
        assert last_exc is not None
        raise last_exc

    def _split_by_shard(
        self, keys: Sequence[Sequence[Any]]
    ) -> dict[int, list[int]]:
        """Input positions grouped by owning shard, preserving order."""
        groups: dict[int, list[int]] = {}
        for position, key in enumerate(keys):
            shard = shard_for(self._z(key), self._boundaries)
            groups.setdefault(shard, []).append(position)
        return groups

    async def _gather_by_shard(
        self, calls: dict[int, Any]
    ) -> dict[int, Any]:
        """Run per-shard coroutines concurrently; re-raise the first
        failure in shard order once every sub-request has settled (so a
        partial failure never abandons in-flight work mid-gather)."""
        shards = sorted(calls)
        results = await asyncio.gather(
            *(calls[s] for s in shards), return_exceptions=True
        )
        outcome = dict(zip(shards, results))
        for shard in shards:
            if isinstance(outcome[shard], BaseException):
                raise outcome[shard]
        return outcome

    # -- dispatch ------------------------------------------------------------

    async def dispatch(
        self, opcode: Opcode, payload: Any, epoch: int = 0
    ) -> Any:
        """Route one admitted request; returns the reply payload.

        Admin opcodes (PING/TOPOLOGY/ROUTE/MIGRATE) never take the
        topology gate — MIGRATE in particular *acquires* the write
        fence internally, so routing it through the read side would
        deadlock against itself.  Every data op holds the gate's read
        side for its whole fan-out, with the epoch check *inside*: a
        request that queued behind a cutover re-checks against the
        epoch that cutover installed, so it can never run new-table
        routing while asserting the old epoch.
        """
        if opcode == Opcode.PING:
            return {
                "pong": True,
                "version": PROTOCOL_VERSION,
                "max_frame": self.max_frame,
                "role": "router",
                "shards": len(self._links),
            }
        if opcode == Opcode.TOPOLOGY:
            return self._topology()
        if opcode == Opcode.ROUTE:
            return self._route(payload)
        if opcode == Opcode.MIGRATE:
            return await self._migrate_admin(payload)
        async with self._topo_gate.read_locked():
            # Data ops are fenced by the topology epoch: a client that
            # observed epoch E must not write through a layout E' != E.
            # Raising here — before any shard link is contacted — is
            # what makes the client's transparent retry safe for
            # ``_many`` batches: a rejected request has applied nothing.
            if epoch and epoch != self._epoch:
                self.metrics.stale_rejections += 1
                raise StaleTopologyError(
                    f"request asserted epoch {epoch}, topology is at "
                    f"{self._epoch}",
                    epoch=self._epoch,
                )
            if opcode == Opcode.SEARCH:
                key = key_field(payload)
                self.metrics.point_ops_routed += 1
                return await self._read_request(
                    self._shard_for_key(key), opcode, payload
                )
            if opcode in (Opcode.INSERT, Opcode.DELETE):
                key = key_field(payload)
                self.metrics.point_ops_routed += 1
                return await self._link_for_key(key).request(opcode, payload)
            if opcode == Opcode.INSERT_MANY:
                return await self._insert_many(payload)
            if opcode in (Opcode.SEARCH_MANY, Opcode.DELETE_MANY):
                return await self._keyed_many(opcode, payload)
            if opcode == Opcode.RANGE:
                return await self._range(payload)
            if opcode == Opcode.STATS:
                return await self._stats()
        raise ProtocolError(f"unknown opcode {opcode}", code="bad-opcode")

    async def _migrate_admin(self, payload: Any) -> Any:
        """The router half of MIGRATE: operator-facing rebalance verbs
        (the worker half — taps, fetch, evict — lives in
        :class:`~repro.server.server.QueryServer`)."""
        action = field(payload, "action", str)
        if action == "status":
            migrating = (
                self._migrator is not None and self._migrator.in_progress
            )
            return {
                "epoch": self._epoch,
                "shards": len(self._specs),
                "migrating": migrating,
                "migrations": (
                    self._migrator.completed
                    if self._migrator is not None else 0
                ),
            }
        shard = None
        if isinstance(payload, dict) and payload.get("shard") is not None:
            shard = field(payload, "shard", int)
        if action == "split":
            cut = None
            if isinstance(payload, dict) and payload.get("cut") is not None:
                cut = field(payload, "cut", int)
            return await self.migrator.split(shard=shard, cut=cut)
        if action == "merge":
            return await self.migrator.merge(shard=shard)
        if action == "promote":
            if shard is None:
                raise ProtocolError(
                    "promote needs a shard", code="bad-payload"
                )
            failpoint = None
            if isinstance(payload, dict) and payload.get("failpoint"):
                failpoint = field(payload, "failpoint", str)
            return await self.promote(shard, failpoint=failpoint)
        raise ProtocolError(
            f"unknown migration action {action!r}", code="bad-payload"
        )

    async def promote(
        self, shard: int, *, failpoint: str | None = None
    ) -> dict[str, Any]:
        """Replace shard ``shard``'s (dead) primary with its
        most-caught-up follower and re-fence the topology.

        The blocking promotion (kill → choose → catch up → fork) runs
        on an executor thread *outside* the topology gate — reads on
        the surviving shards keep flowing the whole time.  Only the
        final link swap takes the write fence, exactly like a
        migration cutover, and installs the bumped epoch so straggler
        clients of the old primary are fenced off.
        """
        if self._manager is None:
            raise MigrationError(
                "this router has no shard manager; promotion needs one"
            )
        from repro.server.replica import promote as run_promotion

        manager = self._manager
        async with self._promote_lock:
            loop = asyncio.get_running_loop()
            summary = await loop.run_in_executor(
                None,
                lambda: run_promotion(
                    manager, self._replicas, shard, failpoint=failpoint
                ),
            )
            async with self.fence():
                old_links = self.install_topology(
                    manager.specs, manager.boundaries, epoch=manager.epoch
                )
                if self._replicas is not None:
                    old_links += self.install_replicas(
                        self._replicas.all_specs()
                    )
            for link in old_links:
                await link.close()
            self.metrics.promotions += 1
            summary["epoch"] = self._epoch
            return summary

    async def _failover_loop(self) -> None:
        """Auto-promote: watch every primary's liveness and run the
        promotion state machine the moment one dies.  Same error
        discipline as the auto-split loop — a failed attempt counts a
        shard error and retries on the next tick."""
        assert self._manager is not None
        while True:
            await asyncio.sleep(self._failover_interval)
            if self.draining:
                continue
            for spec in list(self._specs):
                try:
                    if self._manager.is_alive(spec.shard):
                        continue
                    await self.promote(spec.shard)
                except asyncio.CancelledError:
                    raise
                except Exception:
                    self.metrics.shard_errors += 1

    def _topology(self) -> dict[str, Any]:
        return {
            "role": "router",
            "epoch": self._epoch,
            "boundaries": list(self._boundaries),
            "shards": [spec.as_payload() for spec in self._specs],
            "replicas": [
                link.spec.as_payload()
                for shard in sorted(self._replica_links)
                for link in self._replica_links[shard]
            ],
        }

    def _route(self, payload: Any) -> dict[str, Any]:
        key = key_field(payload)
        try:
            z = self._z(key)
        except Exception as exc:
            raise ProtocolError(
                f"unroutable key {key!r}: {exc}", code="bad-key"
            ) from None
        shard = shard_for(z, self._boundaries)
        spec = self._specs[shard]
        return {
            "epoch": self._epoch,
            "shard": shard,
            "z": z,
            "host": spec.host,
            "port": spec.port,
        }

    async def _insert_many(self, payload: Any) -> Any:
        pairs = field(payload, "pairs", list)
        for pair in pairs:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ProtocolError(
                    "pairs must be [[key, value], ...]", code="bad-payload"
                )
        groups = self._split_by_shard([pair[0] for pair in pairs])
        self.metrics.batches_split += 1
        outcome = await self._gather_by_shard(
            {
                shard: self._links[shard].request(
                    Opcode.INSERT_MANY,
                    {"pairs": [pairs[i] for i in positions]},
                )
                for shard, positions in groups.items()
            }
        )
        inserted = 0
        for reply in outcome.values():
            inserted += field(reply, "inserted", int)
        return {"inserted": inserted}

    async def _keyed_many(self, opcode: Opcode, payload: Any) -> Any:
        keys = field(payload, "keys", list)
        for key in keys:
            if not isinstance(key, list):
                raise ProtocolError(
                    "keys must be [key, ...]", code="bad-payload"
                )
        groups = self._split_by_shard(keys)
        self.metrics.batches_split += 1
        if opcode == Opcode.SEARCH_MANY:
            calls = {
                shard: self._read_request(
                    shard, opcode, {"keys": [keys[i] for i in positions]}
                )
                for shard, positions in groups.items()
            }
        else:
            calls = {
                shard: self._links[shard].request(
                    opcode, {"keys": [keys[i] for i in positions]}
                )
                for shard, positions in groups.items()
            }
        outcome = await self._gather_by_shard(calls)
        values: list[Any] = [None] * len(keys)
        for shard, positions in groups.items():
            shard_values = field(outcome[shard], "values", list)
            if len(shard_values) != len(positions):
                raise ProtocolError(
                    f"shard {shard} returned {len(shard_values)} values "
                    f"for {len(positions)} keys",
                    code="bad-payload",
                )
            for position, value in zip(positions, shard_values):
                values[position] = value
        return {"values": values}

    async def _range(self, payload: Any) -> Any:
        lows = field(payload, "lows", list)
        highs = field(payload, "highs", list)
        try:
            z_low = self._z(lows)
            z_high = self._z(highs)
        except Exception as exc:
            raise ProtocolError(
                f"unroutable range bounds: {exc}", code="bad-key"
            ) from None
        targets = [
            spec.shard
            for spec in self._specs
            if spec.z_low <= z_high and z_low <= spec.z_high
        ]
        self.metrics.scatter_queries += 1
        self.metrics.scatter_fanout += len(targets)
        outcome = await self._gather_by_shard(
            {
                shard: self._read_request(shard, Opcode.RANGE, payload)
                for shard in targets
            }
        )
        # Order-preserving merge: per-shard items sorted by z, shards
        # visited in ascending z-range order — the concatenation is the
        # global z order because shard ranges are contiguous + disjoint.
        # Each item is also filtered to its shard's *owned* z range:
        # between a split's commit and the source's orphan eviction the
        # source still physically holds the moved records, and without
        # the ownership filter a scatter would return them twice.
        items: list[Any] = []
        for shard in sorted(targets):
            spec = self._specs[shard]
            shard_items = field(outcome[shard], "items", list)
            try:
                keyed = sorted(
                    ((self._z(item[0]), item) for item in shard_items),
                    key=lambda pair: pair[0],
                )
            except (TypeError, IndexError) as exc:
                raise ProtocolError(
                    f"shard {shard} returned malformed range items: {exc}",
                    code="bad-payload",
                ) from None
            items.extend(
                item for z, item in keyed
                if spec.z_low <= z <= spec.z_high
            )
        return {"items": items, "count": len(items)}

    async def _stats(self) -> Any:
        # Primary-preferred: stats should describe the authoritative
        # copy; a replica answers only when its primary's link died.
        outcome = await asyncio.gather(
            *(
                self._read_request(
                    spec.shard, Opcode.STATS, prefer_replica=False
                )
                for spec in self._specs
            ),
            return_exceptions=True,
        )
        shards: list[Any] = []
        keys = 0
        scheme = None
        dims = None
        load_sum, load_count = 0.0, 0
        for spec, reply in zip(self._specs, outcome):
            if isinstance(reply, BaseException):
                shards.append(
                    {"shard": spec.shard, "error": str(reply)}
                )
                continue
            if not isinstance(reply, dict):
                shards.append(
                    {"shard": spec.shard, "error": "malformed stats"}
                )
                continue
            entry = {"shard": spec.shard, **reply}
            shards.append(entry)
            keys += int(reply.get("keys", 0))
            scheme = scheme or reply.get("scheme")
            dims = dims if dims is not None else reply.get("dims")
            if isinstance(reply.get("load_factor"), (int, float)):
                load_sum += float(reply["load_factor"])
                load_count += 1
        return {
            "role": "router",
            "epoch": self._epoch,
            "scheme": scheme or "unknown",
            "dims": dims if dims is not None else self._codec.dimensions,
            "widths": list(self._widths),
            "keys": keys,
            "load_factor": load_sum / load_count if load_count else 0.0,
            "boundaries": list(self._boundaries),
            "shards": shards,
            "server": self.metrics.snapshot(),
            "admission": {
                "inflight": self.admission.inflight,
                "max_inflight": self.admission.max_inflight,
                "per_session": self.admission.per_session,
                "underflows": self.admission.underflows,
            },
        }

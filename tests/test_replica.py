"""Read replicas and hot failover.

Covers the PR 10 replication surface end to end against real worker
and replica processes:

* a follower bootstraps from the primary's checkpoint stream, tails
  committed WAL batches, serves reads through the router (lag-aware),
  and rejects mutations with a structured ``read-only`` error;
* the router retries **idempotent reads** exactly once on an alternate
  link when a connection dies mid-request — and never retries a
  mutation (the satellite regression for the silent read-hang on a
  killed replica link);
* promotion: kill-the-primary → promote-most-caught-up-follower, via
  the ``MIGRATE promote`` verb, the auto-failover watchdog, and with
  no follower at all (the dead primary's durable WAL alone);
* the chaos sweep: a failure injected after **every** phase of the
  promotion state machine must leave a retry that converges with zero
  acked-write loss, a sanitizer-clean promoted index, and no torn
  values among unknown-outcome in-flights.
"""

import asyncio
import random

import pytest

from repro.errors import ProtocolError, ShardDownError
from repro.sanitize import check_structure
from repro.server import QueryClient, ShardManager
from repro.server.client import RemoteError
from repro.server.replica import (
    PROMOTION_PHASES,
    ReplicaManager,
    promote,
)
from repro.server.router import ShardRouter
from repro.storage import recover_index
from repro.storage.wal import ReplicationTap

DIMS = 2
WIDTH = 16


def run(coro):
    return asyncio.run(coro)


def seeded_keys(n, seed=11):
    rng = random.Random(seed)
    seen = set()
    while len(seen) < n:
        seen.add((rng.randrange(1 << WIDTH), rng.randrange(1 << WIDTH)))
    return sorted(seen)


def make_manager(tmp_path, shards=2, sample=None):
    return ShardManager(
        shards,
        dims=DIMS,
        widths=WIDTH,
        page_capacity=8,
        workdir=tmp_path,
        sample_keys=sample,
    )


async def _replica_stats(spec):
    client = await QueryClient.connect(spec.host, spec.port, negotiate=True)
    try:
        return await client.stats()
    finally:
        await client.close()


async def _wait_caught_up(replicas, deadline=15.0):
    """Block until every live follower's lag is zero.

    Replica reads are bounded-lag, **not** read-your-writes: an oracle
    readback straight after a write burst must first wait for the tails
    to land or it would (correctly) be served slightly-stale state.
    The lag a follower reports is relative to its *last-known* primary
    LSN, so a single zero reading can predate the burst — require two
    zero readings separated by several tail-poll intervals, which
    guarantees a post-burst poll happened in between.
    """
    loop = asyncio.get_running_loop()
    end = loop.time() + deadline
    for shard, specs in replicas.all_specs().items():
        for spec in specs:
            zeros = 0
            while zeros < 2:
                stats = await _replica_stats(spec)
                lag = stats["replica"]["lag"]
                if lag <= 0:
                    zeros += 1
                else:
                    zeros = 0
                if loop.time() > end:
                    raise AssertionError(
                        f"replica {shard}/{spec.replica} stuck at lag {lag}"
                    )
                await asyncio.sleep(0.1)


async def _oracle_readback(client, values, maybe=None):
    """Every acked write reads back exactly once with its acked value;
    ``maybe`` (unknown-outcome in-flights) may appear, but only with
    the value that was written — never torn, never duplicated."""
    maybe = maybe or {}
    every = sorted(values)
    assert await client.search_many(every) == [values[key] for key in every]
    top = (1 << WIDTH) - 1
    ranged = await client.range_search((0, 0), (top, top))
    got = {}
    for key, value in ranged:
        got[tuple(key)] = value
    assert len(got) == len(ranged), "a key was returned twice"
    for key, value in got.items():
        expected = values.get(key, maybe.get(key))
        assert expected == value, (
            f"key {key} served as {value!r}, expected {expected!r}"
        )
    assert set(values) <= set(got)


# ---------------------------------------------------------------------------
# replica serving


class TestReplicaServing:
    def test_followers_serve_reads_and_reject_writes(self, tmp_path):
        keys = seeded_keys(48, seed=7)
        values = {key: i for i, key in enumerate(keys)}
        manager = make_manager(tmp_path, shards=2, sample=keys)
        manager.start()
        replicas = ReplicaManager(manager, 1, poll_interval=0.02)
        replicas.start()
        try:

            async def scenario():
                async with ShardRouter(manager, replicas=replicas) as router:
                    host, port = router.address
                    client = await QueryClient.connect(
                        host, port, negotiate=True
                    )
                    async with client:
                        await client.insert_many(
                            [(key, values[key]) for key in keys]
                        )
                        await _wait_caught_up(replicas)
                        await _oracle_readback(client, values)
                        stats = await client.stats()
                        metrics = stats["server"]
                        assert metrics["replica_reads"] > 0
                        assert metrics["read_retries"] == 0
                        topo = await client.topology()
                        assert len(topo["replicas"]) == 2

                    # the follower itself: replica-role stats, read-only
                    spec = replicas.specs_for(0)[0]
                    stats = await _replica_stats(spec)
                    assert stats["role"] == "replica"
                    replica = stats["replica"]
                    assert replica["shard"] == 0
                    assert replica["applied_lsn"] >= 0
                    assert replica["primary_down"] is False
                    direct = await QueryClient.connect(
                        spec.host, spec.port, negotiate=True
                    )
                    async with direct:
                        with pytest.raises(RemoteError) as err:
                            await direct.insert((1, 2), "nope")
                        assert err.value.code == "read-only"

            run(scenario())
        finally:
            replicas.stop()
            manager.stop()


    def test_replica_refuses_primary_only_verbs(self, tmp_path):
        keys = seeded_keys(16, seed=3)
        manager = make_manager(tmp_path, shards=1)
        manager.start()
        replicas = ReplicaManager(manager, 1, poll_interval=0.02)
        replicas.start()
        try:

            async def scenario():
                primary = manager.specs[0]
                writer = await QueryClient.connect(
                    primary.host, primary.port, negotiate=True
                )
                async with writer:
                    await writer.insert_many(
                        [(key, i) for i, key in enumerate(keys)]
                    )
                await _wait_caught_up(replicas)
                spec = replicas.specs_for(0)[0]
                direct = await QueryClient.connect(
                    spec.host, spec.port, negotiate=True
                )
                async with direct:
                    before = (await direct.stats())["keys"]
                    assert before == len(keys)
                    refused = [
                        ("bad-opcode", lambda: direct.migrate(
                            "evict", z_low=0, z_high=(1 << 32) - 1)),
                        ("bad-opcode", lambda: direct.migrate(
                            "begin", z_low=0, z_high=(1 << 32) - 1)),
                        ("bad-opcode", lambda: direct.repl("hello")),
                        ("bad-opcode", lambda: direct.route(keys[0])),
                        ("read-only", lambda: direct.insert((1, 2), "no")),
                        ("read-only", lambda: direct.delete_many(keys)),
                    ]
                    for code, request in refused:
                        with pytest.raises((ProtocolError, RemoteError)) as err:
                            await request()
                        assert err.value.code == code
                    assert (await direct.stats())["keys"] == before
                    assert await direct.search_many(keys) == list(
                        range(len(keys))
                    )

            run(scenario())
        finally:
            replicas.stop()
            manager.stop()

    def test_rebootstrap_after_tap_overflow(self, tmp_path, monkeypatch):
        # A tap this small overflows within one slow poll; the follower
        # must rebuild from a fresh checkpoint and end exactly caught up.
        monkeypatch.setattr(ReplicationTap, "LIMIT", 4)
        keys = seeded_keys(40, seed=41)
        values = {key: i for i, key in enumerate(keys)}
        manager = make_manager(tmp_path, shards=1)
        manager.start()
        replicas = ReplicaManager(manager, 1, poll_interval=0.5)
        replicas.start()
        try:

            async def scenario():
                primary = manager.specs[0]
                writer = await QueryClient.connect(
                    primary.host, primary.port, negotiate=True
                )
                async with writer:
                    for key in keys:
                        await writer.insert(key, values[key])
                spec = replicas.specs_for(0)[0]
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 15.0
                while (await _replica_stats(spec))["replica"][
                    "rebootstraps"
                ] < 1:
                    assert loop.time() < deadline, "no re-bootstrap"
                    await asyncio.sleep(0.1)
                await _wait_caught_up(replicas)
                stats = await _replica_stats(spec)
                assert stats["replica"]["lag"] == 0
                assert stats["keys"] == len(keys)
                direct = await QueryClient.connect(
                    spec.host, spec.port, negotiate=True
                )
                async with direct:
                    await _oracle_readback(direct, values)

            run(scenario())
        finally:
            replicas.stop()
            manager.stop()


class TestReplicaRangeUnderApplyStorm:
    """A replica RANGE racing the tail loop is one committed state.

    Sequential single-key inserts to the primary commit one key per
    shipped batch, so the state at every LSN is a prefix of the insert
    order.  Every RANGE answered by the replica meanwhile must be
    exactly such a prefix — no half-applied batch, no key twice.
    """

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_every_range_is_one_shipped_prefix(self, tmp_path, parallelism):
        order = seeded_keys(400, seed=23)
        random.Random(5).shuffle(order)
        position = {key: i for i, key in enumerate(order)}
        manager = make_manager(tmp_path, shards=1)
        manager.start()
        replicas = ReplicaManager(manager, 1, poll_interval=0.005)
        replicas.start()
        try:

            async def scenario():
                primary = manager.specs[0]
                spec = replicas.specs_for(0)[0]
                writer = await QueryClient.connect(
                    primary.host, primary.port, negotiate=True
                )
                readers = [
                    await QueryClient.connect(
                        spec.host, spec.port, negotiate=True
                    )
                    for _ in range(2)
                ]
                top = (1 << WIDTH) - 1
                done = asyncio.Event()
                replies = []

                async def write():
                    try:
                        for i, key in enumerate(order):
                            await writer.insert(key, i)
                    finally:
                        done.set()

                async def scan(client):
                    while not done.is_set():
                        try:
                            items = await client.range_search(
                                (0, 0), (top, top), parallelism=parallelism
                            )
                        except RemoteError as exc:
                            if exc.code != "replica-stale":
                                raise
                            continue
                        replies.append(items)

                try:
                    await asyncio.gather(
                        write(), *(scan(client) for client in readers)
                    )
                finally:
                    await writer.close()
                    for client in readers:
                        await client.close()
                return replies

            replies = run(scenario())
        finally:
            replicas.stop()
            manager.stop()

        assert replies
        torn = []
        for items in replies:
            got = {tuple(key): value for key, value in items}
            prefix = {key: i for i, key in enumerate(order[: len(got)])}
            if len(got) != len(items) or got != prefix:
                torn.append(len(items))
        assert not torn, (
            f"{len(torn)} of {len(replies)} replica ranges were not the "
            f"committed state at any shipped LSN"
        )
        assert all(
            position[tuple(key)] == value
            for items in replies
            for key, value in items
        )


# ---------------------------------------------------------------------------
# the idempotent-read retry (satellite regression)


class TestIdempotentReadRetry:
    def test_reads_retry_once_on_a_killed_link_writes_never(self, tmp_path):
        keys = seeded_keys(32, seed=13)
        values = {key: i for i, key in enumerate(keys)}
        manager = make_manager(tmp_path, shards=1)
        manager.start()
        replicas = ReplicaManager(manager, 1, poll_interval=0.02)
        replicas.start()
        try:

            async def scenario():
                async with ShardRouter(manager, replicas=replicas) as router:
                    host, port = router.address
                    client = await QueryClient.connect(
                        host, port, negotiate=True
                    )
                    async with client:
                        await client.insert_many(
                            [(key, values[key]) for key in keys]
                        )
                        await _wait_caught_up(replicas)
                        for key in keys[:8]:
                            assert await client.search(key) == values[key]
                        before = await client.stats()
                        assert before["server"]["replica_reads"] > 0

                        # SIGKILL the follower with its link still
                        # installed: the next preferred read dies
                        # mid-request and must be retried — once, on
                        # the primary — not hung and not surfaced.
                        replicas.kill(0, 0)
                        for key in keys:
                            assert await client.search(key) == values[key]
                        ranged = await client.range_search(
                            (0, 0), ((1 << WIDTH) - 1, (1 << WIDTH) - 1)
                        )
                        assert len(ranged) == len(keys)
                        retried = router.metrics.read_retries
                        assert retried >= 1

                        # mutations get no retry anywhere: a dead
                        # primary surfaces as shard-down, and the retry
                        # counter does not move (read it off the router
                        # directly — a STATS round-trip would itself be
                        # a retrying read against the dead primary).
                        manager.kill(0)
                        with pytest.raises(ShardDownError):
                            await asyncio.wait_for(
                                client.insert((1, 1), "never"), timeout=10.0
                            )
                        assert router.metrics.read_retries == retried

            run(scenario())
        finally:
            replicas.stop()
            manager.stop()

    def test_read_of_dead_primary_without_spares_raises(self, tmp_path):
        keys = seeded_keys(8, seed=17)
        manager = make_manager(tmp_path, shards=1)
        manager.start()
        try:

            async def scenario():
                async with ShardRouter(manager) as router:
                    host, port = router.address
                    client = await QueryClient.connect(
                        host, port, negotiate=True
                    )
                    async with client:
                        await client.insert_many(
                            [(key, i) for i, key in enumerate(keys)]
                        )
                        manager.kill(0)
                        with pytest.raises(ShardDownError):
                            await asyncio.wait_for(
                                client.search(keys[0]), timeout=10.0
                            )

            run(scenario())
        finally:
            manager.stop()


# ---------------------------------------------------------------------------
# promotion


class TestPromotion:
    def test_promote_verb_over_the_wire(self, tmp_path):
        keys = seeded_keys(40, seed=23)
        values = {key: i for i, key in enumerate(keys)}
        manager = make_manager(tmp_path, shards=1)
        manager.start()
        replicas = ReplicaManager(manager, 1, poll_interval=0.02)
        replicas.start()
        try:

            async def scenario():
                async with ShardRouter(manager, replicas=replicas) as router:
                    host, port = router.address
                    client = await QueryClient.connect(
                        host, port, negotiate=True
                    )
                    async with client:
                        await client.insert_many(
                            [(key, values[key]) for key in keys]
                        )
                        await _wait_caught_up(replicas)
                        manager.kill(0)
                        # the follower keeps serving reads while the
                        # primary is down, before any promotion
                        assert (
                            await client.search(keys[0]) == values[keys[0]]
                        )
                        summary = await client.migrate("promote", shard=0)
                        assert summary["shard"] == 0
                        assert summary["chosen"] is not None
                        assert summary["epoch"] == 2
                        # promoted primary serves everything, and
                        # accepts new writes
                        await client.insert((1, 1), "fresh")
                        values[(1, 1)] = "fresh"
                        await _wait_caught_up(replicas)
                        await _oracle_readback(client, values)
                        stats = await client.stats()
                        assert stats["server"]["promotions"] == 1

            run(scenario())
        finally:
            replicas.stop()
            manager.stop()

    def test_promotion_from_the_primary_wal_alone(self, tmp_path):
        # No follower ever existed: zero acked-write loss must still
        # hold, because an ack implies a durable COMMIT in the dead
        # primary's WAL.
        keys = seeded_keys(40, seed=29)
        values = {key: i for i, key in enumerate(keys)}
        manager = make_manager(tmp_path, shards=1)
        manager.start()
        try:

            async def load():
                async with ShardRouter(manager) as router:
                    host, port = router.address
                    client = await QueryClient.connect(
                        host, port, negotiate=True
                    )
                    async with client:
                        await client.insert_many(
                            [(key, values[key]) for key in keys]
                        )

            run(load())
            manager.kill(0)
            summary = promote(manager, None, 0)
            assert summary["chosen"] is None
            assert summary["chosen_lsn"] == -1
            assert summary["pages"] > 0
            assert manager.is_alive(0)

            async def readback():
                async with ShardRouter(manager) as router:
                    host, port = router.address
                    client = await QueryClient.connect(
                        host, port, negotiate=True
                    )
                    async with client:
                        await _oracle_readback(client, values)

            run(readback())
        finally:
            manager.stop()

    def test_auto_failover_watchdog_promotes(self, tmp_path):
        keys = seeded_keys(24, seed=31)
        values = {key: i for i, key in enumerate(keys)}
        manager = make_manager(tmp_path, shards=1)
        manager.start()
        replicas = ReplicaManager(manager, 1, poll_interval=0.02)
        replicas.start()
        try:

            async def scenario():
                async with ShardRouter(
                    manager,
                    replicas=replicas,
                    auto_failover=True,
                    failover_interval=0.1,
                ) as router:
                    host, port = router.address
                    client = await QueryClient.connect(
                        host, port, negotiate=True
                    )
                    async with client:
                        await client.insert_many(
                            [(key, values[key]) for key in keys]
                        )
                        await _wait_caught_up(replicas)
                        manager.kill(0)
                        deadline = asyncio.get_running_loop().time() + 15.0
                        while router.metrics.promotions < 1:
                            if asyncio.get_running_loop().time() > deadline:
                                raise AssertionError(
                                    "watchdog never promoted"
                                )
                            await asyncio.sleep(0.1)
                        assert manager.is_alive(0)
                        await _wait_caught_up(replicas)
                        await _oracle_readback(client, values)

            run(scenario())
        finally:
            replicas.stop()
            manager.stop()


# ---------------------------------------------------------------------------
# chaos: kill the promotion at every swept phase


class TestChaosFailoverSweep:
    @pytest.mark.parametrize("phase", PROMOTION_PHASES)
    def test_injected_failure_then_retry_converges(self, tmp_path, phase):
        keys = seeded_keys(32, seed=37)
        values = {key: i for i, key in enumerate(keys)}
        maybe = {}
        manager = make_manager(tmp_path, shards=1)
        manager.start()
        replicas = ReplicaManager(manager, 1, poll_interval=0.02)
        replicas.start()
        try:

            async def scenario():
                async with ShardRouter(manager, replicas=replicas) as router:
                    host, port = router.address
                    client = await QueryClient.connect(
                        host, port, negotiate=True
                    )
                    writer = await QueryClient.connect(
                        host, port, negotiate=True
                    )
                    async with client, writer:
                        await client.insert_many(
                            [(key, values[key]) for key in keys]
                        )
                        await _wait_caught_up(replicas)

                        # a write storm straddling the failure: acked
                        # writes join the oracle, failed ones are
                        # unknown-outcome (durable-but-unacked is legal)
                        stop = asyncio.Event()

                        async def storm():
                            i = 0
                            while not stop.is_set():
                                key = (60000 + (i % 5000), 60000)
                                i += 1
                                if key in values or key in maybe:
                                    continue
                                try:
                                    await writer.insert(key, 100000 + i)
                                except ShardDownError:
                                    maybe[key] = 100000 + i
                                    await asyncio.sleep(0.02)
                                else:
                                    values[key] = 100000 + i

                        task = asyncio.create_task(storm())
                        await asyncio.sleep(0.1)
                        manager.kill(0)
                        with pytest.raises(ShardDownError):
                            await router.promote(0, failpoint=phase)
                        # the sabotaged attempt left a retryable state:
                        # the same promotion, un-sabotaged, converges
                        summary = await router.promote(0)
                        assert summary["shard"] == 0
                        assert manager.is_alive(0)
                        # post-promotion writes flow again
                        acked_before = len(values)
                        deadline = asyncio.get_running_loop().time() + 10.0
                        while len(values) <= acked_before:
                            if asyncio.get_running_loop().time() > deadline:
                                raise AssertionError(
                                    "no write acked after promotion"
                                )
                            await asyncio.sleep(0.05)
                        stop.set()
                        await task
                        await _wait_caught_up(replicas)
                        await _oracle_readback(client, values, maybe)

            run(scenario())
        finally:
            replicas.stop()
            manager.stop()

        # offline: the promoted worker's WAL replays into a
        # sanitizer-clean index carrying every acked value exactly
        wal = manager.wal_path(manager.worker_ids[0])
        index = recover_index(wal)
        assert index is not None
        try:
            check_structure(index)
            for key, acked in values.items():
                assert key in index
                assert index.search(key) == acked
            for key, written in maybe.items():
                if key in index:
                    assert index.search(key) == written
        finally:
            index.store.close()

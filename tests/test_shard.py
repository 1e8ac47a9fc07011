"""The sharding layer: partition math, worker lifecycle, routing.

Covers boundary selection (quantile cuts, degenerate fallbacks), the
router's equivalence with a single embedded server under 8 concurrent
clients, the pinned z-ascending merge order of scatter-gathered range
queries, graceful degradation when a worker is SIGKILLed (structured
``shard-down``, never a hang), protocol v2 negotiation with the
``TOPOLOGY``/``ROUTE`` surfaces, transparent ``stale-topology`` retry,
and durability of a sharded cluster across a graceful restart.
"""

import asyncio
import random

import pytest

from repro import KeyCodec, UIntEncoder
from repro.bits import interleave
from repro.core import MultiKeyFile
from repro.errors import KeyNotFoundError, ShardDownError
from repro.server import (
    QueryClient,
    QueryServer,
    ShardManager,
    boundaries_from_sample,
    shard_for,
    uniform_boundaries,
)
from repro.server.router import ShardRouter

DIMS = 2
WIDTH = 16
WIDTHS = (WIDTH,) * DIMS


def run(coro):
    return asyncio.run(coro)


def seeded_keys(n, seed=11):
    """``n`` distinct 2-d keys from a seeded stream."""
    rng = random.Random(seed)
    seen = set()
    while len(seen) < n:
        seen.add((rng.randrange(1 << WIDTH), rng.randrange(1 << WIDTH)))
    return sorted(seen)


def make_manager(tmp_path=None, shards=4, sample=None, **kwargs):
    return ShardManager(
        shards,
        dims=DIMS,
        widths=WIDTH,
        page_capacity=8,
        workdir=tmp_path,
        sample_keys=sample,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# partition math (no processes involved)


class TestPartitionMath:
    def test_uniform_boundaries_split_the_domain_evenly(self):
        cuts = uniform_boundaries(4, 8)
        assert cuts == [64, 128, 192]
        assert shard_for(0, cuts) == 0
        assert shard_for(63, cuts) == 0
        assert shard_for(64, cuts) == 1
        assert shard_for(191, cuts) == 2
        assert shard_for(255, cuts) == 3

    def test_single_shard_needs_no_cuts(self):
        assert uniform_boundaries(1, 8) == []
        assert boundaries_from_sample([3, 1, 4], 1, 8) == []
        assert shard_for(17, []) == 0

    def test_quantile_cuts_balance_a_skewed_sample(self):
        # Quadratically skewed density: uniform cuts would overload the
        # low shard; quantile cuts give each shard an equal sample share.
        zs = [i * i for i in range(200)]
        cuts = boundaries_from_sample(zs, 4, 16)
        assert cuts == sorted(cuts) and len(set(cuts)) == 3
        counts = [0, 0, 0, 0]
        for z in zs:
            counts[shard_for(z, cuts)] += 1
        assert counts == [50, 50, 50, 50]

    def test_degenerate_samples_fall_back_to_uniform(self):
        uniform = uniform_boundaries(4, 8)
        # all-identical values cannot support strictly increasing cuts
        assert boundaries_from_sample([5] * 40, 4, 8) == uniform
        # fewer samples than shards
        assert boundaries_from_sample([1, 2], 4, 8) == uniform
        assert boundaries_from_sample([], 4, 8) == uniform

    def test_manager_routing_matches_interleave(self):
        manager = make_manager(shards=4)  # never started: pure math
        for key in seeded_keys(50):
            z = interleave(key, WIDTHS)
            shard = manager.shard_for_key(key)
            low, high = manager.z_range(shard)
            assert low <= z <= high
        # the shard ranges tile the whole z domain
        assert manager.z_range(0)[0] == 0
        assert manager.z_range(3)[1] == (1 << (DIMS * WIDTH)) - 1
        for shard in range(3):
            assert manager.z_range(shard + 1)[0] == (
                manager.z_range(shard)[1] + 1
            )

    def test_explicit_boundaries_are_validated(self):
        with pytest.raises(ValueError):
            make_manager(shards=4, boundaries=[10, 10, 20])
        with pytest.raises(ValueError):
            make_manager(shards=4, boundaries=[10])


# ---------------------------------------------------------------------------
# router vs a single embedded server: same replies, bit for bit


class TestShardedEquivalence:
    def test_router_matches_single_server_under_concurrency(self, tmp_path):
        clients_n = 8
        keys = seeded_keys(clients_n * 24, seed=23)
        values = {key: i for i, key in enumerate(keys)}
        deletes = keys[::6]
        survivors = [key for key in keys if key not in set(deletes)]
        box_low, box_high = (0, 0), ((1 << 15) - 1, (1 << 15) - 1)

        # The oracle arm: one embedded server, driven serially.
        codec = KeyCodec([UIntEncoder(WIDTH) for _ in range(DIMS)])
        single = MultiKeyFile(codec, page_capacity=8)

        async def oracle():
            async with QueryServer(single) as server:
                host, port = server.address
                async with await QueryClient.connect(host, port) as client:
                    await client.insert_many(
                        [(key, values[key]) for key in keys]
                    )
                    dropped = await client.delete_many(deletes)
                    searched = await client.search_many(survivors)
                    ranged = await client.range_search(box_low, box_high)
                    return dropped, searched, ranged

        # The cluster arm: 4 shards, 8 concurrent clients.
        manager = make_manager(tmp_path, shards=4, sample=keys)
        manager.start()
        try:

            async def cluster():
                async with ShardRouter(manager, max_inflight=256) as router:
                    host, port = router.address
                    clients = [
                        await QueryClient.connect(host, port, negotiate=True)
                        for _ in range(clients_n)
                    ]
                    try:
                        shares = [
                            keys[c::clients_n] for c in range(clients_n)
                        ]

                        async def one_client(client, share):
                            for key in share:
                                await client.insert(key, values[key])
                                assert await client.search(key) == values[key]

                        await asyncio.gather(
                            *(
                                one_client(c, s)
                                for c, s in zip(clients, shares)
                            )
                        )
                        dropped = await clients[0].delete_many(deletes)
                        searched = await clients[1].search_many(survivors)
                        ranged = await clients[2].range_search(
                            box_low, box_high
                        )
                        with pytest.raises(KeyNotFoundError):
                            await clients[3].search(deletes[0])
                        return dropped, searched, ranged
                    finally:
                        for client in clients:
                            await client.close()

            cluster_out = run(cluster())
        finally:
            manager.stop()
        oracle_out = run(oracle())
        assert cluster_out[0] == oracle_out[0]  # delete_many values
        assert cluster_out[1] == oracle_out[1]  # search_many values
        # same range result set (the single server's natural order is
        # page traversal, not global z; the router's z-ascending merge
        # order is pinned by test_merge_order_is_globally_z_ascending)
        assert sorted(cluster_out[2]) == sorted(oracle_out[2])

    def test_merge_order_is_globally_z_ascending(self, tmp_path):
        keys = seeded_keys(120, seed=5)
        manager = make_manager(tmp_path, shards=4, sample=keys)
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
                        full = await client.range_search(
                            (0, 0), ((1 << WIDTH) - 1, (1 << WIDTH) - 1)
                        )
                        assert router.metrics.scatter_fanout >= 4
                        return full

            items = run(scenario())
        finally:
            manager.stop()
        assert len(items) == len(keys)
        zs = [interleave(key, WIDTHS) for key, _value in items]
        assert zs == sorted(zs)


# ---------------------------------------------------------------------------
# graceful degradation: a SIGKILLed worker must not take the cluster down


class TestKillOneShard:
    def test_dead_shard_is_reported_not_hung(self, tmp_path):
        keys = seeded_keys(60, seed=31)
        manager = make_manager(tmp_path, shards=2, sample=keys)
        manager.start()
        victim_shard = manager.shard_for_key(keys[0])
        survivor_keys = [
            key for key in keys if manager.shard_for_key(key) != victim_shard
        ]
        dead_keys = [
            key for key in keys if manager.shard_for_key(key) == victim_shard
        ]
        assert survivor_keys and dead_keys
        try:

            async def scenario():
                async with ShardRouter(
                    manager, connect_timeout=2.0
                ) as router:
                    host, port = router.address
                    client = await QueryClient.connect(
                        host, port, negotiate=True
                    )
                    async with client:
                        for i, key in enumerate(keys):
                            await client.insert(key, i)
                        manager.kill(victim_shard)
                        assert not manager.is_alive(victim_shard)
                        # structured shard-down within a bound — a hang
                        # here is exactly the regression being pinned
                        with pytest.raises(ShardDownError):
                            await asyncio.wait_for(
                                client.search(dead_keys[0]), timeout=10.0
                            )
                        # the surviving shard keeps serving point ops...
                        got = await asyncio.wait_for(
                            client.search(survivor_keys[0]), timeout=10.0
                        )
                        assert got == keys.index(survivor_keys[0])
                        # ...and STATS degrades to an error entry instead
                        # of failing the whole scatter
                        stats = await client.stats()
                        errors = [
                            entry
                            for entry in stats["shards"]
                            if "error" in entry
                        ]
                        assert [e["shard"] for e in errors] == [victim_shard]
                        assert router.metrics.shard_errors >= 1

            run(scenario())
        finally:
            manager.stop()


# ---------------------------------------------------------------------------
# epoch-stamped frames: negotiation, topology, routing introspection


class TestProtocolV2:
    def test_negotiate_topology_and_route_against_router(self, tmp_path):
        keys = seeded_keys(40, seed=41)
        manager = make_manager(tmp_path, shards=2, sample=keys)
        manager.start()
        try:

            async def scenario():
                async with ShardRouter(manager) as router:
                    host, port = router.address
                    client = await QueryClient.connect(host, port)
                    async with client:
                        assert client.epoch == 0
                        await client.negotiate()
                        # the PING reply's header carried the epoch
                        assert client.epoch == router.epoch == 1
                        topo = await client.topology()
                        assert topo["role"] == "router"
                        assert topo["epoch"] == router.epoch == 1
                        assert topo["boundaries"] == manager.boundaries
                        assert len(topo["shards"]) == 2
                        for entry, spec in zip(
                            topo["shards"], manager.specs
                        ):
                            assert entry["port"] == spec.port
                            assert entry["z_low"] == spec.z_low
                        for key in keys[:10]:
                            routed = await client.route(key)
                            assert (
                                routed["shard"]
                                == manager.shard_for_key(key)
                            )
                            assert routed["z"] == interleave(key, WIDTHS)
                        # every reply header re-stamps the cached epoch
                        assert client.epoch == 1

            run(scenario())
        finally:
            manager.stop()

    def test_router_advertises_its_frame_cap(self, tmp_path):
        manager = make_manager(tmp_path, shards=2)
        manager.start()
        try:

            async def scenario():
                async with ShardRouter(manager, max_frame=8192) as router:
                    host, port = router.address
                    client = await QueryClient.connect(
                        host, port, negotiate=True
                    )
                    async with client:
                        pong = await client.ping()
                        assert pong["max_frame"] == 8192
                        assert client.max_frame == 8192
                        # Routed traffic still flows under the tight cap.
                        await client.insert((1, 2), "capped")
                        assert await client.search((1, 2)) == "capped"

            run(scenario())
        finally:
            manager.stop()

    def test_plain_server_speaks_v2_with_degenerate_topology(self):
        codec = KeyCodec([UIntEncoder(WIDTH) for _ in range(DIMS)])
        file = MultiKeyFile(codec, page_capacity=8)

        async def scenario():
            async with QueryServer(file) as server:
                host, port = server.address
                client = await QueryClient.connect(
                    host, port, negotiate=True
                )
                async with client:
                    topo = await client.topology()
                    assert topo["role"] == "server"
                    assert topo["boundaries"] == []
                    (shard,) = topo["shards"]
                    assert shard["z_low"] == 0
                    assert shard["z_high"] == (1 << (DIMS * WIDTH)) - 1
                    routed = await client.route((7, 9))
                    assert routed["shard"] == 0
                    # a plain server never asserts an epoch, and a client
                    # that skips negotiation speaks the same frames
                    assert client.epoch == 0
                    plain = await QueryClient.connect(host, port)
                    async with plain:
                        await plain.insert((1, 2), "plain")
                        assert await plain.search((1, 2)) == "plain"
                        assert plain.epoch == 0

        run(scenario())


# ---------------------------------------------------------------------------
# topology epochs: stale clients are fenced, then retry transparently


class TestStaleEpoch:
    def test_stale_client_retries_transparently(self, tmp_path):
        manager = make_manager(tmp_path, shards=2)
        manager.start()
        try:

            async def scenario():
                async with ShardRouter(manager) as router:
                    host, port = router.address
                    client = await QueryClient.connect(
                        host, port, negotiate=True
                    )
                    async with client:
                        await client.insert((3, 4), "a")
                        assert client.epoch == 1
                        # same layout, new epoch: every data request
                        # asserting epoch 1 is now stale
                        new_epoch = await router.set_topology(
                            manager.specs, manager.boundaries
                        )
                        assert new_epoch == 2
                        # the client's first attempt is rejected, learns
                        # epoch 2 from the rejection's own header and
                        # retries without surfacing an error
                        assert await client.search((3, 4)) == "a"
                        assert client.epoch == 2
                        assert router.metrics.stale_rejections >= 1

            run(scenario())
        finally:
            manager.stop()


# ---------------------------------------------------------------------------
# durability: a sharded cluster survives a graceful restart


class TestDurableRestart:
    def test_acked_writes_survive_cluster_restart(self, tmp_path):
        keys = seeded_keys(48, seed=53)

        def drive(manager, action):
            async def scenario():
                async with ShardRouter(manager) as router:
                    host, port = router.address
                    client = await QueryClient.connect(
                        host, port, negotiate=True
                    )
                    async with client:
                        return await action(client)

            return run(scenario())

        first = make_manager(tmp_path, shards=4, sample=keys)
        first.start()
        try:
            boundaries = list(first.boundaries)

            async def write(client):
                assert await client.insert_many(
                    [(key, i) for i, key in enumerate(keys)]
                ) == len(keys)

            drive(first, write)
        finally:
            first.stop()  # SIGTERM: drain + WAL checkpoint per shard

        # A fresh manager re-derives the same partition from the
        # persisted topology sidecar — no sample needed — and each
        # worker recovers its shard from its own WAL.
        second = make_manager(tmp_path, shards=4)
        assert second.boundaries == boundaries
        second.start()
        try:

            async def read(client):
                assert await client.search_many(keys) == list(
                    range(len(keys))
                )
                stats = await client.stats()
                assert stats["keys"] == len(keys)

            drive(second, read)
        finally:
            second.stop()

        # a mismatched shape must refuse to reuse the durable layout
        with pytest.raises(ValueError):
            make_manager(tmp_path, shards=2)

"""The ``migration`` benchmark cell: online rebalance under live load.

One cell starts a durable 2-shard cluster behind a real
:class:`~repro.server.router.ShardRouter`, drives the experiment's
seeded key stream through ``concurrency`` clients, and — while the
writers are still running — splits the hottest shard online and then
merges a shard back (:class:`~repro.server.migrate.ShardMigrator`).
The epoch bumps mid-traffic, so the in-flight clients absorb
``stale-topology`` rejections through their transparent re-stamp retry.

**What is gated.**  One thing, absolutely and at zero: *acked-write
loss*.  Every insert the router acknowledged is read back after both
migrations settle (per-key searches plus one scatter-gathered range
query against the oracle); a key that is missing, has the wrong value,
or shows up twice counts as ``migration_loss``.  The gate
(:func:`migration_loss_failures`) also requires that the migrations
actually happened — a split and a merge completed and the epoch
advanced — so the cell cannot pass by quietly skipping the rebalance.
Unlike the diff-gated metrics this is an **absolute** gate: it holds on
every fresh ``repro bench`` run, baseline or not, which is why CI runs
this cell fresh instead of through ``--compare``.

Wall times and rebalance durations are recorded, never gated.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Mapping, Sequence

from repro.bench.harness import Gates, _split_stream
from repro.bench.served import _PIPELINE_CHUNK

#: Concurrent router clients writing while the shard moves.
DEFAULT_CONCURRENCY = 8
#: Shards the cluster boots with (the split takes it to three, the
#: merge back to two).
BOOT_SHARDS = 2
#: Pseudo-key bits per dimension (the served/sharded convention).
_WIDTH = 31


async def _drive_live_writes(
    clients: Sequence[Any],
    shares: Sequence[Sequence],
    values: dict,
    progress: list[int],
) -> int:
    """Pipelined inserts that count acked writes as they land.

    ``progress[0]`` advances with every acknowledgement so the
    migration task can trigger mid-stream; returns the number of
    inserts that errored (excluded from the oracle by the caller).
    """
    failed = 0

    async def one_client(client: Any, share: Sequence) -> int:
        wrong = 0
        for start in range(0, len(share), _PIPELINE_CHUNK):
            chunk = share[start:start + _PIPELINE_CHUNK]
            outcome = await asyncio.gather(
                *(client.insert(key, values[key]) for key in chunk),
                return_exceptions=True,
            )
            for key, result in zip(chunk, outcome):
                if isinstance(result, BaseException):
                    wrong += 1
                    values.pop(key, None)
                else:
                    progress[0] += 1
        return wrong

    for wrong in await asyncio.gather(
        *(one_client(c, s) for c, s in zip(clients, shares))
    ):
        failed += wrong
    return failed


async def _readback_loss(
    clients: Sequence[Any],
    shares: Sequence[Sequence],
    values: dict,
    dims: int,
) -> int:
    """Acked-write loss: per-key searches plus one ranged oracle check."""
    loss = 0

    async def one_client(client: Any, share: Sequence) -> int:
        wrong = 0
        for start in range(0, len(share), _PIPELINE_CHUNK):
            chunk = [key for key in share[start:start + _PIPELINE_CHUNK]
                     if key in values]
            got = await asyncio.gather(
                *(client.search(key) for key in chunk),
                return_exceptions=True,
            )
            for key, value in zip(chunk, got):
                if isinstance(value, BaseException) or value != values[key]:
                    wrong += 1
        return wrong

    for wrong in await asyncio.gather(
        *(one_client(c, s) for c, s in zip(clients, shares))
    ):
        loss += wrong
    # A scatter-gathered range over the lower-left quadrant: catches
    # double-returns (an unevicted orphan leaking past the ownership
    # filter) that per-key searches cannot see.
    half = 1 << (_WIDTH - 1)
    expected = sorted(
        [list(key), value]
        for key, value in values.items()
        if all(code < half for code in key)
    )
    ranged = await clients[0].range_search(
        tuple(0 for _ in range(dims)),
        tuple(half - 1 for _ in range(dims)),
    )
    if sorted([list(key), value] for key, value in ranged) != expected:
        loss += 1
    return loss


def run_migration_cell(
    cell: Any,
    experiment: Any,
    workdir_factory,
    n: int,
    concurrency: int = DEFAULT_CONCURRENCY,
) -> dict:
    """Measure one live split + merge under concurrent writers."""
    from repro.server import QueryClient
    from repro.server.router import ShardRouter
    from repro.server.shard import ShardManager

    inserted, _probes = _split_stream(experiment, n)
    keys = [tuple(key) for key in inserted]
    values = {key: i for i, key in enumerate(keys)}
    shares = [keys[i::concurrency] for i in range(concurrency)]

    manager = ShardManager(
        BOOT_SHARDS,
        dims=experiment.dims,
        widths=_WIDTH,
        page_capacity=cell.page_capacity,
        workdir=workdir_factory(),
        sample_keys=keys,
    )
    manager.start()
    outcome: dict[str, Any] = {}
    try:

        async def drive() -> None:
            async with ShardRouter(
                manager, max_inflight=concurrency * _PIPELINE_CHUNK
            ) as router:
                host, port = router.address
                clients = [
                    await QueryClient.connect(host, port, negotiate=True)
                    for _ in range(concurrency)
                ]
                try:
                    progress = [0]
                    epoch0 = router.epoch

                    async def rebalance() -> dict[str, Any]:
                        # Split once a quarter of the stream is acked,
                        # merge once half is — both mid-traffic.
                        while progress[0] < len(keys) // 4:
                            await asyncio.sleep(0.01)
                        started = time.perf_counter()
                        split = await router.migrator.split()
                        split_wall = time.perf_counter() - started
                        while progress[0] < len(keys) // 2:
                            await asyncio.sleep(0.01)
                        started = time.perf_counter()
                        merge = await router.migrator.merge()
                        merge_wall = time.perf_counter() - started
                        return {
                            "split": split,
                            "merge": merge,
                            "split_wall": split_wall,
                            "merge_wall": merge_wall,
                        }

                    started = time.perf_counter()
                    failed, moves = await asyncio.gather(
                        _drive_live_writes(clients, shares, values, progress),
                        rebalance(),
                    )
                    write_wall = time.perf_counter() - started

                    started = time.perf_counter()
                    loss = await _readback_loss(
                        clients, shares, values, experiment.dims
                    )
                    read_wall = time.perf_counter() - started
                    outcome.update(
                        write_wall=write_wall,
                        read_wall=read_wall,
                        failed=failed,
                        loss=loss,
                        epoch_bumps=router.epoch - epoch0,
                        migrations=router.migrator.completed,
                        stale_retries=router.metrics.stale_rejections,
                        moved=(
                            moves["split"]["moved"] + moves["merge"]["moved"]
                        ),
                        delta_rounds=(
                            moves["split"]["delta_rounds"]
                            + moves["merge"]["delta_rounds"]
                        ),
                        split_wall=moves["split_wall"],
                        merge_wall=moves["merge_wall"],
                        shards=len(manager.specs),
                    )
                finally:
                    for client in clients:
                        await client.close()

        asyncio.run(drive())
    finally:
        manager.stop()
    writes = len(keys)
    metrics = {
        "migration_writes": writes,
        "migration_write_failures": outcome["failed"],
        "migration_loss": outcome["loss"],
        "migration_count": outcome["migrations"],
        "migration_epoch_bumps": outcome["epoch_bumps"],
        "migration_stale_retries": outcome["stale_retries"],
        "migration_moved_keys": outcome["moved"],
        "migration_delta_rounds": outcome["delta_rounds"],
        # Wall clocks: recorded, never gated.
        "migration_write_ops_per_s": round(
            writes / max(outcome["write_wall"], 1e-9), 1
        ),
        "migration_split_seconds": round(outcome["split_wall"], 4),
        "migration_merge_seconds": round(outcome["merge_wall"], 4),
    }
    return {
        "experiment": cell.experiment,
        "scheme": cell.scheme,
        "b": cell.page_capacity,
        "backend": cell.backend,
        "mode": "migration",
        "kind": "migration",
        "n": writes,
        "parallelism": concurrency,
        "shards": outcome["shards"],
        "wall_seconds": round(
            outcome["write_wall"] + outcome["read_wall"], 4
        ),
        "arm_wall_seconds": {
            "writes": round(outcome["write_wall"], 4),
            "reads": round(outcome["read_wall"], 4),
        },
        "metrics": metrics,
    }


def migration_loss_failures(results: Sequence[Mapping]) -> list[str]:
    """The rebalance layer's gated claims — absolute, never diff-gated.

    For every ``mode == "migration"`` cell: zero acked-write loss
    (every insert the router acknowledged before, during or after the
    cutover reads back with its acked value, and no orphan leaks into a
    scattered range), at least one split *and* one merge actually
    completed, and the topology epoch advanced — a run that skipped the
    rebalance must not pass its own gate.
    """
    failures = []
    for result in results:
        if result.get("mode") != "migration":
            continue
        label = (
            f"{result['experiment']}/{result['scheme']}/b={result['b']}"
            f"/{result['backend']}/migration"
        )
        m = result["metrics"]
        if m.get("migration_loss"):
            failures.append(
                f"{label}: {m['migration_loss']} acked write(s) lost or "
                "corrupted across the online split/merge — the rebalance "
                "broke the durability promise"
            )
        if m.get("migration_count", 0) < 2:
            failures.append(
                f"{label}: only {m.get('migration_count', 0)} migration(s) "
                "completed; the cell must drive one split and one merge"
            )
        if m.get("migration_epoch_bumps", 0) < 2:
            failures.append(
                f"{label}: the topology epoch advanced "
                f"{m.get('migration_epoch_bumps', 0)} time(s); each "
                "migration must fence and re-stamp the cluster"
            )
        if m.get("migration_write_failures"):
            failures.append(
                f"{label}: {m['migration_write_failures']} write(s) failed "
                "outright during the rebalance — cutover must be "
                "transparent to clients"
            )
    return failures


#: The migration mode's gates.  The loss count has its own absolute
#: zero gate; diffing it as well costs nothing.
MIGRATION_GATES = Gates(
    absolute=(migration_loss_failures,),
    worse_if_higher=("migration_loss", "migration_write_failures"),
)

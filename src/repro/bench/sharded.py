"""The ``sharded`` benchmark cell: 1-shard vs N-shard served throughput.

One cell runs the same seeded served workload twice — through a
1-shard cluster and through an ``N``-shard cluster (default 4), both
fronted by a real :class:`~repro.server.router.ShardRouter` over real
TCP with one worker process per shard — and gates the scaling claim of
the sharding layer.

**What is gated, and why it is not wall clock.**  Every wall-clock
number in this suite is machine noise and is recorded ungated; the
sharded cell keeps that discipline.  On a many-core host the served
wall time of an N-shard cluster approaches the busiest shard's share of
the work; on the single-core CI runner all N workers time-slice one
core and wall time cannot improve at all.  The *deterministic* quantity
underneath both is the *critical path*: the CPU seconds consumed by the
busiest shard worker (each worker reports ``time.process_time()``
through ``STATS``).  Splitting a workload over N balanced shards must
divide the per-worker CPU near-linearly — that ratio

    ``scaling = busiest-shard CPU at 1 shard / busiest-shard CPU at N``

is the served-throughput speedup an N-core machine realises, measured
without needing the N cores.  The gate
(:func:`sharded_scaling_failures`) requires ``scaling >= 2.5`` at four
shards for both the write and the read phase, per the balanced-cut
argument of the MapReduce k-d construction: quantile boundaries put
~n/N keys on each shard, so the busiest shard does ~1/N of the work.

The per-shard group-commit claim survives sharding untouched: each
worker owns a WAL and its own write aggregator, and the cell gates
**< 1 WAL commit per acknowledged write on every shard** — scatter must
not de-coalesce the windows.  Read-back and scatter-gathered range
results are checked against the oracle; mismatches gate at zero.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Mapping, Sequence

from repro.bench.harness import Gates, _split_stream
from repro.bench.served import _PIPELINE_CHUNK, _drive_reads, _drive_writes

#: Shard counts for the two arms: the baseline and the scaled cluster.
DEFAULT_SHARD_ARMS = (1, 4)
#: Concurrent router clients (matches the served cell's bar).
DEFAULT_CONCURRENCY = 8
#: Minimum busiest-shard CPU speedup required of the scaled arm, for
#: both the write and the read phase.
SCALING_FLOOR = 2.5
#: The floor applied below :data:`SCALING_FULL_N` keys.  Per-phase fixed
#: CPU (aggregator window timers, STATS serving) stops being negligible
#: once the binary fast path cut the per-op cost, so a smoke-sized cell
#: only has to prove the partition balances at all; the full 2.5x claim
#: is gated at the committed n=2000 scale.
SCALING_SMOKE_FLOOR = 1.2
SCALING_FULL_N = 1000
#: Pseudo-key bits per dimension (the served cell's convention).
_WIDTH = 31


def _per_shard(stats: Mapping, field_path: Sequence[str]) -> list[float]:
    """Extract one numeric field from every live shard's stats entry."""
    values: list[float] = []
    for entry in stats.get("shards", []):
        node: Any = entry
        for name in field_path:
            if not isinstance(node, Mapping) or name not in node:
                node = None
                break
            node = node[name]
        if isinstance(node, (int, float)):
            values.append(float(node))
    return values


async def _drive_arm(
    router: Any,
    keys: Sequence[tuple],
    values: dict,
    dims: int,
    concurrency: int,
) -> dict[str, Any]:
    """Drive the full write + read workload through one router."""
    from repro.server import QueryClient

    host, port = router.address
    shares = [keys[i::concurrency] for i in range(concurrency)]
    clients = [
        await QueryClient.connect(host, port, negotiate=True)
        for _ in range(concurrency)
    ]
    try:
        stats0 = await clients[0].stats()
        started = time.perf_counter()
        await _drive_writes(clients, shares, values)
        write_wall = time.perf_counter() - started
        stats1 = await clients[0].stats()

        started = time.perf_counter()
        mismatches = await _drive_reads(clients, shares, values)
        # One scatter-gathered range query over the lower-left quadrant,
        # checked against the oracle subset (order-insensitively here;
        # the equivalence suite pins the z-ascending merge order).
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
        read_wall = time.perf_counter() - started
        if sorted([list(key), value] for key, value in ranged) != expected:
            mismatches += 1
        stats2 = await clients[0].stats()
    finally:
        for client in clients:
            await client.close()

    def cpu_delta(before: Mapping, after: Mapping) -> list[float]:
        b = _per_shard(before, ("process", "cpu_seconds"))
        a = _per_shard(after, ("process", "cpu_seconds"))
        return [max(x - y, 0.0) for x, y in zip(a, b)]

    commits = _per_shard(stats2, ("wal", "commits"))
    acked = _per_shard(stats2, ("server", "mutations_applied"))
    return {
        "write_wall": write_wall,
        "read_wall": read_wall,
        "mismatches": mismatches,
        "keys": stats2.get("keys", 0),
        "write_cpu_per_shard": cpu_delta(stats0, stats1),
        "read_cpu_per_shard": cpu_delta(stats1, stats2),
        "commits_per_shard": commits,
        "acked_per_shard": acked,
    }


def _run_arm(
    shards: int,
    workdir: str,
    experiment: Any,
    cell: Any,
    keys: Sequence[tuple],
    values: dict,
    concurrency: int,
) -> dict[str, Any]:
    """One cluster arm: fork workers, route the workload, drain."""
    from repro.server.router import ShardRouter
    from repro.server.shard import ShardManager

    # Quantile boundaries sampled from the workload itself — the
    # median-cut balancing argument needs the real distribution.
    manager = ShardManager(
        shards,
        dims=experiment.dims,
        widths=_WIDTH,
        page_capacity=cell.page_capacity,
        workdir=workdir,
        sample_keys=keys,
    )
    manager.start()
    try:

        async def drive() -> dict[str, Any]:
            async with ShardRouter(
                manager, max_inflight=concurrency * _PIPELINE_CHUNK
            ) as router:
                return await _drive_arm(
                    router, keys, values, experiment.dims, concurrency
                )

        return asyncio.run(drive())
    finally:
        manager.stop()


def run_sharded_cell(
    cell: Any,
    experiment: Any,
    workdir_factory,
    n: int,
    concurrency: int = DEFAULT_CONCURRENCY,
    shard_arms: Sequence[int] = DEFAULT_SHARD_ARMS,
) -> dict:
    """Measure 1-shard vs N-shard served scaling end to end."""
    inserted, _probes = _split_stream(experiment, n)
    keys = [tuple(key) for key in inserted]
    values = {key: i for i, key in enumerate(keys)}

    arms: dict[int, dict[str, Any]] = {}
    for shards in shard_arms:
        arms[shards] = _run_arm(
            shards,
            workdir_factory(),
            experiment,
            cell,
            keys,
            values,
            concurrency,
        )

    base_arm, scaled_arm = shard_arms[0], shard_arms[-1]
    base, scaled = arms[base_arm], arms[scaled_arm]

    def busiest(arm: Mapping, phase: str) -> float:
        return max(arm[f"{phase}_cpu_per_shard"], default=0.0)

    def scaling(phase: str) -> float:
        top = busiest(base, phase)
        bottom = busiest(scaled, phase)
        return round(top / bottom, 4) if bottom > 0 else 0.0

    commit_ratios = [
        commits / acked
        for commits, acked in zip(
            scaled["commits_per_shard"], scaled["acked_per_shard"]
        )
        if acked > 0
    ]
    mismatches = base["mismatches"] + scaled["mismatches"]
    writes = len(keys)
    reads = writes + 1  # per-key read-back plus one scattered range query
    metrics = {
        "sharded_writes": writes,
        "sharded_write_scaling": scaling("write"),
        "sharded_read_scaling": scaling("read"),
        "sharded_mismatches": mismatches,
        "sharded_commits_per_write_max": round(
            max(commit_ratios, default=0.0), 6
        ),
        "sharded_base_write_cpu": round(busiest(base, "write"), 4),
        "sharded_scaled_write_cpu": round(busiest(scaled, "write"), 4),
        "sharded_base_read_cpu": round(busiest(base, "read"), 4),
        "sharded_scaled_read_cpu": round(busiest(scaled, "read"), 4),
        # Wall-clock ops/s: recorded, never gated (machine noise — on a
        # single-core runner all workers share the one core).
        "sharded_base_write_ops_per_s": round(
            writes / max(base["write_wall"], 1e-9), 1
        ),
        "sharded_scaled_write_ops_per_s": round(
            writes / max(scaled["write_wall"], 1e-9), 1
        ),
        "sharded_base_read_ops_per_s": round(
            reads / max(base["read_wall"], 1e-9), 1
        ),
        "sharded_scaled_read_ops_per_s": round(
            reads / max(scaled["read_wall"], 1e-9), 1
        ),
    }
    return {
        "experiment": cell.experiment,
        "scheme": cell.scheme,
        "b": cell.page_capacity,
        "backend": cell.backend,
        "mode": "sharded",
        "kind": "sharded",
        "n": writes,
        "parallelism": concurrency,
        "shard_arms": list(shard_arms),
        "wall_seconds": round(
            sum(a["write_wall"] + a["read_wall"] for a in arms.values()), 4
        ),
        "arm_wall_seconds": {
            str(shards): round(a["write_wall"] + a["read_wall"], 4)
            for shards, a in arms.items()
        },
        "metrics": metrics,
    }


def sharded_scaling_failures(results: Sequence[Mapping]) -> list[str]:
    """The sharding layer's gated claims.

    For every ``mode == "sharded"`` cell: the busiest-shard CPU speedup
    of the scaled arm must reach :data:`SCALING_FLOOR` for both phases
    (near-linear range-partition scaling; smoke-sized cells below
    :data:`SCALING_FULL_N` keys only have to clear
    :data:`SCALING_SMOKE_FLOOR`), every shard must keep its group
    commit coalesced (< 1 WAL commit per acknowledged write), and
    reads must observe exactly what was acknowledged.
    """
    failures = []
    for result in results:
        if result.get("mode") != "sharded":
            continue
        label = (
            f"{result['experiment']}/{result['scheme']}/b={result['b']}"
            f"/{result['backend']}/sharded"
        )
        m = result["metrics"]
        arms = result.get("shard_arms", DEFAULT_SHARD_ARMS)
        floor = (
            SCALING_FLOOR
            if result.get("n", SCALING_FULL_N) >= SCALING_FULL_N
            else SCALING_SMOKE_FLOOR
        )
        for phase in ("write", "read"):
            value = m.get(f"sharded_{phase}_scaling")
            if value is not None and value < floor:
                failures.append(
                    f"{label}: {phase} critical-path speedup {value}x at "
                    f"{arms[-1]} shards is below the {floor}x "
                    "floor — the partition is not balancing the work"
                )
        ratio = m.get("sharded_commits_per_write_max")
        if ratio is not None and ratio >= 1.0:
            failures.append(
                f"{label}: a shard produced {ratio} WAL commits per "
                "acknowledged write — scatter de-coalesced the "
                "group-commit windows"
            )
        if m.get("sharded_mismatches"):
            failures.append(
                f"{label}: {m['sharded_mismatches']} routed reads "
                "disagreed with acknowledged writes"
            )
    return failures


#: The sharded mode's gates.  The CPU scaling ratios and the per-shard
#: coalescing ratio are scheduling-dependent, so they are never
#: diff-gated — the absolute floors gate them instead.
SHARDED_GATES = Gates(
    absolute=(sharded_scaling_failures,),
    worse_if_higher=("sharded_mismatches",),
)

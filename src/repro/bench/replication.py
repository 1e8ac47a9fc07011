"""The ``replication`` benchmark cell: read fan-out across followers
and MVCC snapshot scans under a write storm.

One cell runs the same seeded served workload through a 1-shard
cluster twice — once with one read replica, once with three (default
arms), each follower a real forked process bootstrapped over the wire
from the primary's checkpoint stream and tailing its committed WAL
batches — and gates the replication layer's three claims:

**Read fan-out scales (CPU basis, not wall clock).**  The router
round-robins idempotent reads across the follower pool, so the hottest
read-serving process of the 3-replica arm must burn ~1/3 the CPU of
the 1-replica arm's sole follower.  As with the sharded cell, wall
clock is machine noise on a time-sliced CI core; the deterministic
quantity is the busiest process's ``time.process_time()`` delta over
the read phase, reported through ``STATS``.  The gate
(:func:`replication_scaling_failures`) requires

    ``scaling = busiest read CPU at 1 replica / busiest at 3 >= 1.8``

at the committed n=2000 scale (smoke-sized cells clear a reduced
floor — fixed per-process overhead stops being negligible there).

**Reads never lie.**  Every acknowledged write reads back with its
acked value through the replica fan-out (after the tails catch up —
replica reads are bounded-lag, not read-your-writes), a ranged oracle
scan matches exactly, and every record surfaced by a snapshot scan
during the storm carries the value it was written with.  Mismatches
gate at zero, absolutely.

**Writers never time a snapshot scan out.**  While ``concurrency``
clients storm the primary with inserts, full-range snapshot scans are
issued directly against the primary (the node taking the storm).  The
MVCC read path pins a version epoch and scans latch-free, so the
``latch_timeouts`` counter across every process must not move — the
write storm cannot starve a scan, and the scan cannot block the write
aggregator.  Gated at zero.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Any, Mapping, Sequence

from repro.bench.harness import Gates, _split_stream
from repro.bench.served import _PIPELINE_CHUNK, _drive_reads, _drive_writes

#: Follower counts for the two arms: baseline and scaled fan-out.
DEFAULT_REPLICA_ARMS = (1, 3)
#: Concurrent router clients (matches the served cell's bar).
DEFAULT_CONCURRENCY = 8
#: Read passes over the key stream (more signal per process-time tick).
READ_ROUNDS = 2
#: Minimum busiest-process read-CPU speedup of the 3-replica arm.
READ_SCALING_FLOOR = 1.8
#: The floor below :data:`READ_SCALING_FULL_N` keys: a smoke cell only
#: proves the fan-out spreads at all; the 1.8x claim is gated at the
#: committed n=2000 scale.
READ_SCALING_SMOKE_FLOOR = 1.1
READ_SCALING_FULL_N = 2000
#: Full-range snapshot scans issued against the primary mid-storm.
STORM_SCANS = 8
#: Pseudo-key bits per dimension (the served/sharded convention).
_WIDTH = 31


async def _replica_cpus(specs: Sequence[Any]) -> list[float]:
    """Each follower's ``process.cpu_seconds``, by direct connection."""
    from repro.server import QueryClient

    cpus: list[float] = []
    for spec in specs:
        client = await QueryClient.connect(
            spec.host, spec.port, negotiate=True
        )
        try:
            stats = await client.stats()
        finally:
            await client.close()
        cpus.append(float(stats["process"]["cpu_seconds"]))
    return cpus


async def _primary_cpu(client: Any) -> tuple[float, int]:
    """The primary worker's CPU seconds and latch-timeout count, read
    through the router's STATS scatter (which prefers the primary)."""
    stats = await client.stats()
    entry = stats["shards"][0]
    return (
        float(entry["process"]["cpu_seconds"]),
        int(entry["server"]["latch_timeouts"]),
    )


async def _wait_caught_up(specs: Sequence[Any], deadline: float = 60.0):
    """Block until every follower reports zero lag twice in a row (a
    single zero can predate the burst: lag is relative to the
    follower's *last-known* primary LSN)."""
    from repro.server import QueryClient

    loop = asyncio.get_running_loop()
    end = loop.time() + deadline
    for spec in specs:
        zeros = 0
        while zeros < 2:
            client = await QueryClient.connect(
                spec.host, spec.port, negotiate=True
            )
            try:
                stats = await client.stats()
            finally:
                await client.close()
            lag = stats["replica"]["lag"]
            zeros = zeros + 1 if lag <= 0 else 0
            if loop.time() > end:
                raise RuntimeError(
                    f"replica {spec.replica} stuck at lag {lag}"
                )
            await asyncio.sleep(0.05)


def _storm_keys(n: int, taken: Mapping, dims: int) -> list[tuple]:
    """``n`` fresh unique keys disjoint from the already-inserted set."""
    rng = random.Random(0x5704)
    keys: list[tuple] = []
    seen = set(taken)
    while len(keys) < n:
        key = tuple(rng.randrange(1 << _WIDTH) for _ in range(dims))
        if key not in seen:
            seen.add(key)
            keys.append(key)
    return keys


async def _storm_with_scans(
    clients: Sequence[Any],
    scan_client: Any,
    storm: Sequence[tuple],
    oracle: dict,
    dims: int,
) -> tuple[int, int]:
    """Insert ``storm`` keys through ``clients`` while ``scan_client``
    (connected straight to the primary) runs full-range snapshot scans.

    Returns ``(scan_count, mismatches)``.  A scanned record whose value
    differs from what was written is a mismatch (a torn or misapplied
    write surfacing through the snapshot), as is a scan that fails to
    cover every pre-storm key.  Latch timeouts are not counted here —
    they surface in the primary's own counter, which the caller diffs.
    """
    storm_set = set(storm)
    pre_storm = {
        key: value
        for key, value in oracle.items()
        if key not in storm_set
    }
    written: dict[tuple, Any] = {}
    shares = [storm[i::len(clients)] for i in range(len(clients))]

    async def one_client(client: Any, share: Sequence) -> None:
        pending = iter(share)

        async def worker() -> None:
            for key in pending:
                value = oracle[key]
                written[key] = value
                await client.insert(key, value)

        await asyncio.gather(*(worker() for _ in range(_PIPELINE_CHUNK)))

    async def scanner() -> tuple[int, int]:
        scans = 0
        wrong = 0
        top = (1 << _WIDTH) - 1
        while scans < STORM_SCANS:
            ranged = await scan_client.range_search(
                tuple(0 for _ in range(dims)),
                tuple(top for _ in range(dims)),
            )
            scans += 1
            got = {tuple(key): value for key, value in ranged}
            if len(got) != len(ranged):
                wrong += 1  # a record surfaced twice
            for key, value in got.items():
                expected = pre_storm.get(key, written.get(key, value))
                if value != expected:
                    wrong += 1
            missing = [key for key in pre_storm if key not in got]
            if missing:
                wrong += 1
            await asyncio.sleep(0)
        return scans, wrong

    results = await asyncio.gather(
        scanner(),
        *(one_client(c, s) for c, s in zip(clients, shares)),
    )
    return results[0]


def _run_arm(
    replica_count: int,
    workdir: str,
    experiment: Any,
    cell: Any,
    keys: Sequence[tuple],
    values: dict,
    storm: Sequence[tuple],
    concurrency: int,
) -> dict[str, Any]:
    """One arm: primary + N followers, write, fan-out reads, storm."""
    from repro.server import QueryClient
    from repro.server.replica import ReplicaManager
    from repro.server.router import ShardRouter
    from repro.server.shard import ShardManager

    manager = ShardManager(
        1,
        dims=experiment.dims,
        widths=_WIDTH,
        page_capacity=cell.page_capacity,
        workdir=workdir,
    )
    manager.start()
    replicas = ReplicaManager(manager, replica_count, poll_interval=0.01)
    replicas.start()
    try:

        async def drive() -> dict[str, Any]:
            async with ShardRouter(
                manager,
                replicas=replicas,
                max_inflight=concurrency * _PIPELINE_CHUNK,
            ) as router:
                host, port = router.address
                specs = replicas.specs_for(0)
                shares = [keys[i::concurrency] for i in range(concurrency)]
                clients = [
                    await QueryClient.connect(host, port, negotiate=True)
                    for _ in range(concurrency)
                ]
                primary_spec = manager.specs[0]
                scan_client = await QueryClient.connect(
                    primary_spec.host, primary_spec.port, negotiate=True
                )
                try:
                    started = time.perf_counter()
                    await _drive_writes(clients, shares, values)
                    write_wall = time.perf_counter() - started
                    await _wait_caught_up(specs)

                    cpu0 = await _replica_cpus(specs)
                    primary_cpu0, timeouts0 = await _primary_cpu(clients[0])
                    started = time.perf_counter()
                    mismatches = 0
                    for _ in range(READ_ROUNDS):
                        mismatches += await _drive_reads(
                            clients, shares, values
                        )
                    read_wall = time.perf_counter() - started
                    cpu1 = await _replica_cpus(specs)
                    primary_cpu1, _ = await _primary_cpu(clients[0])

                    # the ranged oracle: the scatter (served replica-
                    # first) must return exactly the acked state
                    top = (1 << _WIDTH) - 1
                    expected = sorted(
                        [list(key), value] for key, value in values.items()
                    )
                    ranged = await clients[0].range_search(
                        tuple(0 for _ in range(experiment.dims)),
                        tuple(top for _ in range(experiment.dims)),
                    )
                    if (
                        sorted([list(key), value] for key, value in ranged)
                        != expected
                    ):
                        mismatches += 1

                    oracle = dict(values)
                    for i, key in enumerate(storm):
                        oracle[key] = len(values) + i
                    started = time.perf_counter()
                    scans, storm_wrong = await _storm_with_scans(
                        clients, scan_client, storm, oracle,
                        experiment.dims,
                    )
                    storm_wall = time.perf_counter() - started
                    mismatches += storm_wrong
                    _, timeouts1 = await _primary_cpu(clients[0])
                    latch_timeouts = timeouts1 - timeouts0
                    for spec in specs:
                        rc = await QueryClient.connect(
                            spec.host, spec.port, negotiate=True
                        )
                        try:
                            stats = await rc.stats()
                        finally:
                            await rc.close()
                        latch_timeouts += int(
                            stats["server"]["latch_timeouts"]
                        )
                    return {
                        "write_wall": write_wall,
                        "read_wall": read_wall,
                        "storm_wall": storm_wall,
                        "mismatches": mismatches,
                        "scans": scans,
                        "latch_timeouts": latch_timeouts,
                        "read_cpu": [
                            max(a - b, 0.0) for a, b in zip(cpu1, cpu0)
                        ] + [max(primary_cpu1 - primary_cpu0, 0.0)],
                        "replica_reads": router.metrics.replica_reads,
                        "replica_fallbacks": (
                            router.metrics.replica_fallbacks
                        ),
                        "read_retries": router.metrics.read_retries,
                    }
                finally:
                    await scan_client.close()
                    for client in clients:
                        await client.close()

        return asyncio.run(drive())
    finally:
        replicas.stop()
        manager.stop()


def run_replication_cell(
    cell: Any,
    experiment: Any,
    workdir_factory,
    n: int,
    concurrency: int = DEFAULT_CONCURRENCY,
    replica_arms: Sequence[int] = DEFAULT_REPLICA_ARMS,
) -> dict:
    """Measure read fan-out scaling and storm-proof snapshot scans."""
    inserted, _probes = _split_stream(experiment, n)
    keys = [tuple(key) for key in inserted]
    base_values = {key: i for i, key in enumerate(keys)}
    storm = _storm_keys(
        max(64, len(keys) // 4), base_values, experiment.dims
    )

    arms: dict[int, dict[str, Any]] = {}
    for count in replica_arms:
        arms[count] = _run_arm(
            count,
            workdir_factory(),
            experiment,
            cell,
            keys,
            dict(base_values),
            storm,
            concurrency,
        )

    base_arm, scaled_arm = replica_arms[0], replica_arms[-1]
    base, scaled = arms[base_arm], arms[scaled_arm]

    def busiest(arm: Mapping) -> float:
        return max(arm["read_cpu"], default=0.0)

    bottom = busiest(scaled)
    scaling = round(busiest(base) / bottom, 4) if bottom > 0 else 0.0
    reads = len(keys) * READ_ROUNDS + 1
    metrics = {
        "replication_writes": len(keys),
        "replication_read_scaling": scaling,
        "replication_mismatches": (
            base["mismatches"] + scaled["mismatches"]
        ),
        "replication_latch_timeouts": (
            base["latch_timeouts"] + scaled["latch_timeouts"]
        ),
        "replication_storm_scans": base["scans"] + scaled["scans"],
        "replication_storm_writes": len(storm),
        "replication_base_read_cpu": round(busiest(base), 4),
        "replication_scaled_read_cpu": round(busiest(scaled), 4),
        "replication_base_replica_reads": base["replica_reads"],
        "replication_scaled_replica_reads": scaled["replica_reads"],
        "replication_fallbacks": (
            base["replica_fallbacks"] + scaled["replica_fallbacks"]
        ),
        "replication_read_retries": (
            base["read_retries"] + scaled["read_retries"]
        ),
        # Wall clocks: recorded, never gated.
        "replication_base_read_ops_per_s": round(
            reads / max(base["read_wall"], 1e-9), 1
        ),
        "replication_scaled_read_ops_per_s": round(
            reads / max(scaled["read_wall"], 1e-9), 1
        ),
        "replication_storm_seconds": round(
            base["storm_wall"] + scaled["storm_wall"], 4
        ),
    }
    return {
        "experiment": cell.experiment,
        "scheme": cell.scheme,
        "b": cell.page_capacity,
        "backend": cell.backend,
        "mode": "replication",
        "kind": "replication",
        "n": len(keys),
        "parallelism": concurrency,
        "replica_arms": list(replica_arms),
        "wall_seconds": round(
            sum(
                a["write_wall"] + a["read_wall"] + a["storm_wall"]
                for a in arms.values()
            ),
            4,
        ),
        "arm_wall_seconds": {
            str(count): round(
                a["write_wall"] + a["read_wall"] + a["storm_wall"], 4
            )
            for count, a in arms.items()
        },
        "metrics": metrics,
    }


def replication_scaling_failures(results: Sequence[Mapping]) -> list[str]:
    """The replication layer's gated claims — absolute, never diff-gated.

    For every ``mode == "replication"`` cell: the busiest read-serving
    process of the scaled arm must burn :data:`READ_SCALING_FLOOR` less
    CPU than the baseline's (the fan-out claim; smoke cells below
    :data:`READ_SCALING_FULL_N` keys clear
    :data:`READ_SCALING_SMOKE_FLOOR`), reads must observe exactly what
    was acknowledged (zero oracle mismatches, including every snapshot
    scan taken mid-storm), the write storm must not produce a single
    latch timeout on the snapshot scans, and the replicas must actually
    have served reads — a cell that routed everything at the primary
    must not pass its own gate.
    """
    failures = []
    for result in results:
        if result.get("mode") != "replication":
            continue
        label = (
            f"{result['experiment']}/{result['scheme']}/b={result['b']}"
            f"/{result['backend']}/replication"
        )
        m = result["metrics"]
        arms = result.get("replica_arms", DEFAULT_REPLICA_ARMS)
        floor = (
            READ_SCALING_FLOOR
            if result.get("n", READ_SCALING_FULL_N) >= READ_SCALING_FULL_N
            else READ_SCALING_SMOKE_FLOOR
        )
        value = m.get("replication_read_scaling")
        if value is not None and value < floor:
            failures.append(
                f"{label}: read fan-out speedup {value}x from "
                f"{arms[0]} to {arms[-1]} replicas is below the "
                f"{floor}x floor — the router is not spreading reads"
            )
        if m.get("replication_mismatches"):
            failures.append(
                f"{label}: {m['replication_mismatches']} read(s) "
                "disagreed with acknowledged writes across the replica "
                "fan-out or the mid-storm snapshot scans"
            )
        if m.get("replication_latch_timeouts"):
            failures.append(
                f"{label}: {m['replication_latch_timeouts']} latch "
                "timeout(s) under the write storm — snapshot scans "
                "must be latch-free"
            )
        for arm in ("base", "scaled"):
            if not m.get(f"replication_{arm}_replica_reads"):
                failures.append(
                    f"{label}: the {arm} arm served no reads from its "
                    "replicas — the fan-out never engaged"
                )
    return failures


#: The replication mode's gates.  The fan-out scaling ratio is
#: scheduling-dependent and absolute-gated only; the oracle and
#: latch-timeout counts diff for free.
REPLICATION_GATES = Gates(
    absolute=(replication_scaling_failures,),
    worse_if_higher=("replication_mismatches", "replication_latch_timeouts"),
)

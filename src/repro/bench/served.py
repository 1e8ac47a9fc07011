"""The ``served`` benchmark cell: client-visible cost of the query server.

One cell starts a real :class:`~repro.server.server.QueryServer` on an
ephemeral TCP port, connects ``concurrency`` pipelining clients, and
drives the experiment's seeded key stream through the wire protocol:

* **write phase** — the keys are partitioned round-robin across the
  clients, each of which pipelines its share in admission-sized chunks;
  the cell records the WAL commit delta, so ``served_commits_per_write``
  measures exactly what the aggregator claims to amortize: at
  concurrency >= 8 the coalesced windows must produce *strictly fewer*
  than one COMMIT record per acknowledged mutation
  (:func:`served_coalescing_failures`);
* **read phase** — every client reads back its own keys and one client
  runs a full-box range query; any value that differs from what was
  acknowledged counts as a ``served_mismatch``, gated at exactly zero.

Throughput (ops/s) and wall times are recorded but never gated — like
every wall-clock number in this suite they are machine noise; the gated
claims (coalescing ratio, zero mismatches) are behavioural.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Mapping, Sequence

from repro.bench.batched import _wal_commits
from repro.bench.harness import Gates, _split_stream, make_index
from repro.core.facade import MultiKeyFile
from repro.encoding import KeyCodec, UIntEncoder
from repro.storage import PageStore

#: Concurrent client connections (the acceptance criterion's bar is
#: coalescing at concurrency >= 8).
DEFAULT_CONCURRENCY = 8
#: Requests each client keeps in flight (within the server's default
#: per-session pipelining limit).
_PIPELINE_CHUNK = 16


async def _drive_writes(
    clients: Sequence[Any], shares: Sequence[Sequence], values: dict
) -> None:
    """Each client keeps a sliding window of inserts in flight;
    ``values`` records what each key was acknowledged with.

    A window, not chunked gathers: chunking drains the whole pipeline
    at every chunk boundary, so the server sees bursts separated by
    idle gaps and the cell under-measures both throughput and
    coalescing.  Here each of ``_PIPELINE_CHUNK`` workers per client
    always has one request in flight, so the connection's pipeline
    depth stays at the admission limit for the whole arm.
    """

    async def one_client(client: Any, share: Sequence) -> None:
        pending = iter(share)

        async def worker() -> None:
            for key in pending:
                await client.insert(key, values[key])

        await asyncio.gather(*(worker() for _ in range(_PIPELINE_CHUNK)))

    await asyncio.gather(
        *(one_client(c, s) for c, s in zip(clients, shares))
    )


async def _drive_reads(
    clients: Sequence[Any], shares: Sequence[Sequence], values: dict
) -> int:
    """Each client reads back its own keys through the same sliding
    window; returns the mismatch count."""

    async def one_client(client: Any, share: Sequence) -> int:
        pending = iter(share)
        wrong = 0

        async def worker() -> None:
            nonlocal wrong
            for key in pending:
                if await client.search(key) != values[key]:
                    wrong += 1

        await asyncio.gather(*(worker() for _ in range(_PIPELINE_CHUNK)))
        return wrong

    return sum(
        await asyncio.gather(
            *(one_client(c, s) for c, s in zip(clients, shares))
        )
    )


def run_served_cell(
    cell: Any,
    experiment: Any,
    make_store,
    n: int,
    concurrency: int = DEFAULT_CONCURRENCY,
) -> dict:
    """Measure one served cell end to end over real TCP."""
    from repro.server import QueryClient, QueryServer

    inserted, _probes = _split_stream(experiment, n)
    keys = [tuple(key) for key in inserted]
    values = {key: i for i, key in enumerate(keys)}
    shares = [keys[i::concurrency] for i in range(concurrency)]
    store: PageStore = make_store()
    outcome: dict[str, Any] = {}
    try:
        index = make_index(
            cell.scheme, experiment.dims, cell.page_capacity, store=store
        )
        codec = KeyCodec([UIntEncoder(31) for _ in range(experiment.dims)])
        file = MultiKeyFile.from_index(codec, index)

        async def drive() -> None:
            # Admission sized to the offered load: the cell measures
            # coalescing, not backpressure (the stress tests cover that).
            async with QueryServer(
                file,
                max_inflight=concurrency * _PIPELINE_CHUNK,
                session_pipeline=_PIPELINE_CHUNK,
            ) as server:
                host, port = server.address
                clients = [
                    await QueryClient.connect(host, port, negotiate=True)
                    for _ in range(concurrency)
                ]
                try:
                    commits0 = _wal_commits(store) or 0
                    started = time.perf_counter()
                    await _drive_writes(clients, shares, values)
                    write_wall = time.perf_counter() - started
                    commits = (_wal_commits(store) or 0) - commits0

                    started = time.perf_counter()
                    mismatches = await _drive_reads(clients, shares, values)
                    # One served range query over the lower-left quadrant
                    # (a full-box reply would not fit one frame at the
                    # default scale), checked against the oracle subset.
                    half = 1 << 30
                    expected = sorted(
                        [list(key), value]
                        for key, value in values.items()
                        if all(code < half for code in key)
                    )
                    ranged = await clients[0].range_search(
                        tuple(0 for _ in range(experiment.dims)),
                        tuple(half - 1 for _ in range(experiment.dims)),
                        parallelism=2,
                    )
                    read_wall = time.perf_counter() - started
                    if sorted(
                        [list(key), value] for key, value in ranged
                    ) != expected:
                        mismatches += 1
                    stats = await clients[0].stats()
                finally:
                    for client in clients:
                        await client.close()
                outcome["write_wall"] = write_wall
                outcome["read_wall"] = read_wall
                outcome["commits"] = commits
                outcome["mismatches"] = mismatches
                outcome["groups"] = stats["server"]["groups_committed"]
                outcome["largest_group"] = stats["server"]["largest_group"]
                outcome["keys"] = stats["keys"]

        asyncio.run(drive())
        index.check_invariants()
    finally:
        store.close()
    writes = len(keys)
    reads = writes + 1  # the per-key read-back plus one range query
    metrics = {
        "served_writes": writes,
        "served_commits": outcome["commits"],
        "served_commits_per_write": round(
            outcome["commits"] / max(writes, 1), 6
        ),
        "served_mismatches": outcome["mismatches"],
        "served_groups": outcome["groups"],
        "served_largest_group": outcome["largest_group"],
        "served_write_ops_per_s": round(
            writes / max(outcome["write_wall"], 1e-9), 1
        ),
        "served_read_ops_per_s": round(
            reads / max(outcome["read_wall"], 1e-9), 1
        ),
    }
    return {
        "experiment": cell.experiment,
        "scheme": cell.scheme,
        "b": cell.page_capacity,
        "backend": cell.backend,
        "mode": "served",
        "kind": "served",
        "n": writes,
        "parallelism": concurrency,
        "wall_seconds": round(
            outcome["write_wall"] + outcome["read_wall"], 4
        ),
        "arm_wall_seconds": {
            "writes": round(outcome["write_wall"], 4),
            "reads": round(outcome["read_wall"], 4),
        },
        "metrics": metrics,
    }


def served_coalescing_failures(results: Sequence[Mapping]) -> list[str]:
    """The service layer's gated claims.

    For every ``mode == "served"`` cell: on a WAL backend the coalesced
    windows must produce strictly fewer than one COMMIT record per
    acknowledged mutation at concurrency >= 8 (otherwise the aggregator
    is inert and every op pays its own durability flush), and the read
    phase must observe exactly what was acknowledged — zero mismatches.
    """
    failures = []
    for result in results:
        if result.get("mode") != "served":
            continue
        label = (
            f"{result['experiment']}/{result['scheme']}/b={result['b']}"
            f"/{result['backend']}/served"
        )
        m = result["metrics"]
        concurrency = result.get("parallelism", 0)
        ratio = m.get("served_commits_per_write")
        if (
            result["backend"] == "file+wal"
            and concurrency >= 8
            and ratio is not None
            and ratio >= 1.0
        ):
            failures.append(
                f"{label}: {m['served_commits']} WAL commits for "
                f"{m['served_writes']} served mutations "
                f"(ratio {ratio}) — write coalescing is inert"
            )
        if m.get("served_mismatches"):
            failures.append(
                f"{label}: {m['served_mismatches']} served reads "
                "disagreed with acknowledged writes"
            )
    return failures


#: The served mode's gates.  Wall-clock served metrics are never
#: diff-gated; the coalescing ratio is timing-dependent and has its own
#: absolute gate.
SERVED_GATES = Gates(
    absolute=(served_coalescing_failures,),
    worse_if_higher=("served_mismatches",),
)

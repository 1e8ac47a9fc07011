"""Benchmark cells for the batched execution engine.

Two cell kinds beyond the classic per-operation tables:

* **batched** — the amortization claim.  An index is built to scale n,
  then the *same* sorted probe batch is applied two ways on identical
  structures: one-at-a-time (each insert its own operation and, on a WAL
  backend, its own durability flush) and through ``insert_many`` (shared
  prefix descent + one group commit).  The cell records both ledgers'
  deltas; the gate demands the batch cost strictly fewer logical reads
  and — on the WAL backend — exactly one commit record.
* **rangepar** — the parallel-scanner consistency claim.  The same
  query boxes run through the serial ``range_search`` and through
  :func:`~repro.core.rangequery.scan_parallel`; the cell records both
  results' identity, the task fan-out and both wall times.  The gate is
  exact equality — parallelism must be invisible except in wall time.

Both use the same seeded workload streams as the classic cells, so every
number is deterministic.
"""

from __future__ import annotations

import time
from typing import Any, Mapping, Sequence

from repro.bench.harness import Gates, _split_stream, make_index
from repro.core.rangequery import scan_parallel
from repro.storage import PageStore, WALBackend

#: Keys per measured batch (the acceptance criterion's 64-key batch).
DEFAULT_BATCH_SIZE = 64
#: Thread-pool width for the rangepar cells.
DEFAULT_PARALLELISM = 4

#: Query boxes for the rangepar cells, as per-dimension (lo, hi) shares
#: of the 31-bit code domain: a quarter-space box, a thin slab and a
#: near-full box — small, medium and large task fan-outs.
_RANGE_BOXES = (
    (0.25, 0.50),
    (0.40, 0.45),
    (0.05, 0.95),
)


def _wal_commits(store: PageStore) -> int | None:
    backend = store.backend
    if isinstance(backend, WALBackend):
        return backend.checkpoints
    return None


def _build_index(
    cell: Any,
    experiment: Any,
    store: PageStore,
    inserted: Sequence,
):
    """Build the measured structure: scale-n one-at-a-time inserts."""
    index = make_index(
        cell.scheme, experiment.dims, cell.page_capacity, store=store
    )
    for key in inserted:
        index.insert(key, None)
    store.flush()
    return index


def _apply_singles(index, store: PageStore, batch: Sequence) -> None:
    """The op-at-a-time arm: per-insert durability, no shared state."""
    for i, key in enumerate(batch):
        index.insert(key, i)
        store.flush()


def _apply_batched(index, batch: Sequence) -> None:
    """The batched arm: one ``insert_many`` call (its group commit
    flushes at exit, so no extra ``store.flush()`` here)."""
    index.insert_many([(key, i) for i, key in enumerate(batch)])


def run_batched_cell(
    cell: Any,
    experiment: Any,
    make_store,
    n: int,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> dict:
    """Measure one batched-vs-single cell.

    ``make_store`` is a zero-argument store factory — each arm gets a
    fresh, identically-configured store so the two structures are
    byte-equivalent before the measured batch lands.
    """
    inserted, probes = _split_stream(experiment, n)
    if len(probes) < batch_size:
        raise ValueError(
            f"probe pool of {len(probes)} cannot supply a "
            f"{batch_size}-key batch"
        )
    arms: dict[str, dict] = {}
    batch: list | None = None
    for arm in ("single", "batched"):
        store = make_store()
        try:
            index = _build_index(cell, experiment, store, inserted)
            if batch is None:
                # The same sorted batch for both arms: the acceptance
                # criterion measures a *sorted* 64-key batch, and
                # insert_many sorts internally anyway.
                batch = sorted(
                    probes[:batch_size], key=index._zorder_key
                )
            reads0 = store.stats.snapshot()
            backend0 = store.backend_stats.snapshot()
            commits0 = _wal_commits(store)
            started = time.perf_counter()
            if arm == "single":
                _apply_singles(index, store, batch)
            else:
                _apply_batched(index, batch)
            wall = time.perf_counter() - started
            logical = store.stats.delta(reads0)
            physical = store.backend_stats.delta(backend0)
            commits = _wal_commits(store)
            arms[arm] = {
                "logical": logical.as_dict(),
                "physical": physical.as_dict(),
                "wal_commits": (
                    None if commits is None else commits - commits0
                ),
                "wall_seconds": round(wall, 4),
            }
            index.check_invariants()
        finally:
            store.close()
    single, batched = arms["single"], arms["batched"]
    metrics = {
        "single_logical_reads": single["logical"]["reads"],
        "single_logical_writes": single["logical"]["writes"],
        "single_wal_commits": single["wal_commits"],
        "batched_logical_reads": batched["logical"]["reads"],
        "batched_logical_writes": batched["logical"]["writes"],
        "batched_backend_reads": batched["physical"]["reads"],
        "batched_backend_writes": batched["physical"]["writes"],
        "batched_wal_commits": batched["wal_commits"],
        # λ columns: logical reads per batch operation, both arms.
        "lambda_single_op": round(
            single["logical"]["reads"] / batch_size, 4
        ),
        "lambda_batched_op": round(
            batched["logical"]["reads"] / batch_size, 4
        ),
        "read_saving": round(
            1.0
            - batched["logical"]["reads"]
            / max(single["logical"]["reads"], 1),
            4,
        ),
    }
    return {
        "experiment": cell.experiment,
        "scheme": cell.scheme,
        "b": cell.page_capacity,
        "backend": cell.backend,
        "mode": "batched",
        "kind": "batched",
        "n": len(inserted),
        "batch_size": batch_size,
        "wall_seconds": single["wall_seconds"] + batched["wall_seconds"],
        "arm_wall_seconds": {
            "single": single["wall_seconds"],
            "batched": batched["wall_seconds"],
        },
        "metrics": metrics,
    }


def run_parallel_range_cell(
    cell: Any,
    experiment: Any,
    make_store,
    n: int,
    parallelism: int = DEFAULT_PARALLELISM,
) -> dict:
    """Measure one serial-vs-parallel range-scan cell."""
    inserted, _probes = _split_stream(experiment, n)
    store = make_store()
    try:
        index = _build_index(cell, experiment, store, inserted)
        widths = index.widths
        boxes = [
            (
                tuple(int((1 << w) * lo_frac) for w in widths),
                tuple(int((1 << w) * hi_frac) - 1 for w in widths),
            )
            for lo_frac, hi_frac in _RANGE_BOXES
        ]
        tasks_total = 0
        records_total = 0
        mismatches = 0
        serial_logical = 0
        parallel_logical = 0
        serial_wall = 0.0
        parallel_wall = 0.0
        parallel_physical = 0
        for lows, highs in boxes:
            with store.operation():
                tasks_total += sum(
                    1 for _ in index._leaf_tasks(lows, highs)
                )
            snap = store.stats.snapshot()
            started = time.perf_counter()
            serial = list(index.range_search(lows, highs))
            serial_wall += time.perf_counter() - started
            serial_logical += store.stats.delta(snap).reads
            snap = store.stats.snapshot()
            physical0 = store.backend_stats.snapshot()
            started = time.perf_counter()
            parallel = scan_parallel(index, lows, highs, parallelism)
            parallel_wall += time.perf_counter() - started
            parallel_logical += store.stats.delta(snap).reads
            parallel_physical += store.backend_stats.delta(physical0).reads
            records_total += len(serial)
            if parallel != serial:
                mismatches += 1
        metrics = {
            "rangepar_tasks": tasks_total,
            "rangepar_records": records_total,
            "rangepar_mismatches": mismatches,
            "serial_logical_reads": serial_logical,
            "parallel_logical_reads": parallel_logical,
            "parallel_backend_reads": parallel_physical,
        }
        return {
            "experiment": cell.experiment,
            "scheme": cell.scheme,
            "b": cell.page_capacity,
            "backend": cell.backend,
            "mode": "rangepar",
            "kind": "rangepar",
            "n": len(inserted),
            "parallelism": parallelism,
            "wall_seconds": round(serial_wall + parallel_wall, 4),
            "arm_wall_seconds": {
                "serial": round(serial_wall, 4),
                "parallel": round(parallel_wall, 4),
            },
            "metrics": metrics,
        }
    finally:
        store.close()


#: Amortization bar for the multi-level tree schemes: a sorted batch must
#: save at least 30% of the one-at-a-time logical reads (shared-prefix
#: descent skips most directory re-reads).  The one-level MDEH directory
#: has less prefix to share — its bar is *strictly fewer*.
_TREE_AMORTIZE_FRACTION = 0.7
_TREE_SCHEMES = ("BMEHTree", "MEHTree")


def batched_efficiency_failures(results: Sequence[Mapping]) -> list[str]:
    """The batched executor must amortize, and group commit must group.

    For every ``mode == "batched"`` cell: the batch must cost strictly
    fewer logical reads than op-at-a-time — at most 70% for the tree
    schemes, whose shared-prefix descent carries the acceptance
    criterion's ≥ 30% saving — never more logical writes, and on a WAL
    backend exactly one commit record against one-per-op singles.
    """
    failures = []
    for result in results:
        if result.get("mode") != "batched":
            continue
        label = (
            f"{result['experiment']}/{result['scheme']}/b={result['b']}"
            f"/{result['backend']}/batched"
        )
        m = result["metrics"]
        single_reads = m["single_logical_reads"]
        batched_reads = m["batched_logical_reads"]
        if result["scheme"] in _TREE_SCHEMES:
            if batched_reads > _TREE_AMORTIZE_FRACTION * single_reads:
                failures.append(
                    f"{label}: batched logical reads {batched_reads} exceed "
                    f"70% of the {single_reads} one-at-a-time reads — the "
                    "shared-prefix descent is not amortizing"
                )
        elif batched_reads >= single_reads:
            failures.append(
                f"{label}: batched logical reads {batched_reads} are not "
                f"strictly fewer than the {single_reads} one-at-a-time "
                "reads — the held-page optimization is inert"
            )
        if m["batched_logical_writes"] > m["single_logical_writes"]:
            failures.append(
                f"{label}: batched logical writes "
                f"{m['batched_logical_writes']} exceed the "
                f"{m['single_logical_writes']} one-at-a-time writes"
            )
        commits = m.get("batched_wal_commits")
        if commits is not None:
            if commits != 1:
                failures.append(
                    f"{label}: the batch produced {commits} WAL commit "
                    "records, group commit demands exactly 1"
                )
            single_commits = m.get("single_wal_commits") or 0
            batch_size = result.get("batch_size", 0)
            if single_commits < batch_size:
                failures.append(
                    f"{label}: singles produced {single_commits} WAL "
                    f"commits for {batch_size} ops — the per-op arm is "
                    "not flushing per operation"
                )
    return failures


def parallel_consistency_failures(results: Sequence[Mapping]) -> list[str]:
    """The parallel scanner must be invisible except in wall time:
    identical records (in order) and identical logical charges."""
    failures = []
    for result in results:
        if result.get("mode") != "rangepar":
            continue
        label = (
            f"{result['experiment']}/{result['scheme']}/b={result['b']}"
            f"/{result['backend']}/rangepar"
        )
        m = result["metrics"]
        if m["rangepar_mismatches"]:
            failures.append(
                f"{label}: {m['rangepar_mismatches']} query boxes "
                "returned different records under the parallel scanner"
            )
        if m["parallel_logical_reads"] != m["serial_logical_reads"]:
            failures.append(
                f"{label}: parallel scan charged "
                f"{m['parallel_logical_reads']} logical reads, serial "
                f"charged {m['serial_logical_reads']} — the decomposition "
                "must preserve the paper's accounting"
            )
    return failures


#: The batched mode's gates: the batch's logical/physical traffic and
#: WAL commits never grow, the batched saving never shrinks.
BATCHED_GATES = Gates(
    absolute=(batched_efficiency_failures,),
    worse_if_higher=(
        "single_logical_reads",
        "single_logical_writes",
        "batched_logical_reads",
        "batched_logical_writes",
        "batched_backend_reads",
        "batched_backend_writes",
        "batched_wal_commits",
        "lambda_single_op",
        "lambda_batched_op",
    ),
    worse_if_lower=("read_saving",),
)

#: The rangepar mode's gates: the parallel scan's charges never grow
#: and it never returns fewer records.
RANGEPAR_GATES = Gates(
    absolute=(parallel_consistency_failures,),
    worse_if_higher=(
        "serial_logical_reads",
        "parallel_logical_reads",
        "parallel_backend_reads",
        "rangepar_mismatches",
    ),
    worse_if_lower=("rangepar_records",),
)

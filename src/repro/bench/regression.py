"""Benchmark baselines and the regression gate behind ``repro bench``.

One *cell* is a fully-specified measurement: (experiment, scheme, b,
backend).  Backends cover the storage configurations the paper's model
assumes and the ones this library adds:

* ``memory``     — :class:`MemoryBackend`, the paper's simulator setting;
* ``file``       — :class:`FileBackend`, every access encodes/decodes a
  byte image;
* ``file+pool``  — :class:`FileBackend` behind a write-back
  :class:`BufferPool`: the buffer-managed fast path;
* ``file+wal``   — :class:`WALBackend` around the page file: the
  crash-safe path, measuring the durability tax in physical I/O.

The ``file+wal`` cell is doubly gated: its physical traffic is bounded
like any other cell, and its *logical* metrics must be byte-identical to
the plain ``file`` cell — the WAL must be transparent to the paper's
accounting (:func:`wal_transparency_failures`).

Each cell records the paper's measures (λ, λ′, ρ, α, σ), both I/O
ledgers (logical accesses under the paper's accounting and physical
backend calls), the pool hit rate, the λ′ probe mix, and wall time.
``write_baseline`` persists the results as ``BENCH_<label>.json``;
``compare_with_baseline`` re-runs a baseline's cells at its recorded
scale and flags regressions beyond a relative tolerance.  Wall time is
reported but never gated — it is machine noise; the gated metrics are
deterministic given the seeded workloads.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import time
from typing import Mapping, Sequence

from repro.bench.harness import (
    FIGURE_EXPERIMENTS,
    TABLE_EXPERIMENTS,
    Gates,
    _split_stream,
    experiment_scale,
    make_index,
)
from repro.analysis.metrics import measure_run
from repro.bench.batched import (
    BATCHED_GATES,
    RANGEPAR_GATES,
    run_batched_cell,
    run_parallel_range_cell,
)
from repro.bench.served import SERVED_GATES, run_served_cell
from repro.bench.sharded import SHARDED_GATES, run_sharded_cell
from repro.bench.migration import MIGRATION_GATES, run_migration_cell
from repro.bench.replication import REPLICATION_GATES, run_replication_cell
from repro.storage import BufferPool, FileBackend, PageStore, WALBackend

BASELINE_VERSION = 1
BACKENDS = ("memory", "file", "file+pool", "file+wal")


@dataclasses.dataclass(frozen=True)
class BenchCell:
    """One benchmark configuration.

    ``mode`` selects the measurement protocol: ``single`` is the classic
    op-at-a-time table/figure cell; ``batched`` measures the same
    workload's probe batch through ``insert_many`` against op-at-a-time
    singles; ``rangepar`` measures the parallel range scanner against the
    serial one.
    """

    experiment: str
    scheme: str
    page_capacity: int = 8
    backend: str = "memory"
    mode: str = "single"

    @property
    def kind(self) -> str:
        if self.mode != "single":
            return self.mode
        return "figure" if self.experiment in FIGURE_EXPERIMENTS else "table"

    @property
    def label(self) -> str:
        base = (
            f"{self.experiment}/{self.scheme}/"
            f"b={self.page_capacity}/{self.backend}"
        )
        return base if self.mode == "single" else f"{base}/{self.mode}"


#: The committed-baseline suite: the paper's table2 workload across all
#: three schemes, plus the same workload driven through the byte backend
#: with and without the buffer pool (the pool's physical-I/O win is a
#: gated claim), plus one growth curve ending at the terminal checkpoint.
DEFAULT_CELLS = (
    BenchCell("table2", "MDEH"),
    BenchCell("table2", "MEHTree"),
    BenchCell("table2", "BMEHTree"),
    BenchCell("table2", "BMEHTree", backend="file"),
    BenchCell("table2", "BMEHTree", backend="file+pool"),
    BenchCell("table2", "BMEHTree", backend="file+wal"),
    BenchCell("fig6", "BMEHTree"),
    # The batched execution engine's gated claims: shared-prefix descent
    # amortization (memory + MDEH), group commit on the WAL backend, and
    # parallel-scan consistency over the buffer-managed file.
    BenchCell("table2", "BMEHTree", mode="batched"),
    BenchCell("table2", "BMEHTree", backend="file+wal", mode="batched"),
    BenchCell("table2", "MDEH", mode="batched"),
    BenchCell("table2", "BMEHTree", backend="file+pool", mode="rangepar"),
    # The service layer's gated claim: N concurrent clients' mutations
    # coalesce into strictly fewer than one WAL commit per write.
    BenchCell("table2", "BMEHTree", backend="file+wal", mode="served"),
    # The sharding layer's gated claim: the busiest shard of a 4-shard
    # cluster burns >= 2.5x less CPU than the single shard, with every
    # shard's group commit still coalescing.
    BenchCell("table2", "BMEHTree", backend="file+wal", mode="sharded"),
    # The rebalance layer's gated claim: an online split + merge under
    # live concurrent writers loses zero acked writes.
    BenchCell("table2", "BMEHTree", backend="file+wal", mode="migration"),
    # The replication layer's gated claims: reads fan out across
    # followers (>= 1.8x busiest-process CPU from 1 to 3 replicas at
    # full scale), every read matches its acked write, and a write
    # storm cannot latch-time-out an MVCC snapshot scan.
    BenchCell("table2", "BMEHTree", backend="file+wal", mode="replication"),
)


def _experiment(name: str):
    try:
        return {**TABLE_EXPERIMENTS, **FIGURE_EXPERIMENTS}[name]
    except KeyError:
        raise ValueError(f"unknown experiment {name!r}") from None


def _make_store(
    backend: str, workdir: str, page_size: int, pool_capacity: int
) -> PageStore:
    if backend == "memory":
        return PageStore()
    path = os.path.join(workdir, "bench_pages.db")
    if backend == "file":
        return PageStore(FileBackend(path, page_size=page_size))
    if backend == "file+pool":
        return PageStore(
            FileBackend(path, page_size=page_size),
            pool=BufferPool(pool_capacity),
        )
    if backend == "file+wal":
        # The crash-safe path runs behind the pool too: group commit
        # flushes buffered write-backs before the COMMIT record, so
        # durability is unchanged while reads stop paying a decode per
        # access.  Logical metrics stay byte-identical to plain "file"
        # (the WAL-transparency gate), only the physical ledger shrinks.
        return PageStore(
            WALBackend(path, page_size=page_size, checkpoint_every=1024),
            pool=BufferPool(pool_capacity),
        )
    raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")


def run_cell(
    cell: BenchCell,
    n: int | None = None,
    pool_capacity: int = 256,
    page_size: int = 8192,
    growth_checkpoints: int = 16,
    batch_size: int | None = None,
    parallelism: int | None = None,
) -> dict:
    """Measure one cell; returns a JSON-ready result record."""
    experiment = _experiment(cell.experiment)
    n = n or experiment_scale()
    if cell.mode != "single":
        from repro.bench.batched import (
            DEFAULT_BATCH_SIZE,
            DEFAULT_PARALLELISM,
        )
        from repro.bench.served import DEFAULT_CONCURRENCY

        with tempfile.TemporaryDirectory(prefix="repro-bench-") as workdir:
            counter = iter(range(1_000_000))

            def make_store() -> PageStore:
                # Fresh subdirectory per store: the batched cell builds
                # two identically-configured structures in one workdir.
                sub = os.path.join(workdir, f"arm{next(counter)}")
                os.makedirs(sub, exist_ok=True)
                return _make_store(cell.backend, sub, page_size, pool_capacity)

            def make_workdir() -> str:
                # Fresh cluster directory per arm: each shard worker
                # puts its own WAL under it.
                sub = os.path.join(workdir, f"cluster{next(counter)}")
                os.makedirs(sub, exist_ok=True)
                return sub

            if cell.mode == "batched":
                return run_batched_cell(
                    cell,
                    experiment,
                    make_store,
                    n,
                    batch_size=batch_size or DEFAULT_BATCH_SIZE,
                )
            if cell.mode == "rangepar":
                return run_parallel_range_cell(
                    cell,
                    experiment,
                    make_store,
                    n,
                    parallelism=parallelism or DEFAULT_PARALLELISM,
                )
            if cell.mode == "served":
                return run_served_cell(
                    cell,
                    experiment,
                    make_store,
                    n,
                    concurrency=parallelism or DEFAULT_CONCURRENCY,
                )
            if cell.mode == "sharded":
                return run_sharded_cell(
                    cell,
                    experiment,
                    make_workdir,
                    n,
                    concurrency=parallelism or DEFAULT_CONCURRENCY,
                )
            if cell.mode == "migration":
                return run_migration_cell(
                    cell,
                    experiment,
                    make_workdir,
                    n,
                    concurrency=parallelism or DEFAULT_CONCURRENCY,
                )
            if cell.mode == "replication":
                return run_replication_cell(
                    cell,
                    experiment,
                    make_workdir,
                    n,
                    concurrency=parallelism or DEFAULT_CONCURRENCY,
                )
            raise ValueError(
                f"unknown bench mode {cell.mode!r}; choose from {MODES}"
            )
    inserted, probes = _split_stream(experiment, n)
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as workdir:
        store = _make_store(cell.backend, workdir, page_size, pool_capacity)
        try:
            index = make_index(
                cell.scheme, experiment.dims, cell.page_capacity, store=store
            )
            started = time.perf_counter()
            metrics, series = measure_run(
                index,
                inserted,
                growth_checkpoints=(
                    growth_checkpoints if cell.kind == "figure" else 0
                ),
                absent_candidates=probes,
            )
            # Push buffered write-backs out so the physical ledger covers
            # the full cost of persisting the run.
            store.flush()
            wall_seconds = time.perf_counter() - started
            pool = store.pool
            result = {
                "experiment": cell.experiment,
                "scheme": cell.scheme,
                "b": cell.page_capacity,
                "backend": cell.backend,
                "mode": cell.mode,
                "kind": cell.kind,
                "n": len(inserted),
                "wall_seconds": round(wall_seconds, 4),
                "probe_mix": metrics.extra.get("absent_probe_mix", {}),
                "metrics": {
                    "lambda": metrics.successful_search_reads,
                    "lambda_prime": metrics.unsuccessful_search_reads,
                    "rho": metrics.insertion_accesses,
                    "alpha": metrics.load_factor,
                    "sigma": metrics.directory_size,
                    "data_pages": metrics.data_pages,
                    "logical_reads": store.stats.reads,
                    "logical_writes": store.stats.writes,
                    "backend_reads": store.backend_stats.reads,
                    "backend_writes": store.backend_stats.writes,
                    "hit_rate": round(pool.hit_rate, 6) if pool else None,
                },
            }
            if cell.kind == "figure":
                result["series"] = {
                    "checkpoints": series.checkpoints,
                    "sigma": series.directory_sizes,
                }
            return result
        finally:
            store.close()


def run_cells(
    cells: Sequence[BenchCell],
    n: int | None = None,
    pool_capacity: int = 256,
    page_size: int = 8192,
    progress=None,
    batch_size: int | None = None,
    parallelism: int | None = None,
) -> list[dict]:
    """Measure every cell (``progress`` is called with each label)."""
    results = []
    for cell in cells:
        if progress is not None:
            progress(cell.label)
        results.append(
            run_cell(
                cell,
                n=n,
                pool_capacity=pool_capacity,
                page_size=page_size,
                batch_size=batch_size,
                parallelism=parallelism,
            )
        )
    return results


def pool_efficiency_failures(results: Sequence[Mapping]) -> list[str]:
    """The buffer-managed fast path must beat the raw byte backend.

    For every (experiment, scheme, b) measured under both ``file`` and
    ``file+pool``, the pooled run must make *strictly fewer* physical
    backend calls; equal-or-more means the pool is incoherent or inert.
    """
    by_key: dict[tuple, dict[str, Mapping]] = {}
    for result in results:
        if result.get("mode", "single") != "single":
            continue  # batched/rangepar cells have their own gates
        key = (result["experiment"], result["scheme"], result["b"])
        by_key.setdefault(key, {})[result["backend"]] = result
    failures = []
    for key, variants in by_key.items():
        if "file" not in variants or "file+pool" not in variants:
            continue
        raw = variants["file"]["metrics"]
        pooled = variants["file+pool"]["metrics"]
        raw_io = raw["backend_reads"] + raw["backend_writes"]
        pooled_io = pooled["backend_reads"] + pooled["backend_writes"]
        if pooled_io >= raw_io:
            failures.append(
                f"{'/'.join(map(str, key))}: file+pool made {pooled_io} "
                f"backend calls, file alone made {raw_io} — the pool "
                "shows no physical I/O win"
            )
    return failures


def wal_transparency_failures(results: Sequence[Mapping]) -> list[str]:
    """The WAL must be invisible to the paper's accounting.

    For every (experiment, scheme, b) measured under both ``file`` and
    ``file+wal``, every *logical* metric — λ, λ′, ρ, α, σ, logical
    reads/writes — must be byte-identical: durability changes where the
    bytes land, never how many pages the algorithms touch.  Any drift
    means the WAL wrapper leaked into index behaviour.
    """
    logical = (
        "lambda",
        "lambda_prime",
        "rho",
        "alpha",
        "sigma",
        "data_pages",
        "logical_reads",
        "logical_writes",
    )
    by_key: dict[tuple, dict[str, Mapping]] = {}
    for result in results:
        if result.get("mode", "single") != "single":
            continue  # batched/rangepar cells have their own gates
        key = (result["experiment"], result["scheme"], result["b"])
        by_key.setdefault(key, {})[result["backend"]] = result
    failures = []
    for key, variants in by_key.items():
        if "file" not in variants or "file+wal" not in variants:
            continue
        raw = variants["file"]["metrics"]
        walled = variants["file+wal"]["metrics"]
        for name in logical:
            if raw.get(name) != walled.get(name):
                failures.append(
                    f"{'/'.join(map(str, key))}: logical metric {name} "
                    f"differs under WAL ({raw.get(name)} vs "
                    f"{walled.get(name)}) — the WAL must be transparent "
                    "to the paper's accounting"
                )
    return failures


#: The single mode's gates: the paper's measures and both I/O ledgers
#: never grow, load factor and pool hit rate never shrink; the pool
#: must beat the raw file and the WAL must stay transparent.
SINGLE_GATES = Gates(
    absolute=(pool_efficiency_failures, wal_transparency_failures),
    worse_if_higher=(
        "lambda",
        "lambda_prime",
        "rho",
        "sigma",
        "logical_reads",
        "logical_writes",
        "backend_reads",
        "backend_writes",
    ),
    worse_if_lower=("alpha", "hit_rate"),
)

#: Every bench mode's gates, each declared beside its runner.
GATES: dict[str, Gates] = {
    "single": SINGLE_GATES,
    "batched": BATCHED_GATES,
    "rangepar": RANGEPAR_GATES,
    "served": SERVED_GATES,
    "sharded": SHARDED_GATES,
    "migration": MIGRATION_GATES,
    "replication": REPLICATION_GATES,
}
MODES = tuple(GATES)


def gate_failures(results: Sequence[Mapping]) -> list[str]:
    """Every mode's absolute gates over one run's results — a fresh
    run and a ``--compare`` re-run hold the same checks."""
    return [
        failure
        for gates in GATES.values()
        for check in gates.absolute
        for failure in check(results)
    ]


def write_baseline(
    path: str,
    results: Sequence[Mapping],
    n: int,
    pool_capacity: int = 256,
    page_size: int = 8192,
) -> None:
    """Persist a bench run as a ``BENCH_*.json`` baseline."""
    payload = {
        "version": BASELINE_VERSION,
        "n": n,
        "pool_capacity": pool_capacity,
        "page_size": page_size,
        "results": list(results),
    }
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as out:
        json.dump(payload, out, indent=1, sort_keys=True)
        out.write("\n")


def load_baseline(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as inp:
        payload = json.load(inp)
    if payload.get("version") != BASELINE_VERSION:
        raise ValueError(
            f"{path}: unsupported baseline version {payload.get('version')!r}"
        )
    return payload


def _cell_of(result: Mapping) -> BenchCell:
    return BenchCell(
        experiment=result["experiment"],
        scheme=result["scheme"],
        page_capacity=result["b"],
        backend=result["backend"],
        mode=result.get("mode", "single"),
    )


def _metric_failures(
    label: str,
    gates: Gates,
    base: Mapping,
    current: Mapping,
    tolerance: float,
) -> list[str]:
    """The diff gate: every gated metric that moved in its worse
    direction by more than ``tolerance`` (relative)."""
    failures = []
    for name in gates.worse_if_higher:
        old, new = base.get(name), current.get(name)
        if old is None or new is None:
            continue
        if new > (old * (1.0 + tolerance) if old else tolerance):
            failures.append(
                f"{label}: {name} regressed {old} -> {new} "
                f"(+{_relative(old, new):.1%}, tolerance "
                f"{tolerance:.1%})"
            )
    for name in gates.worse_if_lower:
        old, new = base.get(name), current.get(name)
        if old is None or new is None:
            continue
        if new < old * (1.0 - tolerance):
            failures.append(
                f"{label}: {name} regressed {old} -> {new} "
                f"(-{_relative(old, new):.1%}, tolerance "
                f"{tolerance:.1%})"
            )
    return failures


def _relative(base: float, current: float) -> float:
    return abs(current - base) / base if base else float("inf")


def compare_with_baseline(
    baseline: Mapping,
    tolerance: float = 0.05,
    progress=None,
) -> tuple[list[str], list[dict]]:
    """Re-run a baseline's cells at its recorded scale and diff.

    Returns ``(failures, current_results)``.  A failure is a metric its
    mode's :class:`~repro.bench.harness.Gates` diff-gate moved in its
    *worse* direction by more than ``tolerance`` (relative), a growth
    series that no longer ends at the terminal ``(n, σ)`` point, or any
    mode's absolute gate (:func:`gate_failures`).  Improvements never
    fail the gate.
    """
    failures: list[str] = []
    current_results: list[dict] = []
    for base in baseline["results"]:
        cell = _cell_of(base)
        if progress is not None:
            progress(cell.label)
        current = run_cell(
            cell,
            n=base["n"],
            pool_capacity=baseline.get("pool_capacity", 256),
            page_size=baseline.get("page_size", 8192),
            batch_size=base.get("batch_size"),
            parallelism=base.get("parallelism"),
        )
        current_results.append(current)
        failures.extend(
            _metric_failures(
                cell.label,
                GATES[cell.mode],
                base["metrics"],
                current["metrics"],
                tolerance,
            )
        )
        base_series = base.get("series")
        if base_series:
            series = current.get("series", {})
            checkpoints = series.get("checkpoints", [])
            if not checkpoints or checkpoints[-1] != base["n"]:
                failures.append(
                    f"{cell.label}: growth series ends at "
                    f"{checkpoints[-1] if checkpoints else 'nothing'}, "
                    f"must end at the terminal checkpoint n={base['n']}"
                )
            terminal = series.get("sigma", [0])[-1]
            base_terminal = base_series["sigma"][-1]
            if base_terminal and terminal > base_terminal * (1 + tolerance):
                failures.append(
                    f"{cell.label}: terminal σ regressed "
                    f"{base_terminal} -> {terminal}"
                )
    failures.extend(gate_failures(current_results))
    return failures, current_results


def binary_speedup_failures(
    results: Sequence[Mapping],
    reference: Mapping,
    min_ratio: float = 5.0,
) -> list[str]:
    """The binary fast path's headline gate.

    Every served cell present in both the current run and the
    ``reference`` baseline (matched on cell + ``n``) must beat the
    reference throughput by ``min_ratio`` in *both* directions — acked
    writes and verifying reads.  The reference is a frozen pre-binary
    baseline (``BENCH_pr5.json``: JSON payloads, pickle-framed pages),
    so unlike the ±tolerance diff gate this is an absolute claim about
    the struct codecs + v3 payloads + hot-loop work, not "no worse
    than yesterday".  Matching no cell at all is itself a failure — a
    renamed cell must not silently disable the gate.
    """
    by_cell = {
        (_cell_of(base).label, base["n"]): base
        for base in reference["results"]
        if base.get("mode") == "served"
    }
    failures: list[str] = []
    matched = False
    for result in results:
        if result.get("mode") != "served":
            continue
        base = by_cell.get((_cell_of(result).label, result["n"]))
        if base is None:
            continue
        matched = True
        label = f"{_cell_of(result).label}/n={result['n']}"
        for name in ("served_write_ops_per_s", "served_read_ops_per_s"):
            old = base["metrics"].get(name)
            new = result["metrics"].get(name)
            if not old or new is None:
                continue
            if new < min_ratio * old:
                failures.append(
                    f"{label}: {name} {new} is only {new / old:.2f}x the "
                    f"pre-binary baseline's {old} — the binary fast path "
                    f"must hold >= {min_ratio}x"
                )
    if not matched:
        failures.append(
            "binary speedup gate matched no served cell between the "
            "current run and the reference baseline"
        )
    return failures


def format_results(results: Sequence[Mapping]) -> str:
    """Render bench cells as aligned summary tables (one per mode)."""
    singles = [r for r in results if r.get("mode", "single") == "single"]
    batched = [r for r in results if r.get("mode") == "batched"]
    rangepar = [r for r in results if r.get("mode") == "rangepar"]
    served = [r for r in results if r.get("mode") == "served"]
    sharded = [r for r in results if r.get("mode") == "sharded"]
    migration = [r for r in results if r.get("mode") == "migration"]
    replication = [r for r in results if r.get("mode") == "replication"]
    sections: list[str] = []
    if singles:
        header = (
            f"{'cell':<38}{'λ':>7}{'λ′':>7}{'ρ':>8}{'σ':>9}"
            f"{'log R/W':>14}{'phys R/W':>14}{'hit':>7}{'wall s':>9}"
        )
        lines = [header, "-" * len(header)]
        for result in singles:
            m = result["metrics"]
            label = (
                f"{result['experiment']}/{result['scheme']}"
                f"/b={result['b']}/{result['backend']}"
            )
            hit = (
                f"{m['hit_rate']:.1%}" if m["hit_rate"] is not None else "--"
            )
            lines.append(
                f"{label:<38}"
                f"{m['lambda']:>7.3f}{m['lambda_prime']:>7.3f}{m['rho']:>8.3f}"
                f"{m['sigma']:>9d}"
                f"{m['logical_reads']:>7d}/{m['logical_writes']:<6d}"
                f"{m['backend_reads']:>7d}/{m['backend_writes']:<6d}"
                f"{hit:>7}{result['wall_seconds']:>9.3f}"
            )
        sections.append("\n".join(lines))
    if batched:
        header = (
            f"{'batched cell':<44}{'λ 1-at-a-time':>14}{'λ batched':>11}"
            f"{'saving':>8}{'commits 1/b':>13}{'phys R/W':>12}"
        )
        lines = [header, "-" * len(header)]
        for result in batched:
            m = result["metrics"]
            label = (
                f"{result['experiment']}/{result['scheme']}"
                f"/b={result['b']}/{result['backend']}"
                f"/batch={result['batch_size']}"
            )
            commits = (
                f"{m['single_wal_commits']}/{m['batched_wal_commits']}"
                if m["batched_wal_commits"] is not None
                else "--"
            )
            lines.append(
                f"{label:<44}"
                f"{m['lambda_single_op']:>14.3f}"
                f"{m['lambda_batched_op']:>11.3f}"
                f"{m['read_saving']:>8.1%}"
                f"{commits:>13}"
                f"{m['batched_backend_reads']:>6d}/"
                f"{m['batched_backend_writes']:<5d}"
            )
        sections.append("\n".join(lines))
    if rangepar:
        header = (
            f"{'parallel-range cell':<44}{'tasks':>7}{'records':>9}"
            f"{'log serial/par':>16}{'phys R':>8}{'match':>7}"
            f"{'wall s/p':>14}"
        )
        lines = [header, "-" * len(header)]
        for result in rangepar:
            m = result["metrics"]
            label = (
                f"{result['experiment']}/{result['scheme']}"
                f"/b={result['b']}/{result['backend']}"
                f"/p={result['parallelism']}"
            )
            walls = result["arm_wall_seconds"]
            lines.append(
                f"{label:<44}"
                f"{m['rangepar_tasks']:>7d}{m['rangepar_records']:>9d}"
                f"{m['serial_logical_reads']:>8d}/"
                f"{m['parallel_logical_reads']:<7d}"
                f"{m['parallel_backend_reads']:>8d}"
                f"{'yes' if not m['rangepar_mismatches'] else 'NO':>7}"
                f"{walls['serial']:>7.3f}/{walls['parallel']:<6.3f}"
            )
        sections.append("\n".join(lines))
    if served:
        header = (
            f"{'served cell':<44}{'writes':>8}{'commits':>9}"
            f"{'ratio':>9}{'wr/s':>9}{'rd/s':>9}{'match':>7}"
        )
        lines = [header, "-" * len(header)]
        for result in served:
            m = result["metrics"]
            label = (
                f"{result['experiment']}/{result['scheme']}"
                f"/b={result['b']}/{result['backend']}"
                f"/c={result['parallelism']}"
            )
            commits = m["served_commits"]
            lines.append(
                f"{label:<44}"
                f"{m['served_writes']:>8d}"
                f"{commits if commits is not None else '--':>9}"
                f"{m['served_commits_per_write']:>9.4f}"
                f"{m['served_write_ops_per_s']:>9.0f}"
                f"{m['served_read_ops_per_s']:>9.0f}"
                f"{'yes' if not m['served_mismatches'] else 'NO':>7}"
            )
        sections.append("\n".join(lines))
    if sharded:
        header = (
            f"{'sharded cell':<44}{'writes':>8}{'wr ×':>7}{'rd ×':>7}"
            f"{'commit/wr':>11}{'wr/s 1→N':>15}{'match':>7}"
        )
        lines = [header, "-" * len(header)]
        for result in sharded:
            m = result["metrics"]
            arms = result.get("shard_arms", [1, 4])
            label = (
                f"{result['experiment']}/{result['scheme']}"
                f"/b={result['b']}/{result['backend']}"
                f"/shards={arms[0]}v{arms[-1]}"
            )
            lines.append(
                f"{label:<44}"
                f"{m['sharded_writes']:>8d}"
                f"{m['sharded_write_scaling']:>7.2f}"
                f"{m['sharded_read_scaling']:>7.2f}"
                f"{m['sharded_commits_per_write_max']:>11.4f}"
                f"{m['sharded_base_write_ops_per_s']:>7.0f}→"
                f"{m['sharded_scaled_write_ops_per_s']:<7.0f}"
                f"{'yes' if not m['sharded_mismatches'] else 'NO':>7}"
            )
        sections.append("\n".join(lines))
    if migration:
        header = (
            f"{'migration cell':<44}{'writes':>8}{'moved':>8}{'loss':>6}"
            f"{'stale→retry':>13}{'split/merge s':>15}{'epochs':>8}"
        )
        lines = [header, "-" * len(header)]
        for result in migration:
            m = result["metrics"]
            label = (
                f"{result['experiment']}/{result['scheme']}"
                f"/b={result['b']}/{result['backend']}"
                f"/c={result['parallelism']}"
            )
            lines.append(
                f"{label:<44}"
                f"{m['migration_writes']:>8d}"
                f"{m['migration_moved_keys']:>8d}"
                f"{m['migration_loss']:>6d}"
                f"{m['migration_stale_retries']:>13d}"
                f"{m['migration_split_seconds']:>7.3f}/"
                f"{m['migration_merge_seconds']:<7.3f}"
                f"{m['migration_epoch_bumps']:>8d}"
            )
        sections.append("\n".join(lines))
    if replication:
        header = (
            f"{'replication cell':<44}{'writes':>8}{'scaling':>9}"
            f"{'miss':>6}{'latch-TO':>10}{'repl reads 1/3':>16}"
            f"{'scans':>7}"
        )
        lines = [header, "-" * len(header)]
        for result in replication:
            m = result["metrics"]
            label = (
                f"{result['experiment']}/{result['scheme']}"
                f"/b={result['b']}/{result['backend']}"
                f"/c={result['parallelism']}"
            )
            fanout = (
                f"{m['replication_base_replica_reads']}/"
                f"{m['replication_scaled_replica_reads']}"
            )
            lines.append(
                f"{label:<44}"
                f"{m['replication_writes']:>8d}"
                f"{m['replication_read_scaling']:>8.2f}x"
                f"{m['replication_mismatches']:>6d}"
                f"{m['replication_latch_timeouts']:>10d}"
                f"{fanout:>16}"
                f"{m['replication_storm_scans']:>7d}"
            )
        sections.append("\n".join(lines))
    return "\n\n".join(sections)

"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``tables [--table 2|3|4] [--n N] [--schemes ...]`` — regenerate the
  paper's evaluation tables (measured next to published values);
* ``figures [--figure 6|7] [--n N]`` — the directory-growth series;
* ``stats --scheme S --workload W [--n N] [-b B]`` — build one index and
  print its structural profile;
* ``bench [--n N] [--out PATH] [--compare BASELINE [--tolerance T]]
  [--speedup-vs BASELINE [--speedup-min R]]
  [--modes single batched rangepar served sharded migration replication]
  [--batch-size K]
  [--parallelism P]``
  — run the benchmark suite over memory / file / file+pool / file+wal
  storage configurations, including the batched-execution cells
  (``insert_many`` + group commit vs op-at-a-time), the parallel
  range-scanner cells and the served cells (a real TCP server under
  concurrent clients, gating write coalescing), write a
  ``BENCH_*.json`` baseline, or gate against a committed one (exit 1 on
  regressions);
* ``serve [--host H] [--port P] [--wal PATH] [--dims D] [--widths W]
  [-b B] [--window MS] [--max-batch K] [--max-inflight N]
  [--pipeline N] [--shards N] [--workdir DIR]`` — serve an index over
  the wire protocol; with ``--wal`` the page file is durable and an
  existing file is reopened through WAL recovery.  With ``--shards N``
  (N > 1) the z-order keyspace is range-partitioned across N worker
  processes — each with its own page store, WAL and write aggregator —
  behind a scatter-gather router; ``--workdir`` makes the cluster
  durable (per-shard WALs plus the persisted partition).  Prints
  ``serving on HOST:PORT`` once bound and drains gracefully on
  SIGTERM/SIGINT;
* ``ping [--host H] --port P`` — round-trip a served index and print
  its shape;
* ``topology [--host H] --port P`` — print a served endpoint's shard
  topology (epoch, z-range cuts, worker addresses);
* ``rebalance [--host H] --port P [split|merge|promote|status]
  [--shard S] [--cut Z]`` — drive an online shard split or merge
  against a running sharded cluster (zero acked-write loss; see
  ``repro.server.migrate``), promote a dead shard's most-caught-up
  read replica to primary (``promote --shard S``; see
  ``repro.server.replica``), or print the rebalance status.  ``serve
  --shards N --workdir DIR --auto-split-keys K [--max-shards M]`` does
  the split automatically whenever a shard outgrows ``K`` keys, and
  ``--auto-failover`` promotes automatically when a primary dies;
* ``analyze [paths...] [--graph PATH]`` — the static analyzer:
  alias-aware REP101/105/106, the value rules REP102-104/107/108
  (float equality, mutable defaults, missing core annotations,
  hot-path JSON, replica mutation), the REP2xx concurrency rules
  (blocking calls in async code, latch leaks, lock-order cycles) and
  the REP3xx durability rules (group-commit pairing); ``--graph``
  writes the lock-order graph as DOT;
* ``typecheck`` — mypy strict gate over ``storage/`` and ``server/``
  (skipped cleanly when mypy is not installed);
* ``check [--n N] [--seed S]`` — analyze + typecheck plus a
  sanitizer-instrumented random workload over every index scheme
  (structural smoke test);
* ``demo`` — a 30-second guided tour of the API.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.stats import (
    format_histogram,
    node_level_profile,
    page_fill_histogram,
    region_depth_histogram,
    summarize,
)


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.bench import PAPER_TABLES, format_table, run_table_cell
    from repro.bench.harness import TABLE_EXPERIMENTS
    from repro.bench.paper_data import PAGE_CAPACITIES

    wanted = [f"table{t}" for t in args.table] if args.table else list(
        TABLE_EXPERIMENTS
    )
    for name in wanted:
        experiment = TABLE_EXPERIMENTS[name]
        measured = {}
        for scheme in args.schemes:
            for b in PAGE_CAPACITIES:
                print(
                    f"running {name} {scheme} b={b} ...",
                    file=sys.stderr,
                    flush=True,
                )
                measured[(scheme, b)] = run_table_cell(
                    experiment, scheme, b, n=args.n
                )
        print()
        print(format_table(name, measured, PAPER_TABLES[name]))
        print()
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.bench import format_series, growth_series
    from repro.bench.harness import FIGURE_EXPERIMENTS

    wanted = [f"fig{f}" for f in args.figure] if args.figure else list(
        FIGURE_EXPERIMENTS
    )
    for name in wanted:
        experiment = FIGURE_EXPERIMENTS[name]
        series = []
        for scheme in args.schemes:
            print(f"running {name} {scheme} ...", file=sys.stderr, flush=True)
            _, curve = growth_series(experiment, scheme, n=args.n)
            series.append(curve)
        print()
        print(format_series(name, series))
        print()
    return 0


def _build_for_stats(args: argparse.Namespace):
    from repro import (
        BMEHTree,
        BalancedBinaryTrie,
        GridFile,
        KDBTree,
        MDEH,
        MEHTree,
    )
    from repro.workloads import (
        clustered_keys,
        normal_keys,
        uniform_keys,
        unique,
    )

    schemes = {
        "mdeh": MDEH,
        "meh": MEHTree,
        "bmeh": BMEHTree,
        "quadtree": BalancedBinaryTrie,
        "gridfile": GridFile,
        "kdb": KDBTree,
    }
    workloads = {
        "uniform": uniform_keys,
        "normal": normal_keys,
        "clustered": clustered_keys,
    }
    keys = unique(workloads[args.workload](args.n, dims=args.dims))
    index = schemes[args.scheme](args.dims, args.page_capacity, widths=31)
    for key in keys:
        index.insert(key)
    return index


def _cmd_stats(args: argparse.Namespace) -> int:
    index = _build_for_stats(args)
    summary = summarize(index)
    print("\n".join(summary.as_lines()))
    print("\nregion depth histogram (bits):")
    print(format_histogram(region_depth_histogram(index)))
    print("\npage fill histogram (records/page):")
    print(format_histogram(page_fill_histogram(index)))
    from repro.core.hashtree import HashTreeBase

    if isinstance(index, HashTreeBase):
        print("\nper-level directory profile:")
        for level, row in node_level_profile(index).items():
            print(
                f"  level {level}: {row['nodes']:>5.0f} nodes, "
                f"{row['mean_cells']:.1f} cells, "
                f"{row['mean_regions']:.1f} regions each"
            )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.bench.profiling import DEFAULT_PROFILE_CELLS, profile_cells

    cells = DEFAULT_PROFILE_CELLS
    if args.modes:
        cells = tuple(c for c in cells if c.mode in args.modes)
        if not cells:
            print(f"no profile cells for modes {args.modes}",
                  file=sys.stderr)
            return 2

    def progress(label: str) -> None:
        print(f"profiling {label} ...", file=sys.stderr, flush=True)

    report = profile_cells(
        cells, args.n, top=args.top, sort=args.sort, progress=progress
    )
    print(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.regression import (
        BenchCell,
        DEFAULT_CELLS,
        binary_speedup_failures,
        compare_with_baseline,
        format_results,
        gate_failures,
        load_baseline,
        run_cells,
        write_baseline,
    )
    from repro.bench.harness import experiment_scale

    def progress(label: str) -> None:
        print(f"running {label} ...", file=sys.stderr, flush=True)

    def speedup_failures(results) -> list:
        if not args.speedup_vs:
            return []
        try:
            reference = load_baseline(args.speedup_vs)
        except (OSError, ValueError) as exc:
            return [
                f"cannot load speedup reference {args.speedup_vs}: {exc}"
            ]
        return binary_speedup_failures(
            results, reference, min_ratio=args.speedup_min
        )

    if args.compare:
        try:
            baseline = load_baseline(args.compare)
        except (OSError, ValueError) as exc:
            print(f"cannot load baseline {args.compare}: {exc}",
                  file=sys.stderr)
            return 2
        failures, results = compare_with_baseline(
            baseline, tolerance=args.tolerance, progress=progress
        )
        print()
        print(format_results(results))
        if args.out:
            write_baseline(
                args.out, results, baseline["n"],
                pool_capacity=baseline.get("pool_capacity", 256),
                page_size=baseline.get("page_size", 8192),
            )
            print(f"\nwrote {args.out}")
        failures.extend(speedup_failures(results))
        if failures:
            print(
                f"\n{len(failures)} regression(s) vs {args.compare}:",
                file=sys.stderr,
            )
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"\ncompare vs {args.compare}: OK "
              f"(tolerance {args.tolerance:.1%})")
        return 0

    if args.experiments or args.schemes or args.backends or args.modes:
        experiments = args.experiments or ["table2"]
        schemes = args.schemes or ["MDEH", "MEHTree", "BMEHTree"]
        backends = args.backends or ["memory"]
        modes = args.modes or ["single"]
        cells = tuple(
            BenchCell(e, s, args.page_capacity, backend, mode)
            for e in experiments
            for s in schemes
            for backend in backends
            for mode in modes
        )
    else:
        cells = DEFAULT_CELLS
    n = args.n or experiment_scale()
    results = run_cells(
        cells,
        n=n,
        pool_capacity=args.pool_capacity,
        progress=progress,
        batch_size=args.batch_size,
        parallelism=args.parallelism,
    )
    print()
    print(format_results(results))
    out = args.out or f"BENCH_{args.label}.json"
    write_baseline(out, results, n, pool_capacity=args.pool_capacity)
    print(f"\nwrote {out}")
    failures = gate_failures(results)
    failures.extend(speedup_failures(results))
    if failures:
        print(f"\n{len(failures)} problem(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import os
    import signal

    from repro.core import MultiKeyFile
    from repro.encoding import KeyCodec, UIntEncoder
    from repro.server import QueryServer
    from repro.storage import BufferPool, PageStore
    from repro.storage.wal import WALBackend, recover_index

    # Replicas and the failover watchdog need worker processes to ship
    # from / promote over, so they force the cluster path even at one
    # shard (a plain in-process server has nothing to replicate).
    if args.shards > 1 or args.replicas or args.auto_failover:
        return _serve_sharded(args)
    if args.wal and os.path.exists(args.wal):
        index = recover_index(args.wal, pool_capacity=args.pool_pages or None)
        codec = KeyCodec([UIntEncoder(w) for w in index.widths])
        file = MultiKeyFile.from_index(codec, index)
        print(
            f"recovered {len(index)} keys from {args.wal}",
            file=sys.stderr,
            flush=True,
        )
    else:
        codec = KeyCodec([UIntEncoder(args.widths) for _ in range(args.dims)])
        store = None
        if args.wal:
            pool = BufferPool(args.pool_pages) if args.pool_pages else None
            store = PageStore(backend=WALBackend(args.wal), pool=pool)
        file = MultiKeyFile(
            codec, page_capacity=args.page_capacity, store=store
        )

    async def run() -> None:
        server = QueryServer(
            file,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            session_pipeline=args.pipeline,
            coalesce_window=args.window / 1000.0,
            max_batch=args.max_batch,
        )
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        async with server:
            host, port = server.address
            print(f"serving on {host}:{port}", flush=True)
            await stop.wait()
            print("draining ...", file=sys.stderr, flush=True)
        print("served state is durable, exiting", file=sys.stderr, flush=True)

    asyncio.run(run())
    return 0


def _serve_sharded(args: argparse.Namespace) -> int:
    """``repro serve --shards N``: workers + scatter-gather router.

    The manager forks before the event loop starts (fork under a live
    loop is unsafe); the router then runs in this process and drains on
    SIGTERM/SIGINT, after which the workers get their own SIGTERM and
    checkpoint their WALs.
    """
    import asyncio
    import signal

    from repro.server.router import ShardRouter
    from repro.server.shard import ShardManager

    if args.wal:
        print(
            "--wal is the single-server page file; sharded clusters "
            "take --workdir (one WAL per shard)",
            file=sys.stderr,
        )
        return 2
    if args.replicas and not args.workdir:
        print(
            "--replicas needs --workdir: WAL shipping replicates the "
            "durable per-shard WALs",
            file=sys.stderr,
        )
        return 2
    manager = ShardManager(
        args.shards,
        dims=args.dims,
        widths=args.widths,
        page_capacity=args.page_capacity,
        workdir=args.workdir,
        coalesce_window=args.window / 1000.0,
        max_batch=args.max_batch,
    )
    specs = manager.start()
    for spec in specs:
        print(
            f"shard {spec.shard}: pid {spec.pid} on "
            f"{spec.host}:{spec.port} "
            f"z [{spec.z_low:#x}, {spec.z_high:#x}]",
            file=sys.stderr,
            flush=True,
        )
    replicas = None
    if args.replicas:
        from repro.server.replica import ReplicaManager

        replicas = ReplicaManager(manager, args.replicas)
        for shard, rspecs in replicas.start().items():
            for rspec in rspecs:
                print(
                    f"shard {shard} replica {rspec.replica}: pid "
                    f"{rspec.pid} on {rspec.host}:{rspec.port}",
                    file=sys.stderr,
                    flush=True,
                )

    async def run() -> None:
        router = ShardRouter(
            manager,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            session_pipeline=args.pipeline,
            auto_split_keys=args.auto_split_keys,
            max_shards=args.max_shards,
            replicas=replicas,
            auto_failover=args.auto_failover,
        )
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        async with router:
            host, port = router.address
            print(
                f"serving on {host}:{port} ({args.shards} shards)",
                flush=True,
            )
            await stop.wait()
            print("draining router ...", file=sys.stderr, flush=True)

    try:
        asyncio.run(run())
    finally:
        if replicas is not None:
            print("stopping replicas ...", file=sys.stderr, flush=True)
            replicas.stop()
        print("stopping shard workers ...", file=sys.stderr, flush=True)
        manager.stop()
    print("cluster state is durable, exiting", file=sys.stderr, flush=True)
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    import asyncio

    from repro.server import QueryClient

    async def run() -> int:
        async with await QueryClient.connect(
            args.host, args.port, negotiate=True
        ) as client:
            topo = await client.topology()
        role = topo.get("role", "server")
        shards = topo.get("shards", [])
        print(
            f"{role} at {args.host}:{args.port}: epoch "
            f"{topo.get('epoch', 0)}, {len(shards)} shard(s)"
        )
        for cut in topo.get("boundaries", []):
            print(f"  cut at z = {cut:#x}")
        for shard in shards:
            where = ""
            if "host" in shard:
                where = f" on {shard['host']}:{shard['port']}"
            z_low, z_high = shard.get("z_low", 0), shard.get("z_high", 0)
            keys = f", {shard['keys']} keys" if "keys" in shard else ""
            print(
                f"  shard {shard.get('shard', 0)}{where}: "
                f"z [{z_low:#x}, {z_high:#x}]{keys}"
            )
        return 0

    try:
        return asyncio.run(run())
    except (ConnectionError, OSError) as exc:
        print(f"topology failed: {exc}", file=sys.stderr)
        return 1


def _cmd_rebalance(args: argparse.Namespace) -> int:
    import asyncio

    from repro.server import QueryClient

    async def run() -> int:
        async with await QueryClient.connect(
            args.host, args.port, negotiate=True
        ) as client:
            fields: dict = {}
            if args.shard is not None:
                fields["shard"] = args.shard
            if args.cut is not None:
                fields["cut"] = args.cut
            reply = await client.migrate(args.action, **fields)
        if args.action == "status":
            state = "migrating" if reply.get("migrating") else "idle"
            print(
                f"epoch {reply.get('epoch', 0)}, "
                f"{reply.get('shards', 0)} shard(s), {state}, "
                f"{reply.get('migrations', 0)} migration(s) completed"
            )
            return 0
        if args.action == "promote":
            chosen = reply.get("chosen")
            source = (
                f"replica {chosen} (lsn {reply.get('chosen_lsn')})"
                if chosen is not None
                else "the primary's durable WAL alone"
            )
            print(
                f"promoted shard {reply.get('shard')}: worker "
                f"{reply.get('old_worker')} -> {reply.get('worker')} from "
                f"{source}, {reply.get('pages', 0)} page(s) caught up, "
                f"now at epoch {reply.get('epoch', 0)}"
            )
            return 0
        what = reply.get("action", args.action)
        where = f"shard {reply.get('shard')}"
        if what == "split":
            where += f" at z = {reply.get('cut', 0):#x}"
        else:
            where += f" into shard {reply.get('absorber')}"
        print(
            f"{what} {where}: moved {reply.get('moved', 0)} key(s) in "
            f"{reply.get('delta_rounds', 0)} delta round(s); now "
            f"{reply.get('shards', 0)} shard(s) at epoch "
            f"{reply.get('epoch', 0)}"
        )
        return 0

    from repro.errors import ReproError

    try:
        return asyncio.run(run())
    except (ConnectionError, OSError, ReproError) as exc:
        print(f"rebalance failed: {exc}", file=sys.stderr)
        return 1


def _cmd_ping(args: argparse.Namespace) -> int:
    import asyncio
    import time

    from repro.server import QueryClient

    async def run() -> int:
        async with await QueryClient.connect(args.host, args.port) as client:
            start = time.perf_counter()
            reply = await client.ping()
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            stats = await client.stats()
        print(
            f"pong (protocol v{reply['version']}) in {elapsed_ms:.2f} ms: "
            f"{stats['scheme']} {stats['dims']}d, {stats['keys']} keys, "
            f"load factor {stats['load_factor']:.2f}"
        )
        return 0

    try:
        return asyncio.run(run())
    except (ConnectionError, OSError) as exc:
        print(f"ping failed: {exc}", file=sys.stderr)
        return 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.sanitize import analyze_paths, format_issues

    report = analyze_paths(args.paths or None)
    if args.graph:
        with open(args.graph, "w", encoding="utf-8") as handle:
            handle.write(report.graph.to_dot())
        print(f"wrote lock-order graph to {args.graph}", file=sys.stderr)
    if report.issues:
        print(format_issues(report.issues))
        print(f"\n{len(report.issues)} finding(s)", file=sys.stderr)
        return 1
    edges = len(report.graph.edges)
    print(f"analyze: OK (lock-order graph: {len(report.graph.nodes)} "
          f"locks, {edges} edges, acyclic)")
    return 0


def _run_typecheck() -> int:
    """mypy strict over storage/ and server/; 0 when mypy is absent so
    offline environments stay green (CI installs mypy and gates)."""
    try:
        from mypy import api
    except ModuleNotFoundError:
        print("typecheck: SKIPPED (mypy not installed)")
        return 0
    from repro.sanitize.lint import repo_source_root

    root = repo_source_root()
    argv = [str(root / "storage"), str(root / "server")]
    config = root.parent.parent / "pyproject.toml"
    if config.exists():
        argv = ["--config-file", str(config), *argv]
    stdout, stderr, status = api.run(argv)
    if stdout:
        print(stdout, end="")
    if stderr:
        print(stderr, end="", file=sys.stderr)
    if status == 0:
        print("typecheck: OK")
    return status


def _cmd_typecheck(_args: argparse.Namespace) -> int:
    return _run_typecheck()


def _cmd_check(args: argparse.Namespace) -> int:
    """Analyze + typecheck + a sanitized random workload over every
    index scheme."""
    import random

    from repro import (
        BMEHTree,
        GridFile,
        InvariantViolation,
        KDBTree,
        MDEH,
        MEHTree,
    )
    from repro.sanitize import analyze_paths, format_issues, sanitized

    status = 0
    if not args.skip_lint:
        report = analyze_paths(None)
        if report.issues:
            print(format_issues(report.issues))
            status = 1
        else:
            print("analyze: OK")
        if _run_typecheck() != 0:
            status = 1
    schemes = {
        "mdeh": MDEH,
        "meh": MEHTree,
        "bmeh": BMEHTree,
        "gridfile": GridFile,
        "kdb": KDBTree,
    }
    for name, cls in schemes.items():
        rng = random.Random(args.seed)
        index = cls(2, 4, widths=12)
        keys: list[tuple[int, int]] = []
        inserted = 0
        try:
            with sanitized(index, rate=args.rate):
                while len(index) < args.n:
                    key = (rng.randrange(4096), rng.randrange(4096))
                    if key in index:
                        continue
                    index.insert(key, inserted)
                    inserted += 1
                    keys.append(key)
                    # Interleave deletions to exercise the merge paths.
                    if inserted % 3 == 0:
                        victim = keys.pop(rng.randrange(len(keys)))
                        index.delete(victim)
                for _ in range(5):
                    low = rng.randrange(2048)
                    sum(1 for _ in index.range_search(
                        (low, low), (low + 512, low + 512)
                    ))
                while keys:
                    index.delete(keys.pop())
        except InvariantViolation as violation:
            print(f"{name}: FAIL {violation}", file=sys.stderr)
            status = 1
            continue
        print(f"{name}: OK ({args.n} keys inserted, all deleted, "
              "invariants held throughout)")
    return status


def _cmd_demo(_args: argparse.Namespace) -> int:
    from repro import BMEHTree
    from repro.workloads import uniform_keys, unique

    print("Building a BMEH-tree over 2,000 uniform 2-d keys ...")
    index = BMEHTree(2, 8, widths=16)
    keys = unique(uniform_keys(2_000, 2, seed=1, domain=1 << 16))
    for i, key in enumerate(keys):
        index.insert(key, i)
    print("\n".join(summarize(index).as_lines()))
    probe = keys[77]
    before = index.store.stats.snapshot()
    index.search(probe)
    print(
        f"\nexact-match search: {index.store.stats.delta(before).reads} "
        "disk reads (root pinned)"
    )
    hits = sum(1 for _ in index.range_search((0, 0), (9999, 9999)))
    print(f"range query over one corner: {hits} records")
    index.check_invariants()
    print("invariants: OK")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BMEH-tree (PODS 1986) reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    tables = commands.add_parser("tables", help="regenerate Tables 2-4")
    tables.add_argument("--table", type=int, action="append",
                        choices=(2, 3, 4))
    tables.add_argument("--n", type=int, default=None,
                        help="insertions per run (default: REPRO_N or 40000)")
    tables.add_argument("--schemes", nargs="+",
                        default=["MDEH", "MEHTree", "BMEHTree"])
    tables.set_defaults(handler=_cmd_tables)

    figures = commands.add_parser("figures", help="regenerate Figures 6-7")
    figures.add_argument("--figure", type=int, action="append",
                         choices=(6, 7))
    figures.add_argument("--n", type=int, default=None)
    figures.add_argument("--schemes", nargs="+",
                         default=["MDEH", "MEHTree", "BMEHTree"])
    figures.set_defaults(handler=_cmd_figures)

    bench = commands.add_parser(
        "bench",
        help="benchmark baselines + regression gate (BENCH_*.json)",
    )
    bench.add_argument("--n", type=int, default=None,
                       help="insertions per cell (default: REPRO_N or 40000)")
    bench.add_argument("--experiments", nargs="+", default=None,
                       help="table2/table3/table4/fig6/fig7 "
                            "(default: the committed-baseline suite)")
    bench.add_argument("--schemes", nargs="+", default=None)
    bench.add_argument("--modes", nargs="+", default=None,
                       choices=["single", "batched", "rangepar", "served",
                                "sharded", "migration", "replication"],
                       help="measurement protocols for ad-hoc cells")
    bench.add_argument("--batch-size", type=int, default=None,
                       help="keys per measured batch in batched cells "
                            "(default 64)")
    bench.add_argument("--parallelism", type=int, default=None,
                       help="thread-pool width for rangepar cells "
                            "(default 4); client concurrency for served "
                            "cells (default 8)")
    bench.add_argument("--backends", nargs="+", default=None,
                       choices=["memory", "file", "file+pool", "file+wal"])
    bench.add_argument("-b", "--page-capacity", type=int, default=8)
    bench.add_argument("--pool-capacity", type=int, default=256)
    bench.add_argument("--label", default="run",
                       help="baseline name: writes BENCH_<label>.json")
    bench.add_argument("--out", default=None,
                       help="explicit output path (overrides --label)")
    bench.add_argument("--compare", default=None, metavar="BASELINE",
                       help="re-run a baseline's cells and flag regressions")
    bench.add_argument("--tolerance", type=float, default=0.05,
                       help="relative regression tolerance (default 0.05)")
    bench.add_argument("--speedup-vs", default=None, metavar="BASELINE",
                       help="absolute gate: served cells must beat this "
                            "(pre-binary) baseline's throughput by "
                            "--speedup-min in both directions")
    bench.add_argument("--speedup-min", type=float, default=5.0,
                       help="required served ops/s ratio for "
                            "--speedup-vs (default 5.0)")
    bench.set_defaults(handler=_cmd_bench)

    profile = commands.add_parser(
        "profile",
        help="cProfile the bench workloads (hot-loop ranking report)",
    )
    profile.add_argument("--n", type=int, default=2000,
                         help="insertions per profiled cell (default 2000)")
    profile.add_argument("--modes", nargs="+", default=None,
                         choices=["single", "batched", "rangepar", "served"],
                         help="restrict to these measurement protocols "
                              "(default: the standard profile suite)")
    profile.add_argument("--top", type=int, default=25,
                         help="functions per report section (default 25)")
    profile.add_argument("--sort", default="cumulative",
                         choices=["cumulative", "tottime"],
                         help="ranking order (default cumulative)")
    profile.add_argument("--out", default=None,
                         help="also write the report to this path")
    profile.set_defaults(handler=_cmd_profile)

    stats = commands.add_parser("stats", help="profile one built index")
    stats.add_argument(
        "--scheme", default="bmeh",
        choices=["mdeh", "meh", "bmeh", "quadtree", "gridfile", "kdb"],
    )
    stats.add_argument("--workload", default="uniform",
                       choices=["uniform", "normal", "clustered"])
    stats.add_argument("--n", type=int, default=10_000)
    stats.add_argument("--dims", type=int, default=2)
    stats.add_argument("-b", "--page-capacity", type=int, default=8)
    stats.set_defaults(handler=_cmd_stats)

    serve = commands.add_parser(
        "serve", help="serve an index over the wire protocol"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default 0: pick an ephemeral port)")
    serve.add_argument("--wal", default=None, metavar="PATH",
                       help="durable page file; reopened via WAL recovery "
                            "when it already exists")
    serve.add_argument("--dims", type=int, default=2,
                       help="key dimensions for a fresh index (default 2)")
    serve.add_argument("--widths", type=int, default=16,
                       help="bits per dimension for a fresh index "
                            "(default 16)")
    serve.add_argument("-b", "--page-capacity", type=int, default=32)
    serve.add_argument("--window", type=float, default=2.0,
                       help="write-coalescing window in milliseconds "
                            "(default 2.0)")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="mutations per coalesced commit (default 64)")
    serve.add_argument("--pool-pages", type=int, default=256,
                       help="buffer-pool frames in front of the WAL store "
                            "(default 256; 0 disables the pool)")
    serve.add_argument("--max-inflight", type=int, default=64,
                       help="global in-flight request budget (default 64)")
    serve.add_argument("--pipeline", type=int, default=16,
                       help="per-session pipelining limit (default 16)")
    serve.add_argument("--shards", type=int, default=1,
                       help="range-partition the keyspace across N worker "
                            "processes behind a scatter-gather router "
                            "(default 1: a single in-process server)")
    serve.add_argument("--workdir", default=None, metavar="DIR",
                       help="durable cluster directory: per-shard WALs plus "
                            "the persisted partition (sharded mode only)")
    serve.add_argument("--auto-split-keys", type=int, default=None,
                       metavar="K",
                       help="split the hottest shard online whenever it "
                            "holds more than K keys (sharded durable mode "
                            "only; default: no auto-split)")
    serve.add_argument("--max-shards", type=int, default=8,
                       help="auto-split ceiling (default 8)")
    serve.add_argument("--replicas", type=int, default=0,
                       help="WAL-shipped read replicas per shard (sharded "
                            "durable mode only; default 0)")
    serve.add_argument("--auto-failover", action="store_true",
                       help="promote a shard's most-caught-up replica "
                            "automatically when its primary dies")
    serve.set_defaults(handler=_cmd_serve)

    ping = commands.add_parser(
        "ping", help="round-trip a served index and print its shape"
    )
    ping.add_argument("--host", default="127.0.0.1")
    ping.add_argument("--port", type=int, required=True)
    ping.set_defaults(handler=_cmd_ping)

    topology = commands.add_parser(
        "topology", help="print a served endpoint's shard topology"
    )
    topology.add_argument("--host", default="127.0.0.1")
    topology.add_argument("--port", type=int, required=True)
    topology.set_defaults(handler=_cmd_topology)

    rebalance = commands.add_parser(
        "rebalance",
        help="online shard split/merge against a running cluster",
    )
    rebalance.add_argument("action", nargs="?", default="status",
                           choices=["split", "merge", "promote", "status"],
                           help="what to do (default: status)")
    rebalance.add_argument("--host", default="127.0.0.1")
    rebalance.add_argument("--port", type=int, required=True)
    rebalance.add_argument("--shard", type=int, default=None,
                           help="source shard (default: the hottest for "
                                "split, the coldest for merge)")
    rebalance.add_argument("--cut", type=int, default=None,
                           help="split point in z space (default: the "
                                "sampled median of the source shard)")
    rebalance.set_defaults(handler=_cmd_rebalance)

    analyze = commands.add_parser(
        "analyze",
        help="static analyzer: storage, value, concurrency and "
             "durability rules (exit 1 on findings)",
    )
    analyze.add_argument(
        "paths", nargs="*",
        help="files or directories (default: the installed repro package)",
    )
    analyze.add_argument(
        "--graph", default=None, metavar="PATH",
        help="write the lock-order acquisition graph as Graphviz DOT",
    )
    analyze.set_defaults(handler=_cmd_analyze)

    typecheck = commands.add_parser(
        "typecheck",
        help="mypy strict gate over storage/ and server/ "
             "(skipped when mypy is absent)",
    )
    typecheck.set_defaults(handler=_cmd_typecheck)

    check = commands.add_parser(
        "check",
        help="analyze + typecheck + sanitizer-instrumented random "
             "workload per scheme",
    )
    def rate(text: str) -> float:
        value = float(text)
        if not 0.0 <= value <= 1.0:
            raise argparse.ArgumentTypeError(
                f"sampling rate {value} outside [0, 1]"
            )
        return value

    check.add_argument("--n", type=int, default=400,
                       help="keys per scheme (default 400)")
    check.add_argument("--seed", type=int, default=1986)
    check.add_argument("--rate", type=rate, default=1.0,
                       help="sanitizer sampling rate in [0, 1] (default 1.0)")
    check.add_argument("--skip-lint", action="store_true")
    check.set_defaults(handler=_cmd_check)

    demo = commands.add_parser("demo", help="a quick guided tour")
    demo.set_defaults(handler=_cmd_demo)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""Served-path benchmark of the BMEH-tree store.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hot_point --seed 1 --seconds 30 --trace 0

One run starts the workload's server process(es) (``perfbench/serve.py``),
preloads the seeded dataset over the wire, warms up, then drives a
closed loop for ``--seconds`` and checks every reply against the oracle.
Afterwards it stops the servers gracefully, reopens every WAL with
``recover_index`` and requires the recovered records to equal the
oracle's live set and ``check_invariants()`` to pass.

``--trace 0`` sets the servers up several times and reports the
end-to-end metrics.  ``--trace 1`` makes two passes on fresh servers,
untraced then traced, and reports the per-layer metrics: span metrics
from the traced pass, counter metrics from the untraced one, and the
difference in ``ops_s`` as the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds run details (set-up times, data pages, recovery outcome,
counter metrics).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Seconds of traffic before the timed phase (pool and caches fill).
WARMUP_S = 1.0
#: An untraced run sets up at least ``SETUPS`` times, and again until
#: its discarded set-ups took ``SETUP_BUDGET_S`` (at most ``MAX_SETUPS``
#: in all); ``setup_s`` is the median.
SETUPS = 3
SETUP_BUDGET_S = 5.0
MAX_SETUPS = 15
#: Seconds per slice of the timed phase; throughput and each percentile
#: are the median of their per-slice values.
WINDOW_S = 2.5


class ServerSet:
    """The server process(es) of one set-up, and their working files."""

    def __init__(self, mode: str, workdir: str, traced: bool,
                 sample_path: str | None) -> None:
        self.mode = mode
        self.workdir = workdir
        self.traced = traced
        self.sample_path = sample_path
        self.proc: subprocess.Popen[bytes] | None = None
        self.pids: list[int] = []
        self.host = ""
        self.port = 0
        #: WAL slot size of every page file, as the server reports it.
        self.page_size = 0

    def start(self, timeout: float = 120.0) -> None:
        cmd = [sys.executable, os.path.join(HERE, "serve.py"),
               "--mode", self.mode, "--workdir", self.workdir]
        if self.sample_path:
            cmd += ["--sample", self.sample_path]
        if self.traced:
            cmd.append("--trace")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p
        )
        with open(os.path.join(self.workdir, "server.log"), "wb") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        ready = os.path.join(self.workdir, "ready.json")
        deadline = time.perf_counter() + timeout
        while not os.path.exists(ready):
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early:\n{self.log_tail()}")
            if time.perf_counter() > deadline:
                raise RuntimeError(f"server not ready:\n{self.log_tail()}")
            time.sleep(0.002)
        with open(ready, encoding="utf-8") as fh:
            info = json.load(fh)
        self.host, self.port, self.pids = info["host"], info["port"], info["pids"]
        self.page_size = info["page_size"]

    def log_tail(self) -> str:
        with open(os.path.join(self.workdir, "server.log"), "rb") as fh:
            return fh.read()[-2000:].decode("utf-8", "replace")

    def probe(self, signum: int, tag: str, timeout: float = 60.0
              ) -> dict[int, dict[str, Any]]:
        """Signal every server process and collect its probe file."""
        for pid in self.pids:
            os.kill(pid, signum)
        out: dict[int, dict[str, Any]] = {}
        deadline = time.perf_counter() + timeout
        while len(out) < len(self.pids):
            for pid in self.pids:
                path = os.path.join(self.workdir, f"probe-{pid}-{tag}.json")
                if pid not in out and os.path.exists(path):
                    with open(path, encoding="utf-8") as fh:
                        out[pid] = json.load(fh)
            if time.perf_counter() > deadline:
                raise RuntimeError(f"no {tag} probe from {self.pids}")
            time.sleep(0.002)
        return out

    def files(self, suffix: str) -> list[str]:
        """The page files (``suffix=""``) or their WALs (``".wal"``)."""
        pattern = "direct.pages" if self.mode == "direct" else "cluster/shard-*.pages"
        return sorted(glob.glob(os.path.join(self.workdir, pattern + suffix)))

    def bytes(self, suffix: str) -> int:
        return sum(os.path.getsize(path) for path in self.files(suffix))

    def stop(self, timeout: float = 60.0) -> None:
        """Graceful stop (drain, final checkpoint); SIGKILL the process
        group if that does not finish in time.  Waits for every process."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                pass
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        deadline = time.perf_counter() + 5.0
        for pid in self.pids[1:]:
            # Forked workers: their parent reaps them on a graceful stop.
            while time.perf_counter() < deadline:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.01)
        self.proc = None


class Pass:
    """One or more set-ups, then warm-up, timed phase and recovery."""

    def __init__(self, workload: Any, dataset: Any, seed: int,
                 workdir: str, seconds: float, traced: bool,
                 repeat_setup: bool = False) -> None:
        from workloads import Oracle

        self.workload = workload
        self.dataset = dataset
        self.seed = seed
        self.workdir = workdir
        self.seconds = seconds
        self.windows = max(1, round(seconds / WINDOW_S))
        self.traced = traced
        self.repeat_setup = repeat_setup
        self.oracle = Oracle(dataset)
        self.setup_s: list[float] = []
        self.failures: list[str] = []
        self.result: dict[str, Any] = {}

    def run(self) -> "Pass":
        os.makedirs(self.workdir)
        sample = None
        if self.workload.mode == "routed":
            sample = os.path.join(self.workdir, "sample.json")
            with open(sample, "w", encoding="utf-8") as fh:
                json.dump([list(k) for k, _ in self.dataset.preload_pairs], fh)
        setups, budget = (SETUPS, SETUP_BUDGET_S) if self.repeat_setup else (1, 0.0)
        spent = 0.0
        for attempt in range(MAX_SETUPS):
            last = attempt + 1 == MAX_SETUPS or (
                attempt + 1 >= setups and spent >= budget
            )
            setdir = os.path.join(self.workdir, f"setup{attempt}")
            os.makedirs(setdir)
            servers = ServerSet(self.workload.mode, setdir, self.traced, sample)
            try:
                started = time.perf_counter()
                servers.start()
                asyncio.run(self._drive(servers, started, last))
            finally:
                servers.stop()
            if last:
                self._after_stop(servers)
                break
            spent += time.perf_counter() - started
        return self

    async def _drive(self, servers: ServerSet, started: float,
                     last: bool) -> None:
        from layers import stats_counters
        from loadgen import Traffic, WireCounter, connect, preload

        clients = await connect(servers.host, servers.port, 2)
        try:
            await preload(clients, self.dataset)
            self.setup_s.append(time.perf_counter() - started)
            if not last:
                return
            traffic = Traffic(self.workload, self.dataset, self.oracle,
                              clients, self.seed)
            warm = await traffic.run(WARMUP_S)
            # Traffic is quiesced between phases, so the counters, probes
            # and spans below cover exactly the timed phase.
            stats0 = stats_counters(await clients[0].stats())
            probes_start = servers.probe(signal.SIGUSR1, "start")
            wal0 = servers.bytes(".wal")
            with WireCounter() if self.traced else contextlib.nullcontext() as wire:
                phase = await traffic.run(self.seconds)
            probes_end = servers.probe(signal.SIGUSR2, "end")
            wal1 = servers.bytes(".wal")
            stats1 = stats_counters(await clients[0].stats())
            self.failures = traffic.failures
            self.result = {
                "warm": warm, "phase": phase, "stats": (stats0, stats1),
                "probes": {"start": probes_start, "end": probes_end},
                "wal_bytes": wal1 - wal0,
                "wire_bytes": wire.bytes if wire is not None else 0,
            }
        finally:
            for client in clients:
                await client.close()

    def _after_stop(self, servers: ServerSet) -> None:
        from layers import load_span_sets

        self.result["page_bytes"] = servers.bytes("")
        self.result["recovery"] = self._recover(servers)
        if self.traced:
            self.result["spans"] = load_span_sets(servers.workdir)

    def _recover(self, servers: ServerSet) -> dict[str, Any]:
        from repro.storage.wal import recover_index

        found: dict[tuple[int, ...], Any] = {}
        for path in servers.files(""):
            index = recover_index(path, page_size=servers.page_size)
            if index is None:
                return {"ok": False, "error": f"{path}: nothing committed"}
            try:
                index.check_invariants()
                for codes, value in index.items():
                    found[tuple(codes)] = value
            except AssertionError as exc:
                return {"ok": False, "error": f"{path}: invariant: {exc}"}
            finally:
                index.store.close()
        oracle = self.oracle
        expected = {**self.dataset.stable_values, **oracle.live}
        low, high = oracle.live_count()
        ok = low <= len(found) <= high and all(
            found.get(key) == value for key, value in expected.items()
        )
        return {"ok": ok, "recovered_keys": len(found),
                "oracle_keys": [low, high]}

    # -- derived figures ---------------------------------------------------

    @property
    def phase(self) -> Any:
        return self.result["phase"]

    @property
    def ops_s(self) -> float:
        return self.phase.ops_per_s(self.windows)

    @property
    def attempted(self) -> int:
        return self.result["warm"].attempted + self.phase.attempted

    @property
    def failed(self) -> int:
        return self.result["warm"].failed + self.phase.failed

    @property
    def correct(self) -> bool:
        return self.oracle.mismatches == 0 and self.result["recovery"]["ok"]

    def counters(self) -> dict[str, float]:
        """Per-layer metrics available without tracing."""
        from layers import counter_metrics

        phase = self.phase
        before, after = self.result["stats"]
        out = counter_metrics(before, after, self.result["probes"],
                              phase.ops, phase.writes)
        live = self.oracle.live_count()[0]
        out.update({
            "client.cpu_util": phase.cpu_s / phase.wall_s,
            "client.depth.conn0": phase.depth_means[0],
            "client.depth.conn1": phase.depth_means[1],
            "wal.bytes_per_write": self.result["wal_bytes"] / max(phase.writes, 1),
            "store.bytes_per_key": self.result["page_bytes"] / max(live, 1),
            "range_p50_ms": phase.latency("range", 50, self.windows),
            "range_p99_ms": phase.latency("range", 99, self.windows),
            "error_frac": self.failed / max(self.attempted, 1),
            "search.samples": float(len(phase.latencies_ms["search"])),
            "write.samples": float(len(phase.latencies_ms["write"])),
            "range.samples": float(len(phase.latencies_ms["range"])),
        })
        return out

    def end_to_end(self) -> dict[str, float]:
        phase = self.phase
        rss_kb = sum(p["maxrss_kb"] for p in self.result["probes"]["end"].values())
        return {
            "setup_s": statistics.median(self.setup_s),
            "ops_s": self.ops_s,
            "search_p50_ms": phase.latency("search", 50, self.windows),
            "search_p99_ms": phase.latency("search", 99, self.windows),
            "write_p50_ms": phase.latency("write", 50, self.windows),
            "write_p99_ms": phase.latency("write", 99, self.windows),
            "server_rss_mb": rss_kb / 1024.0,
        }

    def details(self) -> dict[str, Any]:
        return {
            "traced": self.traced,
            "setup_s": self.setup_s,
            "ops": self.phase.ops,
            "data_pages": self.result["stats"][1]["data_pages"],
            "recovery": self.result["recovery"],
            "mismatches": self.oracle.mismatches,
            "mismatch_examples": self.oracle.examples,
            "failures": self.failures,
            "counters": self.counters(),
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: {SRC}/repro not found; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from layers import span_metrics
    from workloads import WORKLOADS, Dataset

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    workload = WORKLOADS[args.workload]
    dataset = Dataset(workload, args.seed)
    workdir = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    try:
        if args.trace:
            plain = Pass(workload, dataset, args.seed,
                         os.path.join(workdir, "plain"), args.seconds,
                         traced=False).run()
            traced = Pass(workload, dataset, args.seed,
                          os.path.join(workdir, "traced"), args.seconds,
                          traced=True).run()
            metrics = plain.counters()
            metrics.update(span_metrics(traced.result["spans"], traced.phase.ops))
            metrics["wire.bytes_per_op"] = (
                traced.result["wire_bytes"] / max(traced.phase.ops, 1)
            )
            metrics["trace.overhead_ops_s"] = traced.ops_s - plain.ops_s
            passes = [plain, traced]
        else:
            passes = [Pass(workload, dataset, args.seed,
                           os.path.join(workdir, "plain"), args.seconds,
                           traced=False, repeat_setup=True).run()]
            metrics = passes[0].end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    if set(metrics) != set(units):
        raise RuntimeError(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
    print(json.dumps({
        "workload": workload.name, "seed": args.seed,
        "passes": [p.details() for p in passes],
    }))
    print(json.dumps({
        "correct": all(p.correct for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

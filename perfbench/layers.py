"""Per-layer metrics: from span files, ``STATS`` deltas and probes.

Span metrics come only from a traced run; the counter metrics (deltas
of the ``STATS`` counters, the WAL and store byte counts, the probes)
are computed in every run.
"""

from __future__ import annotations

import glob
import json
import math
import os
from typing import Any, Iterable, Sequence

import numpy as np

#: Server processes that run a QueryServer (the router does not).
QUERY_SERVER_ROLES = ("direct", "shard")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 when empty."""
    if not len(values):
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


# -- STATS counters ----------------------------------------------------------


def stats_counters(reply: dict[str, Any]) -> dict[str, float]:
    """Summed counters of every QueryServer behind one STATS reply (a
    plain server's, or each shard's inside a router's)."""
    servers = reply["shards"] if reply.get("role") == "router" else [reply]
    totals = {
        "backend_reads": 0.0, "wal_commits": 0.0, "mutations_applied": 0.0,
        "groups_committed": 0.0, "latch_timeouts": 0.0,
        "snapshot_reads": 0.0, "cpu_s": 0.0, "data_pages": 0.0,
    }
    for server in servers:
        metrics = server["server"]
        totals["data_pages"] += server["data_pages"]
        totals["backend_reads"] += server["store"]["backend_reads"]
        totals["wal_commits"] += server.get("wal", {}).get("commits", 0)
        totals["mutations_applied"] += metrics["mutations_applied"]
        totals["groups_committed"] += metrics["groups_committed"]
        totals["latch_timeouts"] += metrics["latch_timeouts"]
        totals["snapshot_reads"] += metrics["snapshot_reads"]
        totals["cpu_s"] += server["process"]["cpu_seconds"]
    router = reply["server"] if reply.get("role") == "router" else {}
    totals["scatter_queries"] = float(router.get("scatter_queries", 0))
    totals["scatter_fanout"] = float(router.get("scatter_fanout", 0))
    return totals


def counter_metrics(
    before: dict[str, float],
    after: dict[str, float],
    probes: dict[str, dict[int, dict[str, Any]]],
    ops: int,
    writes: int,
) -> dict[str, float]:
    """The every-run per-layer metrics from two STATS snapshots and the
    start/end probes of every server process."""
    delta = {name: after[name] - before[name] for name in before}
    start, end = probes["start"], probes["end"]
    router_cpu = sum(
        end[pid]["cpu_s"] - start[pid]["cpu_s"]
        for pid in end if end[pid]["role"] == "router"
    )
    return {
        "latch.timeouts": delta["latch_timeouts"],
        "aggregator.ops_per_commit": delta["mutations_applied"]
        / max(delta["groups_committed"], 1),
        "router.fanout_per_range": delta["scatter_fanout"]
        / max(delta["scatter_queries"], 1),
        "buffer.backend_reads_per_op": delta["backend_reads"] / max(ops, 1),
        "wal.commits_per_write": delta["wal_commits"] / max(writes, 1),
        "wal.fsync_calls": float(sum(
            end[pid]["fsync_calls"] - start[pid]["fsync_calls"] for pid in end
        )),
        "mvcc.snapshot_reads": delta["snapshot_reads"],
        "server.cpu_ms_per_op": 1000.0 * (delta["cpu_s"] + router_cpu)
        / max(ops, 1),
    }


# -- spans --------------------------------------------------------------------


class SpanSet:
    """The spans one server process wrote out."""

    def __init__(self, path: str) -> None:
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            self.role: str = meta["role"]
            self.meta = meta
            self._ids = {name: i for i, name in enumerate(meta["names"])}
            for column in ("name", "start", "end", "parent", "a", "b"):
                setattr(self, column, data[column])
        # Spans still open when the recorder was disarmed have no end.
        self.done = self.end > 0

    def mask(self, *names: str) -> np.ndarray:
        ids = [self._ids[name] for name in names]
        return np.isin(self.name, ids) & self.done

    def durations_ms(self, *names: str) -> np.ndarray:
        m = self.mask(*names)
        return (self.end[m] - self.start[m]) / 1e6

    def self_ms(self, parents: Iterable[str], children: Iterable[str] | None
                ) -> np.ndarray:
        """Each parent span's duration minus the union of the intervals
        its children (optionally only those named) cover, in ms."""
        parent_idx = np.nonzero(self.mask(*parents))[0]
        child_mask = (self.parent >= 0) & self.done
        if children is not None:
            child_mask &= self.mask(*children)
        kids: dict[int, list[tuple[int, int]]] = {}
        for i in np.nonzero(child_mask)[0]:
            kids.setdefault(int(self.parent[i]), []).append(
                (int(self.start[i]), int(self.end[i]))
            )
        out = np.empty(len(parent_idx))
        for n, p in enumerate(parent_idx):
            lo, hi = int(self.start[p]), int(self.end[p])
            covered, reach = 0, lo
            for s, e in sorted(kids.get(int(p), ())):
                s, e = max(s, reach), min(e, hi)
                if e > s:
                    covered += e - s
                    reach = e
            out[n] = (hi - lo - covered) / 1e6
        return out


def load_span_sets(workdir: str) -> list[SpanSet]:
    return [
        SpanSet(path)
        for path in sorted(glob.glob(os.path.join(workdir, "spans-*.npz")))
    ]


def span_metrics(sets: list[SpanSet], ops: int) -> dict[str, float]:
    """Every span-derived per-layer metric; a layer that did not run on
    this workload reads 0."""
    served = [s for s in sets if s.role in QUERY_SERVER_ROLES]
    routers = [s for s in sets if s.role == "router"]

    def cat(parts: list[np.ndarray]) -> np.ndarray:
        return np.concatenate(parts) if parts else np.empty(0)

    def durations(group: list[SpanSet], *names: str) -> np.ndarray:
        return cat([s.durations_ms(*names) for s in group])

    def column(group: list[SpanSet], col: str, *names: str) -> np.ndarray:
        return cat([getattr(s, col)[s.mask(*names)] for s in group])

    dispatch = cat([
        s.self_ms(("session.inline", "session.dispatch"), None)
        for s in served
    ])
    inline_hits = column(served, "a", "session.inline")
    router_self = cat([
        s.self_ms(("router.dispatch",), ("router.link",)) for s in routers
    ])
    search_reads = column(served, "a", "core.search")
    range_reads = column(served, "a", "core.range")
    range_records = column(served, "b", "core.range")
    commits = cat([
        s.durations_ms("wal.commit")[s.a[s.mask("wal.commit")] > 0]
        for s in served
    ])
    preserved = column(served, "a", "mvcc.snapshot_close")
    buffer_reads = sum(s.meta["buffer_reads"] for s in served)
    buffer_hits = sum(s.meta["buffer_hits"] for s in served)
    per_op = 1.0 / max(ops, 1)
    return {
        "session.dispatch_ms.p50": percentile(dispatch, 50),
        "session.dispatch_ms.p99": percentile(dispatch, 99),
        "session.inline_frac": float(inline_hits.mean()) if len(inline_hits) else 0.0,
        "gate.read_wait_ms.p99": percentile(durations(served, "gate.read_wait"), 99),
        "gate.write_wait_ms.p99": percentile(durations(served, "gate.write_wait"), 99),
        "latch.wait_ms.p99": percentile(
            durations(served, "latch.read_wait", "latch.write_wait"), 99
        ),
        "aggregator.wait_ms.p50": percentile(durations(served, "aggregator.wait"), 50),
        "aggregator.wait_ms.p99": percentile(durations(served, "aggregator.wait"), 99),
        "router.self_ms.p50": percentile(router_self, 50),
        "router.self_ms.p99": percentile(router_self, 99),
        "core.search_ms.p50": percentile(durations(served, "core.search"), 50),
        "core.search_ms.p99": percentile(durations(served, "core.search"), 99),
        "core.page_reads_per_search.mean": float(search_reads.mean()) if len(search_reads) else 0.0,
        "core.page_reads_per_search.max": float(search_reads.max()) if len(search_reads) else 0.0,
        "core.write_ms.p50": percentile(durations(served, "core.insert", "core.delete"), 50),
        "core.pages_per_range_record": float(range_reads.sum()) / max(float(range_records.sum()), 1.0),
        "buffer.hit_rate": buffer_hits / max(buffer_reads, 1),
        "codec.decode_ms_per_op": float(durations(served, "codec.decode").sum()) * per_op,
        "codec.encode_ms_per_op": float(durations(served, "codec.encode").sum()) * per_op,
        "wal.commit_ms.p50": percentile(commits, 50),
        "wal.commit_ms.p99": percentile(commits, 99),
        "mvcc.preserved_versions.max": float(preserved.max()) if len(preserved) else 0.0,
        "trace.spans_dropped": float(sum(s.meta["dropped"] for s in sets)),
    }

"""The closed-loop load generator.

One asyncio process drives at most two pipelined ``QueryClient``
connections (protocol v3).  Each connection runs a fixed number of
worker coroutines; a worker sends its next request only when its
previous reply has arrived, so the in-flight depth per connection is at
most its worker count (a closed loop: every caller of this service
awaits its reply).  Every reply goes through the :class:`Oracle`;
latency is client-observed, from the request call to the reply, for
requests that succeeded.
"""

from __future__ import annotations

import asyncio
import dataclasses
import statistics
import time
from typing import Any

from repro.errors import ReproError
from repro.server.client import QueryClient

from layers import percentile
from workloads import BoxStream, Dataset, Oracle, OpStream, Workload

#: Pairs per INSERT_MANY request while preloading, and requests each
#: preload connection keeps in flight.
PRELOAD_BATCH = 256
PRELOAD_DEPTH = 8

_FAILURES = (ReproError, ConnectionError, OSError)


@dataclasses.dataclass
class Connection:
    client: QueryClient
    inflight: int = 0
    sends: int = 0
    depth_sum: int = 0

    def sent(self) -> None:
        self.inflight += 1
        self.sends += 1
        self.depth_sum += self.inflight

    @property
    def depth_mean(self) -> float:
        """Requests in flight on this connection, averaged over sends
        (the sent request included)."""
        return self.depth_sum / max(self.sends, 1)


@dataclasses.dataclass
class PhaseResult:
    wall_s: float
    cpu_s: float
    #: Per op kind (search, write, range): latencies of the requests
    #: that succeeded, and when each completed (seconds into the phase).
    latencies_ms: dict[str, list[float]]
    done_s: dict[str, list[float]]
    depth_means: list[float]
    attempted: int
    failed: int

    @property
    def ops(self) -> int:
        return sum(len(v) for v in self.latencies_ms.values())

    @property
    def writes(self) -> int:
        return len(self.latencies_ms["write"])

    def _windows(self, kind: str, windows: int) -> list[list[float]]:
        """The latencies of ``kind``, split by completion time into
        ``windows`` equal slices of the phase."""
        parts: list[list[float]] = [[] for _ in range(windows)]
        for t, ms in zip(self.done_s[kind], self.latencies_ms[kind]):
            parts[min(int(t / self.wall_s * windows), windows - 1)].append(ms)
        return parts

    def latency(self, kind: str, q: float, windows: int) -> float:
        """The ``q`` percentile latency of ``kind``: the median, over
        ``windows`` equal slices of the phase, of each slice's
        percentile, so a passing stall moves one slice, not the figure.
        0.0 when ``kind`` never completed."""
        parts = [p for p in self._windows(kind, windows) if p]
        if not parts:
            return 0.0
        return statistics.median(percentile(part, q) for part in parts)

    def ops_per_s(self, windows: int) -> float:
        """Completed requests per second: the median over ``windows``
        equal slices of the phase."""
        counts = [0] * windows
        for kind in self.latencies_ms:
            for i, part in enumerate(self._windows(kind, windows)):
                counts[i] += len(part)
        return statistics.median(counts) * windows / self.wall_s


async def connect(host: str, port: int, count: int) -> list[QueryClient]:
    return [
        await QueryClient.connect(host, port, negotiate=True)
        for _ in range(count)
    ]


async def preload(clients: list[QueryClient], dataset: Dataset) -> None:
    """Insert the whole preload through ``INSERT_MANY`` batches."""
    pairs = dataset.preload_pairs
    batches = iter(
        pairs[i:i + PRELOAD_BATCH] for i in range(0, len(pairs), PRELOAD_BATCH)
    )

    async def worker(client: QueryClient) -> None:
        for batch in batches:
            inserted = await client.insert_many(batch)
            if inserted != len(batch):
                raise RuntimeError(
                    f"preload inserted {inserted} of {len(batch)} keys"
                )

    await asyncio.gather(
        *(worker(c) for c in clients for _ in range(PRELOAD_DEPTH))
    )


class _Phase:
    """Counters and samples of one traffic phase."""

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.latencies_ms: dict[str, list[float]] = {
            "search": [], "write": [], "range": []
        }
        self.done_s: dict[str, list[float]] = {
            kind: [] for kind in self.latencies_ms
        }
        self.attempted = 0
        self.failed = 0

    def record(self, kind: str, started: float, finished: float) -> None:
        self.latencies_ms[kind].append((finished - started) * 1e3)
        self.done_s[kind].append(finished - self.start)


class Traffic:
    """The timed traffic of one workload over its connections."""

    def __init__(
        self,
        workload: Workload,
        dataset: Dataset,
        oracle: Oracle,
        clients: list[QueryClient],
        seed: int,
    ) -> None:
        self.workload = workload
        self.oracle = oracle
        self.conns = [Connection(c) for c in clients]
        self._point = [
            (conn, OpStream(dataset, workload.mix, seed * 1000 + n))
            for n, conn in enumerate(self.conns[: workload.point_conns])
        ]
        self._ranges = None
        if workload.range_depth:
            self._ranges = (
                self.conns[workload.point_conns],
                BoxStream(dataset.range_side(workload.range_keys), 2,
                          seed * 1000 + 999),
            )
        self.failures: list[str] = []

    async def run(self, seconds: float) -> PhaseResult:
        for conn in self.conns:
            conn.inflight = conn.sends = conn.depth_sum = 0
        phase = _Phase()
        deadline = phase.start + seconds
        workers = [
            self._point_worker(conn, stream, deadline, phase)
            for conn, stream in self._point
            for _ in range(self.workload.point_depth)
        ]
        if self._ranges is not None:
            conn, boxes = self._ranges
            workers += [
                self._range_worker(conn, boxes, deadline, phase)
                for _ in range(self.workload.range_depth)
            ]
        cpu0 = time.process_time()
        await asyncio.gather(*workers)
        return PhaseResult(
            wall_s=time.perf_counter() - phase.start,
            cpu_s=time.process_time() - cpu0,
            latencies_ms=phase.latencies_ms,
            done_s=phase.done_s,
            depth_means=[conn.depth_mean for conn in self.conns],
            attempted=phase.attempted,
            failed=phase.failed,
        )

    def _failed(self, what: str, exc: BaseException, phase: _Phase) -> None:
        phase.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")

    async def _point_worker(
        self, conn: Connection, stream: OpStream, deadline: float,
        phase: _Phase,
    ) -> None:
        oracle = self.oracle
        client = conn.client
        clock = time.perf_counter
        while clock() < deadline:
            kind, key = stream.next()
            taken: Any = None
            if kind == "insert":
                taken = oracle.take_insert()
            elif kind == "delete":
                taken = oracle.take_delete()
            if taken is None:
                kind = "search"
            conn.sent()
            phase.attempted += 1
            started = clock()
            try:
                if kind == "search":
                    reply = await client.search(key)
                elif kind == "insert":
                    reply = await client.insert(*taken)
                else:
                    reply = await client.delete(taken[0])
            except _FAILURES as exc:
                conn.inflight -= 1
                self._failed(kind, exc, phase)
                if kind == "insert":
                    oracle.insert_done(taken[0], taken[1], ok=False)
                elif kind == "delete":
                    oracle.delete_done(taken[0], taken[1], None, ok=False)
                continue
            finished = clock()
            conn.inflight -= 1
            if kind == "search":
                oracle.check_search(key, reply)
                phase.record("search", started, finished)
                continue
            if kind == "insert":
                oracle.insert_done(taken[0], taken[1], ok=True)
            else:
                oracle.delete_done(taken[0], taken[1], reply, ok=True)
            phase.record("write", started, finished)

    async def _range_worker(
        self, conn: Connection, boxes: BoxStream, deadline: float,
        phase: _Phase,
    ) -> None:
        client = conn.client
        clock = time.perf_counter
        while clock() < deadline:
            lows, highs = boxes.next()
            conn.sent()
            phase.attempted += 1
            started = clock()
            try:
                items = await client.range_search(lows, highs)
            except _FAILURES as exc:
                conn.inflight -= 1
                self._failed("range", exc, phase)
                continue
            finished = clock()
            conn.inflight -= 1
            self.oracle.check_range(lows, highs, items)
            phase.record("range", started, finished)


class WireCounter:
    """Frame bytes sent and received by this process's clients, counted
    by wrapping the protocol's frame codec (traced runs only)."""

    def __init__(self) -> None:
        from repro.server import protocol

        self._protocol = protocol
        self._encode = protocol.encode_frame
        self._decode = protocol.decode_frame
        self.bytes = 0

    def __enter__(self) -> "WireCounter":
        encode, decode = self._encode, self._decode

        def counted_encode(*args: Any, **kwargs: Any) -> bytes:
            frame = encode(*args, **kwargs)
            self.bytes += len(frame)
            return frame

        def counted_decode(body: bytes) -> Any:
            self.bytes += len(body) + 4  # the u32 length prefix
            return decode(body)

        self._protocol.encode_frame = counted_encode
        self._protocol.decode_frame = counted_decode
        return self

    def __exit__(self, *exc: Any) -> None:
        self._protocol.encode_frame = self._encode
        self._protocol.decode_frame = self._decode

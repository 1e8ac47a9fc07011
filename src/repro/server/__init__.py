"""Concurrent query service layer: serve an index over TCP.

The storage stack built in PRs 2-4 (buffer pool, WAL group commit,
batched executors, the writer-preferring latch) only pays off at scale
if concurrent requests can reach it.  This subpackage is that reach:

* :mod:`repro.server.protocol` — a length-prefixed binary wire
  protocol: one frame layout, tagged binary payloads;
* :mod:`repro.server.server` — :class:`QueryServer`, an asyncio TCP
  server multiplexing client sessions onto one
  :class:`~repro.core.facade.MultiKeyFile` through the store's
  :class:`~repro.storage.latch.ReadWriteLatch`;
* :mod:`repro.server.aggregator` — the write-coalescing aggregator:
  concurrently-arriving mutations are collected into a single
  :meth:`~repro.storage.disk.PageStore.group` group commit, so N
  concurrent writers pay ~1 WAL COMMIT + durability flush instead of N;
* :mod:`repro.server.session` / :mod:`repro.server.admission` — per
  connection framing, pipelining limits and bounded-in-flight admission
  control (backpressure replies instead of unbounded queueing);
* :mod:`repro.server.client` — :class:`QueryClient`, an asyncio
  pipelining client mirroring the ``MultiKeyFile`` API;
* :mod:`repro.server.metrics` — served-request counters exposed over
  the ``STATS`` opcode and asserted by the ``served`` bench cell;
* :mod:`repro.server.shard` — :class:`ShardManager`, range-partitioning
  the z-order keyspace into per-process shard workers;
* :mod:`repro.server.router` — :class:`ShardRouter`, the epoch-fenced
  scatter-gather front end over the shard workers;
* :mod:`repro.server.migrate` — :class:`ShardMigrator`, online shard
  split/merge under live traffic (committed-window tailing, fenced
  digest-verified cutover, zero acked-write loss).
"""

from repro.server.admission import AdmissionController, ReadWriteGate
from repro.server.aggregator import WriteAggregator
from repro.server.client import QueryClient, RemoteError, ServerBusy
from repro.server.metrics import ServerMetrics
from repro.server.protocol import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    Frame,
    Opcode,
    encode_frame,
    decode_frame,
)
from repro.server.migrate import ShardMigrator
from repro.server.router import RouterMetrics, ShardRouter
from repro.server.server import QueryServer
from repro.server.shard import (
    ShardManager,
    ShardSpec,
    boundaries_from_sample,
    shard_for,
    uniform_boundaries,
)

__all__ = [
    "AdmissionController",
    "ReadWriteGate",
    "WriteAggregator",
    "QueryClient",
    "RemoteError",
    "ServerBusy",
    "ServerMetrics",
    "RouterMetrics",
    "MAX_FRAME",
    "PROTOCOL_VERSION",
    "Frame",
    "Opcode",
    "encode_frame",
    "decode_frame",
    "QueryServer",
    "ShardManager",
    "ShardMigrator",
    "ShardSpec",
    "ShardRouter",
    "boundaries_from_sample",
    "shard_for",
    "uniform_boundaries",
]

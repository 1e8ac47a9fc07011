"""One benchmark server process: a direct QueryServer or a routed cluster.

Run by ``perfbench/run.py``, never by hand::

    python3 perfbench/serve.py --mode direct --workdir DIR [--trace]
    python3 perfbench/serve.py --mode routed --workdir DIR --sample FILE

``direct`` builds the store the way the ``served`` bench cell does
(``repro.bench.served.run_served_cell``): a BMEH-tree (b=8, 31-bit
widths, 2-d keys) on a WAL-backed page file (8 KiB slots,
``checkpoint_every=1024``) behind a 256-frame buffer pool, served by a
``QueryServer`` with a 2 ms coalescing window.  ``routed`` starts a
``ShardManager`` with 2 shard workers (same index shape, WAL + 256
frames each, quantile cuts from the sample keys) and a ``ShardRouter``
in this process.  The WAL's durability point is ``file.flush()``; no
``os.fsync`` is issued on the commit path.

When listening, the process writes ``ready.json`` into the workdir:
address, server pids and the WAL slot size of its page files.
Signals drive the rest:

* ``SIGUSR1`` — start of the timed phase: write a probe (peak RSS,
  ``os.fsync`` calls, CPU seconds) and, when traced, clear and arm the
  span recorder;
* ``SIGUSR2`` — end of the timed phase: disarm, write the spans, then
  the probe;
* ``SIGTERM`` — graceful stop: drain, final WAL checkpoint, exit.

Forked shard workers inherit the probe handlers and the tracing.
"""

from __future__ import annotations

import argparse
import asyncio
import inspect
import json
import os
import resource
import signal
import sys
import time
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import SpanRecorder, install  # noqa: E402

#: Shape of every index in the benchmark (ROADMAP baseline, served cell).
DIMS = 2
WIDTH = 31
PAGE_CAPACITY = 8
POOL_FRAMES = 256
COALESCE_WINDOW = 0.002
DIRECT_PAGE_SIZE = 8192
SHARDS = 2


def write_json(path: str, data: Any) -> None:
    """Write ``data`` so that readers never see a partial file."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    os.replace(tmp, path)


class ProcessProbe:
    """This process's probe state: role, ``os.fsync`` count, recorder."""

    def __init__(self, workdir: str, recorder: SpanRecorder | None) -> None:
        self.workdir = workdir
        #: ``direct``, ``router`` or (in a forked worker) ``shard``.
        self.role = "direct"
        self.fsync_calls = 0
        self.recorder = recorder
        fsync = os.fsync

        def counted_fsync(fd: Any) -> None:
            self.fsync_calls += 1
            fsync(fd)

        os.fsync = counted_fsync
        signal.signal(signal.SIGUSR1, self._on_start)
        signal.signal(signal.SIGUSR2, self._on_end)
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.role = "shard"
        if self.recorder is not None:
            self.recorder.armed = False
            self.recorder.clear()

    def _write(self, tag: str) -> None:
        write_json(
            os.path.join(self.workdir, f"probe-{os.getpid()}-{tag}.json"),
            {
                "pid": os.getpid(),
                "role": self.role,
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "fsync_calls": self.fsync_calls,
                "cpu_s": time.process_time(),
            },
        )

    def _on_start(self, _signum: int, _frame: Any) -> None:
        # The generator signals only while its traffic is quiesced, so no
        # span is open when the columns are replaced.
        if self.recorder is not None:
            self.recorder.clear()
            self.recorder.armed = True
        self._write("start")

    def _on_end(self, _signum: int, _frame: Any) -> None:
        if self.recorder is not None:
            self.recorder.armed = False
            self.recorder.dump(
                os.path.join(self.workdir, f"spans-{os.getpid()}.npz"),
                self.role,
            )
        self._write("end")


async def _until_sigterm() -> asyncio.Event:
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    return stop


def serve_direct(workdir: str) -> None:
    from repro.bench.harness import make_index
    from repro.core.facade import MultiKeyFile
    from repro.encoding import KeyCodec, UIntEncoder
    from repro.server import QueryServer
    from repro.storage import PageStore
    from repro.storage.buffer import BufferPool
    from repro.storage.wal import WALBackend

    store = PageStore(
        WALBackend(
            os.path.join(workdir, "direct.pages"),
            page_size=DIRECT_PAGE_SIZE,
            checkpoint_every=1024,
        ),
        pool=BufferPool(POOL_FRAMES),
    )
    try:
        index = make_index("BMEHTree", DIMS, PAGE_CAPACITY, store=store)
        codec = KeyCodec([UIntEncoder(WIDTH) for _ in range(DIMS)])
        file = MultiKeyFile.from_index(codec, index)

        async def main() -> None:
            stop = await _until_sigterm()
            async with QueryServer(
                file,
                max_inflight=64,
                session_pipeline=16,
                coalesce_window=COALESCE_WINDOW,
            ) as server:
                host, port = server.address
                write_json(
                    os.path.join(workdir, "ready.json"),
                    {"host": host, "port": port, "pids": [os.getpid()],
                     "page_size": DIRECT_PAGE_SIZE},
                )
                await stop.wait()

        asyncio.run(main())
    finally:
        store.close()


def serve_routed(workdir: str, sample_path: str) -> None:
    from repro.server.router import ShardRouter
    from repro.server.shard import ShardManager
    from repro.storage.wal import WALBackend

    # ShardManager's workers open their WAL with WALBackend's default slot.
    page_size = inspect.signature(WALBackend).parameters["page_size"].default

    with open(sample_path, encoding="utf-8") as fh:
        sample = [tuple(key) for key in json.load(fh)]
    manager = ShardManager(
        SHARDS,
        dims=DIMS,
        widths=WIDTH,
        page_capacity=PAGE_CAPACITY,
        workdir=os.path.join(workdir, "cluster"),
        sample_keys=sample,
        coalesce_window=COALESCE_WINDOW,
    )
    manager.start()
    try:

        async def main() -> None:
            stop = await _until_sigterm()
            async with ShardRouter(manager) as router:
                host, port = router.address
                write_json(
                    os.path.join(workdir, "ready.json"),
                    {
                        "host": host,
                        "port": port,
                        "pids": [os.getpid()]
                        + [spec.pid for spec in manager.specs],
                        "page_size": page_size,
                    },
                )
                await stop.wait()

        asyncio.run(main())
    finally:
        manager.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("direct", "routed"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--sample")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    recorder = SpanRecorder() if args.trace else None
    if recorder is not None:
        install(recorder)
    probe = ProcessProbe(args.workdir, recorder)
    if args.mode == "direct":
        serve_direct(args.workdir)
    else:
        probe.role = "router"
        serve_routed(args.workdir, args.sample)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span recording inside a traced server process.

:func:`install` wraps the public entry points of each layer from the
outside: the library code is not edited, only the class attributes and
module functions it calls through are replaced in this process.  Shard
workers forked from a traced router inherit the wrappers.

Each span records its name, start, end (``perf_counter_ns``), parent
span, the request it belongs to (a process-unique number assigned when
the session decodes the request's frame) and two integer attributes
(page reads, records, hit flags).  Spans live in memory, in typed
arrays, and only while the recorder is *armed* — the load generator
arms every server process at the start of the timed phase and disarms
it at the end, when :meth:`SpanRecorder.dump` writes them out.

Parents: a synchronous span's parent is the innermost open synchronous
span on its thread, else the task-level span in the current
``contextvars`` context.  Asynchronous spans set that context, and the
executor hop is patched to carry the context into the worker thread,
so a point read run on the executor still knows which dispatch it
serves.
"""

from __future__ import annotations

import array
import asyncio.base_events
import contextlib
import contextvars
import functools
import itertools
import json
import os
import threading
import time
from typing import Any, Callable

SPAN_NAMES = (
    "session.inline",
    "session.dispatch",
    "gate.read_wait",
    "gate.write_wait",
    "latch.read_wait",
    "latch.write_wait",
    "aggregator.wait",
    "router.dispatch",
    "router.link",
    "core.search",
    "core.insert",
    "core.delete",
    "core.range",
    "codec.decode",
    "codec.encode",
    "wal.commit",
    "mvcc.snapshot_close",
)
_ID = {name: i for i, name in enumerate(SPAN_NAMES)}

#: Spans kept per process (~50 bytes each); later ones are counted as
#: dropped, so a long traced run cannot exhaust memory.
MAX_SPANS = 1_000_000

_now = time.perf_counter_ns
_CURRENT: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_span", default=-1
)
_REQUEST: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_request", default=-1
)


class SpanRecorder:
    """Columnar in-memory span store for one process."""

    def __init__(self) -> None:
        self.armed = False
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._requests = itertools.count(1)
        self.clear()

    def clear(self) -> None:
        self.name = array.array("b")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("q")
        self.request = array.array("q")
        self.a = array.array("q")
        self.b = array.array("q")
        self.dropped = 0
        self.buffer_reads = 0
        self.buffer_hits = 0

    def current(self) -> int:
        top = getattr(self._tls, "span", -1)
        return top if top >= 0 else _CURRENT.get()

    def begin(self, name_id: int, parent: int) -> int:
        with self._lock:
            i = len(self.start)
            if i >= MAX_SPANS:
                self.dropped += 1
                return -1
            self.name.append(name_id)
            self.start.append(_now())
            self.end.append(0)
            self.parent.append(parent)
            self.request.append(_REQUEST.get())
            self.a.append(0)
            self.b.append(0)
        return i

    def finish(self, i: int, a: int = 0, b: int = 0) -> None:
        if 0 <= i < len(self.end):
            self.end[i] = _now()
            self.a[i] = a
            self.b[i] = b

    def page_reads(self) -> int:
        """``PageStore.read`` calls made so far on this thread."""
        return getattr(self._tls, "reads", 0)

    def count_page_read(self) -> None:
        tls = self._tls
        tls.reads = getattr(tls, "reads", 0) + 1

    def count_buffer_read(self, hit: bool) -> None:
        with self._lock:
            self.buffer_reads += 1
            self.buffer_hits += hit

    def new_request(self) -> None:
        _REQUEST.set(next(self._requests))

    def dump(self, path: str, role: str) -> None:
        """Write every recorded span to ``path`` (``.npz``)."""
        import numpy as np

        meta = {
            "role": role,
            "pid": os.getpid(),
            "names": list(SPAN_NAMES),
            "dropped": self.dropped,
            "buffer_reads": self.buffer_reads,
            "buffer_hits": self.buffer_hits,
        }
        columns = {
            column: np.frombuffer(getattr(self, column), dtype=dtype)
            for column, dtype in (
                ("name", np.int8), ("start", np.int64), ("end", np.int64),
                ("parent", np.int64), ("request", np.int64),
                ("a", np.int64), ("b", np.int64),
            )
        }
        tmp = path + ".tmp.npz"
        np.savez(tmp, meta=np.array(json.dumps(meta)), **columns)
        os.replace(tmp, path)

    # -- wrapper factories -------------------------------------------------

    def sync_span(
        self, name: str, fn: Callable[..., Any],
        attrs: Callable[[Any, Any, int], tuple[int, int]] | None = None,
    ) -> Callable[..., Any]:
        """Wrap a synchronous callable; ``attrs(self_arg, result,
        reads)`` computes the span's two attributes."""
        name_id = _ID[name]
        tls = self._tls

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.armed:
                return fn(*args, **kwargs)
            outer = getattr(tls, "span", -1)
            i = self.begin(name_id, outer if outer >= 0 else _CURRENT.get())
            reads = self.page_reads()
            tls.span = i if i >= 0 else outer
            result: Any = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tls.span = outer
                if attrs is None:
                    self.finish(i)
                else:
                    self.finish(i, *attrs(args[0], result,
                                          self.page_reads() - reads))

        return wrapper

    def async_span(
        self, name: str, fn: Callable[..., Any]
    ) -> Callable[..., Any]:
        name_id = _ID[name]

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.armed:
                return await fn(*args, **kwargs)
            i = self.begin(name_id, self.current())
            token = _CURRENT.set(i)
            try:
                return await fn(*args, **kwargs)
            finally:
                _CURRENT.reset(token)
                self.finish(i)

        return wrapper

    def wait_span(
        self, name: str, fn: Callable[..., Any]
    ) -> Callable[..., Any]:
        """Wrap an async context manager factory: the span is the time
        taken to enter it."""
        name_id = _ID[name]

        @functools.wraps(fn)
        @contextlib.asynccontextmanager
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            i = self.begin(name_id, self.current()) if self.armed else -1
            async with fn(*args, **kwargs) as entered:
                self.finish(i)
                yield entered

        return wrapper


def install(recorder: SpanRecorder) -> None:
    """Wrap every traced layer boundary in this process."""
    from repro.core.facade import MultiKeyFile
    from repro.server import protocol
    from repro.server.admission import ReadWriteGate
    from repro.server.aggregator import WriteAggregator
    from repro.server.router import ShardRouter, _ShardLink
    from repro.server.server import QueryServer
    from repro.server.session import INLINE_MISS
    from repro.storage.buffer import BufferPool
    from repro.storage.disk import PageStore, StoreSnapshot
    from repro.storage.latch import ReadWriteLatch
    from repro.storage.serializer import CodecRegistry
    from repro.storage.wal import WALBackend

    rec = recorder

    # Session and router entry points.
    QueryServer.try_dispatch_inline = rec.sync_span(
        "session.inline", QueryServer.try_dispatch_inline,
        lambda _self, result, _reads: (int(result is not INLINE_MISS), 0),
    )
    QueryServer.dispatch = rec.async_span(
        "session.dispatch", QueryServer.dispatch
    )
    ShardRouter.dispatch = rec.async_span(
        "router.dispatch", ShardRouter.dispatch
    )
    _ShardLink.request = rec.async_span("router.link", _ShardLink.request)

    decode_frame = protocol.decode_frame

    def traced_decode_frame(body: bytes) -> Any:
        frame = decode_frame(body)
        if rec.armed:
            rec.new_request()
        return frame

    protocol.decode_frame = traced_decode_frame

    # Gate and latch waits.
    ReadWriteGate.read_locked = rec.wait_span(
        "gate.read_wait", ReadWriteGate.read_locked
    )
    ReadWriteGate.write_locked = rec.wait_span(
        "gate.write_wait", ReadWriteGate.write_locked
    )
    ReadWriteLatch.acquire_read = rec.sync_span(
        "latch.read_wait", ReadWriteLatch.acquire_read
    )
    ReadWriteLatch.acquire_write = rec.sync_span(
        "latch.write_wait", ReadWriteLatch.acquire_write
    )

    # Aggregator: submission to the future's resolution.
    submit_nowait = WriteAggregator.submit_nowait
    wait_id = _ID["aggregator.wait"]

    @functools.wraps(submit_nowait)
    def traced_submit_nowait(self: Any, opcode: int, payload: Any) -> Any:
        if not rec.armed:
            return submit_nowait(self, opcode, payload)
        i = rec.begin(wait_id, rec.current())
        try:
            future = submit_nowait(self, opcode, payload)
        except BaseException:
            rec.finish(i)
            raise
        future.add_done_callback(lambda _f: rec.finish(i))
        return future

    WriteAggregator.submit_nowait = traced_submit_nowait

    # Directory descent and data pages.
    MultiKeyFile.search = rec.sync_span(
        "core.search", MultiKeyFile.search,
        lambda _self, _result, reads: (reads, 0),
    )
    MultiKeyFile.insert = rec.sync_span("core.insert", MultiKeyFile.insert)
    MultiKeyFile.delete = rec.sync_span("core.delete", MultiKeyFile.delete)
    range_search = MultiKeyFile.range_search
    range_id = _ID["core.range"]

    def traced_range(records: Any) -> Any:
        i = rec.begin(range_id, rec.current())
        reads = rec.page_reads()
        count = 0
        try:
            for record in records:
                count += 1
                yield record
        finally:
            rec.finish(i, rec.page_reads() - reads, count)

    @functools.wraps(range_search)
    def traced_range_search(self: Any, *args: Any, **kwargs: Any) -> Any:
        records = range_search(self, *args, **kwargs)
        return traced_range(records) if rec.armed else records

    MultiKeyFile.range_search = traced_range_search

    page_read = PageStore.read

    @functools.wraps(page_read)
    def counted_page_read(self: Any, page_id: int) -> Any:
        if rec.armed:
            rec.count_page_read()
        return page_read(self, page_id)

    PageStore.read = counted_page_read

    # Buffer pool and page codec.
    pool_read = BufferPool.read

    @functools.wraps(pool_read)
    def counted_pool_read(self: Any, page_id: int) -> Any:
        if not rec.armed:
            return pool_read(self, page_id)
        hits = self.hits
        obj = pool_read(self, page_id)
        rec.count_buffer_read(self.hits > hits)
        return obj

    BufferPool.read = counted_pool_read
    CodecRegistry.decode = rec.sync_span("codec.decode", CodecRegistry.decode)
    CodecRegistry.encode = rec.sync_span("codec.encode", CodecRegistry.encode)

    # WAL commits: ``a`` is 1 when the flush wrote a COMMIT record.
    flush = WALBackend.flush
    commit_id = _ID["wal.commit"]

    @functools.wraps(flush)
    def traced_flush(self: Any) -> None:
        if not rec.armed:
            return flush(self)
        before = self.checkpoints
        i = rec.begin(commit_id, rec.current())
        try:
            return flush(self)
        finally:
            rec.finish(i, self.checkpoints - before)

    WALBackend.flush = traced_flush

    # MVCC: preserved versions sampled as each snapshot closes.
    close = StoreSnapshot.close
    close_id = _ID["mvcc.snapshot_close"]

    @functools.wraps(close)
    def traced_close(self: Any) -> None:
        if not rec.armed or self.closed:
            return close(self)
        i = rec.begin(close_id, rec.current())
        preserved = self._store.preserved_versions
        try:
            return close(self)
        finally:
            rec.finish(i, preserved)

    StoreSnapshot.close = traced_close

    # Carry the span context across the executor hop.
    loop_cls = asyncio.base_events.BaseEventLoop
    run_in_executor = loop_cls.run_in_executor

    @functools.wraps(run_in_executor)
    def traced_run_in_executor(
        self: Any, executor: Any, func: Any, *args: Any
    ) -> Any:
        if rec.armed:
            return run_in_executor(
                self, executor, contextvars.copy_context().run, func, *args
            )
        return run_in_executor(self, executor, func, *args)

    loop_cls.run_in_executor = traced_run_in_executor  # type: ignore[method-assign]

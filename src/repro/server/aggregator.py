"""The write-coalescing aggregator: N concurrent writers, ~1 commit.

Every served mutation (``INSERT``, ``DELETE``, ``INSERT_MANY``,
``DELETE_MANY``) flows through one instance of :class:`WriteAggregator`
— the static analyzer (REP106) forbids any other service-layer code from
calling an index mutation method.  The aggregator is what turns PR 4's
group commit into a *service-level* win: a single client pays one WAL
COMMIT per mutation, but N clients whose mutations arrive within one
micro-batch window share a single
:meth:`~repro.storage.disk.PageStore.group` scope — one COMMIT record,
one durability flush, for the whole window (Conway & Farach-Colton's
amortize-across-the-batch argument, applied at the service boundary).

Mechanics
---------

Mutations are enqueued as ``(op, future)`` pairs.  A single drain task
takes the first pending op, sleeps the micro-batch window (default 2 ms)
to let concurrent arrivals pile up, then drains up to ``max_batch`` ops
and applies them in one executor hop:

* the batch runs under the service gate's **exclusive** side, so no
  read is in flight anywhere while the index restructures;
* inside ``store.group(metadata=...)``, each *single* mutation is
  applied under the store latch's exclusive side (``acquire_write``
  with a timeout: a stuck latch becomes a per-op ``latch-timeout``
  backpressure error, not a hung server); the ``_many`` forms take
  their own nested group and latch scopes, which nest transparently;
* key-level failures (duplicate key, missing key, bad dimensions) are
  caught per op — the index stays consistent, the op's future gets the
  error, and the window keeps going;
* a structural failure stops the window: the remaining ops fail with
  ``aborted``, and the already-applied prefix still commits (matching
  the batch executors' z-order-prefix partial-failure contract);
* if the commit itself fails, *every* op in the window — including ones
  applied in memory — is failed: an acknowledgement is a durability
  promise, and none was kept.

The caller observes its own result only; coalescing is invisible except
in the commit count, which is exactly what the ``served`` bench cell
gates (commits per mutation < 1 at concurrency >= 8).
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Executor
from typing import Any, Callable

from repro.core.facade import MultiKeyFile
from repro.errors import (
    CapacityError,
    DuplicateKeyError,
    EncodingError,
    KeyDimensionError,
    KeyNotFoundError,
    LatchTimeout,
    ProtocolError,
    StorageError,
)
from repro.server import protocol
from repro.server.admission import ReadWriteGate
from repro.server.metrics import ServerMetrics
from repro.server.protocol import Opcode

#: Failures that leave the index consistent: the op's future gets the
#: error, the rest of the commit window proceeds.
_KEY_LEVEL_ERRORS = (
    DuplicateKeyError,
    KeyNotFoundError,
    KeyDimensionError,
    EncodingError,
    CapacityError,
    LatchTimeout,
    ProtocolError,
)

#: Seconds the drain loop leaves the window open for concurrent
#: mutations to pile up before committing the batch.
DEFAULT_WINDOW = 0.002
#: Mutations per coalesced group commit, at most.
DEFAULT_MAX_BATCH = 64

#: The one INSERT success reply — goes straight to the frame encoder,
#: so one shared instance saves a dict allocation per acked insert.
_INSERT_OK = {"ok": True}


class _Op:
    """One pending mutation: a bound apply thunk plus its future."""

    __slots__ = ("apply", "single", "future", "outcome", "ops")

    def __init__(
        self,
        apply: Callable[[], Any],
        single: bool,
        future: "asyncio.Future[Any]",
        ops: list[tuple[str, Any, Any]],
    ) -> None:
        self.apply = apply
        self.single = single
        self.future = future
        self.outcome: tuple[str, Any] | None = None
        #: Key-level description of the mutation — ``("put", key, value)``
        #: / ``("del", key, None)`` tuples in application order — so a
        #: committed-window observer (migration tailing) can replay it
        #: without re-parsing the payload.
        self.ops = ops


class WriteAggregator:
    """Coalesce concurrently-submitted mutations into group commits."""

    def __init__(
        self,
        file: MultiKeyFile,
        gate: ReadWriteGate,
        metrics: ServerMetrics,
        executor: Executor | None = None,
        window: float = DEFAULT_WINDOW,
        max_batch: int = DEFAULT_MAX_BATCH,
        latch_timeout: float | None = 5.0,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if window < 0:
            raise ValueError("window must be >= 0 seconds")
        self._file = file
        self._gate = gate
        self._metrics = metrics
        self._executor = executor
        self._window = window
        self._max_batch = max_batch
        self._latch_timeout = latch_timeout
        self._queue: "asyncio.Queue[_Op | None]" = asyncio.Queue()
        self._drain_task: asyncio.Task | None = None
        self._stopping = False
        #: Committed-window observers: ``fn(committed_ops, tainted)``
        #: called on the event loop after a window's group commit
        #: succeeds and *before* any of its futures resolve — whatever a
        #: client has been acked, an observer has been shown first.
        #: ``tainted`` flags a window whose committed key set may exceed
        #: the published ops (a ``_many`` op failed after applying a
        #: prefix); migration treats a tainted tap as "re-verify by
        #: digest, do not trust the delta stream alone".
        self._observers: list[Callable[[list[tuple[str, Any, Any]], bool], None]] = []

    # -- committed-window observation (event loop side) ---------------------

    def add_observer(
        self, fn: Callable[[list[tuple[str, Any, Any]], bool], None]
    ) -> None:
        """Register a committed-window observer (see ``_observers``)."""
        self._observers.append(fn)

    def remove_observer(
        self, fn: Callable[[list[tuple[str, Any, Any]], bool], None]
    ) -> None:
        try:
            self._observers.remove(fn)
        except ValueError:
            pass

    def _publish_window(self, batch: list[_Op]) -> None:
        """Show a committed window to observers before acking it.

        Only ops whose outcome is ``ok`` are published — a key-level
        failure applied nothing.  An errored ``_many`` op *may* have
        applied a z-order prefix (the batch executors' partial-failure
        contract), and a structurally-failed single op may have mutated
        before raising; both taint the stream rather than guess.
        """
        if not self._observers:
            return
        committed: list[tuple[str, Any, Any]] = []
        tainted = False
        for op in batch:
            status, result = op.outcome or ("err", None)
            if status == "ok":
                committed.extend(op.ops)
            elif not op.single or not isinstance(result, _KEY_LEVEL_ERRORS):
                tainted = True
        if committed or tainted:
            for observer in list(self._observers):
                observer(committed, tainted)

    # -- submission (event loop side) ---------------------------------------

    def start(self) -> None:
        if self._drain_task is None:
            self._drain_task = asyncio.get_running_loop().create_task(
                self._drain(), name="repro-write-aggregator"
            )

    async def stop(self) -> None:
        """Drain every queued mutation (final group commit) and stop."""
        self._stopping = True
        if self._drain_task is not None:
            await self._queue.put(None)
            await self._drain_task
            self._drain_task = None
        # A submit that raced the sentinel would never be drained: fail
        # it cleanly rather than leaving its future pending forever.
        while True:
            try:
                op = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if op is not None and not op.future.cancelled():
                op.future.set_exception(
                    ProtocolError(
                        "server drained before this mutation was applied",
                        code="shutting-down",
                    )
                )

    def submit_nowait(self, opcode: int, payload: Any) -> "asyncio.Future[Any]":
        """Enqueue one mutation; the returned future resolves with its
        reply payload.

        Payload shape errors raise immediately (before the op enters a
        commit window); apply-time errors resolve the future with the
        exception, exactly as the index would have raised it.  This is
        the session fast path: no wrapping coroutine, the reply is
        framed straight from the future's done-callback.
        """
        if self._stopping:
            raise ProtocolError(
                "server is draining, retry elsewhere", code="shutting-down"
            )
        op = self._parse(opcode, payload)
        self._metrics.mutations_submitted += 1
        self.start()
        self._queue.put_nowait(op)
        return op.future

    async def submit(self, opcode: int, payload: Any) -> Any:
        """Enqueue one mutation and await its reply payload."""
        return await self.submit_nowait(opcode, payload)

    def _parse(self, opcode: int, payload: Any) -> _Op:
        """Validate the payload and bind the apply thunk."""
        file = self._file
        ops: list[tuple[str, Any, Any]]
        if opcode == Opcode.INSERT:
            key = protocol.key_field(payload)
            value = payload.get("value") if isinstance(payload, dict) else None
            ok = _INSERT_OK  # shared reply: encoded, never mutated

            def apply() -> Any:
                file.insert(key, value)
                return ok

            single = True
            ops = [("put", key, value)]
        elif opcode == Opcode.DELETE:
            key = protocol.key_field(payload)

            def apply() -> Any:
                return {"value": file.delete(key)}

            single = True
            ops = [("del", key, None)]
        elif opcode == Opcode.INSERT_MANY:
            pairs = protocol.field(payload, "pairs", list)
            for pair in pairs:
                if not isinstance(pair, list) or len(pair) != 2 \
                        or not isinstance(pair[0], list):
                    raise ProtocolError(
                        "pairs must be [[key, value], ...]",
                        code="bad-payload",
                    )

            def apply() -> Any:
                return {"inserted": file.insert_many(
                    [(key, value) for key, value in pairs]
                )}

            single = False
            ops = [("put", key, value) for key, value in pairs]
        elif opcode == Opcode.DELETE_MANY:
            keys = protocol.field(payload, "keys", list)
            for key in keys:
                if not isinstance(key, list):
                    raise ProtocolError(
                        "keys must be [key, ...]", code="bad-payload"
                    )

            def apply() -> Any:
                return {"values": file.delete_many(keys)}

            single = False
            ops = [("del", key, None) for key in keys]
        else:
            raise ProtocolError(
                f"opcode {opcode} is not a mutation", code="bad-opcode"
            )
        future: "asyncio.Future[Any]" = (
            asyncio.get_running_loop().create_future()
        )
        return _Op(apply, single, future, ops)

    # -- the drain loop -------------------------------------------------------

    async def _drain(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            if first is None:
                return
            batch = [first]
            if self._window > 0 and self._queue.empty():
                # The micro-batch window: let concurrently-arriving
                # mutations join this commit.  Skipped when the queue
                # already holds company for this op — sleeping would
                # only add latency, not coalescing.
                await asyncio.sleep(self._window)
            stop_after = False
            while len(batch) < self._max_batch:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is None:
                    stop_after = True
                    break
                batch.append(nxt)
            async with self._gate.write_locked():
                try:
                    await loop.run_in_executor(
                        self._executor, self._apply_window, batch
                    )
                except BaseException as exc:  # commit failure: fail all
                    for op in batch:
                        op.outcome = ("err", exc)
            # Publish the committed window *before* resolving futures:
            # an acked write has always been shown to every observer.
            self._publish_window(batch)
            applied = 0
            for op in batch:
                status, result = op.outcome or (
                    "err",
                    StorageError("mutation window produced no outcome"),
                )
                if op.future.cancelled():
                    continue
                if status == "ok":
                    applied += 1
                    op.future.set_result(result)
                else:
                    self._metrics.mutation_errors += 1
                    op.future.set_exception(result)
            self._metrics.mutations_applied += applied
            if applied:
                self._metrics.record_group(len(batch))
            if stop_after:
                return

    # -- batch application (executor thread) ----------------------------------

    def _apply_window(self, batch: list[_Op]) -> None:
        """Apply one coalesced window under a single group commit.

        Runs in an executor thread while the event loop holds the
        service gate's exclusive side, so no served read can observe a
        half-applied window.  Single ops additionally hold the store
        latch's exclusive side (with a timeout) against non-service
        readers; the ``_many`` forms manage their own nested latch and
        group scopes.
        """
        store = self._file.store
        index = self._file.index
        aborted: BaseException | None = None
        with store.group(metadata=index._commit_metadata):
            for op in batch:
                if aborted is not None:
                    op.outcome = (
                        "err",
                        StorageError(
                            "aborted: an earlier mutation in the same "
                            f"commit window failed structurally ({aborted})"
                        ),
                    )
                    continue
                try:
                    if op.single:
                        with store.latch.write(timeout=self._latch_timeout):
                            result = op.apply()
                    else:
                        result = op.apply()
                    op.outcome = ("ok", result)
                except _KEY_LEVEL_ERRORS as exc:
                    op.outcome = ("err", exc)
                except BaseException as exc:
                    op.outcome = ("err", exc)
                    aborted = exc

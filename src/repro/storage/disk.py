"""The page store: allocation, pinning, buffering and charged page access."""

from __future__ import annotations

import contextlib
import copy
import os
import struct
import threading
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterator

from repro.errors import SerializationError, StorageError
from repro.storage.iostats import IOStats, OperationCounter
from repro.storage.latch import ReadWriteLatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.storage.buffer import BufferPool


class Backend(ABC):
    """Physical placement of page images; no accounting, no policy."""

    @abstractmethod
    def store(self, page_id: int, obj: Any) -> None: ...

    @abstractmethod
    def load(self, page_id: int) -> Any: ...

    @abstractmethod
    def discard(self, page_id: int) -> None: ...

    @abstractmethod
    def __contains__(self, page_id: int) -> bool: ...

    @abstractmethod
    def page_ids(self) -> Iterator[int]: ...

    def close(self) -> None:
        """Release any external resources (files)."""


_MISSING = object()


class MemoryBackend(Backend):
    """Pages held as live Python objects — the benchmark configuration."""

    def __init__(self) -> None:
        self._pages: dict[int, Any] = {}

    def store(self, page_id: int, obj: Any) -> None:
        self._pages[page_id] = obj

    def load(self, page_id: int) -> Any:
        try:
            return self._pages[page_id]
        except KeyError:
            raise StorageError(f"page {page_id} does not exist") from None

    def discard(self, page_id: int) -> None:
        if self._pages.pop(page_id, _MISSING) is _MISSING:
            raise StorageError(f"page {page_id} does not exist")

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._pages

    def page_ids(self) -> Iterator[int]:
        return iter(list(self._pages))


class FileBackend(Backend):
    """Fixed-size page slots in a single file.

    Slot ``i`` lives at byte offset ``header + i * page_size``; each slot
    starts with ``u32`` image length (0 ⇒ free slot) followed by the coded
    image from a :class:`~repro.storage.serializer.CodecRegistry`.  A page
    image larger than its slot raises :class:`SerializationError` — the
    fixed page size is the whole point of the paper's design space.
    """

    _MAGIC = b"BMEH"
    _HEADER = struct.Struct("<4sI")  # magic, page_size
    _SLOT = struct.Struct("<I")

    def __init__(
        self,
        path: str,
        page_size: int = 4096,
        registry: Any | None = None,
        opener: Callable[[str, str], Any] | None = None,
    ) -> None:
        if page_size < 64:
            raise StorageError("page size too small to hold any record")
        if registry is None:
            from repro.storage.serializer import default_registry

            registry = default_registry()
        self._registry = registry
        self._path = path
        self._page_size = page_size
        exists = os.path.exists(path) and os.path.getsize(path) > 0
        #: ``opener(path, mode)`` replaces the builtin ``open`` — the
        #: fault-injection harness passes ``FaultInjector.open`` here to
        #: make every physical write/flush a potential crash point.
        self._file = (opener or open)(path, "r+b" if exists else "w+b")
        #: Cached slot count and live-slot map: membership checks and
        #: loads must not seek to EOF / re-read slot headers per call.
        self._slots = 0
        self._live: set[int] = set()
        if exists:
            magic, stored_size = self._HEADER.unpack(
                self._file.read(self._HEADER.size)
            )
            if magic != self._MAGIC:
                raise StorageError(f"{path} is not a page file")
            if stored_size != page_size:
                raise StorageError(
                    f"{path} was created with page size {stored_size}"
                )
            self._file.seek(0, os.SEEK_END)
            payload = self._file.tell() - self._HEADER.size
            # Ceiling division: the final slot may be written unpadded
            # (store_image stops at the image's last byte), so a partial
            # trailing slot is still a live slot.
            self._slots = -(-max(payload, 0) // self._page_size)
            self._scan_live_slots()
        else:
            self._file.write(self._HEADER.pack(self._MAGIC, page_size))
            self._file.flush()

    @property
    def page_size(self) -> int:
        return self._page_size

    @property
    def payload_capacity(self) -> int:
        """Largest page image a slot can hold (page size minus header)."""
        return self._page_size - self._SLOT.size

    @property
    def registry(self) -> Any:
        """The codec registry used to encode/decode page images."""
        return self._registry

    def _offset(self, page_id: int) -> int:
        return self._HEADER.size + page_id * self._page_size

    def _scan_live_slots(self) -> None:
        """One pass over the slot headers at open; after this the live
        map is maintained incrementally by ``store``/``discard``."""
        for page_id in range(self._slots):
            self._file.seek(self._offset(page_id))
            header = self._file.read(self._SLOT.size)
            if len(header) < self._SLOT.size:
                break  # truncated final slot: treat as free
            if self._SLOT.unpack(header)[0] > 0:
                self._live.add(page_id)

    def store(self, page_id: int, obj: Any) -> None:
        self.store_image(page_id, self._registry.encode(obj))

    def store_image(self, page_id: int, image: bytes | memoryview) -> None:
        """Write an already-encoded image into its slot.

        The write path of :meth:`store`, split out so the write-ahead
        log can apply committed images at checkpoint/recovery without
        re-encoding (or even being able to decode) them.  The slot is
        written unpadded (header + image in one ``write()``): readers
        bound decoding by the stored length, so stale tail bytes are
        inert and the page-size pad copy is saved.
        """
        if len(image) > self.payload_capacity:
            raise SerializationError(
                f"page image of {len(image)} bytes exceeds the "
                f"{self._page_size}-byte slot"
            )
        self._file.seek(self._offset(page_id))
        self._file.write(b"".join((self._SLOT.pack(len(image)), image)))
        if page_id >= self._slots:
            self._slots = page_id + 1
        self._live.add(page_id)

    def load(self, page_id: int) -> Any:
        if page_id not in self._live:
            raise StorageError(f"page {page_id} does not exist")
        self._file.seek(self._offset(page_id))
        slot = self._file.read(self._page_size)
        (length,) = self._SLOT.unpack_from(slot, 0)
        if length == 0:
            raise StorageError(f"page {page_id} does not exist")
        if self._SLOT.size + length > min(len(slot), self._page_size):
            raise StorageError(
                f"page {page_id}: corrupt slot — stored length {length} "
                f"exceeds the {self._page_size - self._SLOT.size}-byte "
                "slot payload"
            )
        # Zero-copy decode: the codecs slice the slot through a
        # memoryview instead of copying the image out of it.
        view = memoryview(slot)
        return self._registry.decode(
            view[self._SLOT.size : self._SLOT.size + length]
        )

    def discard(self, page_id: int) -> None:
        if page_id not in self._live:
            raise StorageError(f"page {page_id} does not exist")
        self.apply_discard(page_id)

    def apply_discard(self, page_id: int) -> None:
        """Mark a slot free without requiring it to be live.

        WAL replay re-applies committed discards after a crash; the
        target slot may hold a torn image, a stale image, or already be
        free — the zeroed length must land regardless (idempotence).
        """
        if page_id < self._slots:
            self._file.seek(self._offset(page_id))
            self._file.write(self._SLOT.pack(0))
        self._live.discard(page_id)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._live

    def page_ids(self) -> Iterator[int]:
        return iter(sorted(self._live))

    def flush(self) -> None:
        self._file.flush()

    def close(self) -> None:
        self._file.flush()
        self._file.close()


class StoreSnapshot:
    """A pinned, consistent view of a :class:`PageStore` at open time.

    Returned by :meth:`PageStore.snapshot`.  Reads through it resolve to
    the page contents as of the snapshot's open — copy-on-write version
    entries preserved by later writers, or the live page when it has not
    changed since — with **no read latch held**: a writer is never
    blocked by a snapshot scan, and a snapshot scan never times out
    waiting on a writer.  Reads are charged to the store's logical
    ledger exactly like :meth:`PageStore.read`.

    The returned page objects are shared, frozen views: callers must
    not mutate them.  Use as a context manager (closing releases the
    pinned version epoch so the store can retire preserved copies), and
    wrap index traversals in :meth:`reading` so their internal
    ``store.read()`` calls transparently resolve against this snapshot.
    """

    __slots__ = ("_store", "epoch", "_live", "_closed")

    def __init__(
        self, store: "PageStore", epoch: int, live_ids: frozenset[int]
    ) -> None:
        self._store = store
        #: The pinned version epoch: every page whose content was
        #: committed at or before this epoch is visible.
        self.epoch = epoch
        self._live = live_ids
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._live

    def page_ids(self) -> Iterator[int]:
        """The pages that were live when the snapshot opened."""
        return iter(sorted(self._live))

    def read(self, page_id: int) -> Any:
        """The page's content as of the snapshot; charged like a read."""
        if self._closed:
            raise StorageError("snapshot is closed")
        if page_id not in self._live:
            raise StorageError(
                f"page {page_id} is not part of this snapshot"
            )
        return self._store._snapshot_read(page_id, self.epoch)

    @contextlib.contextmanager
    def reading(self) -> Iterator["StoreSnapshot"]:
        """Route this thread's ``store.read()`` calls through the
        snapshot for the scope of the block.

        The overlay is thread-local, so concurrent writers in other
        threads keep reading (and preserving) live state; fan-out
        helpers (:func:`~repro.core.rangequery.scan_parallel`) re-enter
        the overlay in their worker threads via
        :meth:`PageStore.current_snapshot`.
        """
        store = self._store
        previous = getattr(store._tls, "snapshot", None)
        store._tls.snapshot = self
        try:
            yield self
        finally:
            store._tls.snapshot = previous

    def close(self) -> None:
        """Release the pinned epoch; idempotent.  Once the last snapshot
        pinning an epoch closes, the store retires every preserved page
        version no remaining snapshot can see."""
        if not self._closed:
            self._closed = True
            self._store._release_snapshot(self.epoch)

    def __enter__(self) -> "StoreSnapshot":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class PageStore:
    """Allocation + charged access on top of a backend.

    Page ids are monotonically increasing and never recycled, so an id is
    a valid dedup token for the lifetime of the store.  The paper's
    accounting conventions live here:

    * :meth:`operation` opens a scope in which each page costs at most one
      read and one write;
    * :meth:`pin` marks a page memory-resident (the root node) — pinned
      pages are charged nothing;
    * :meth:`count_virtual_read` / :meth:`count_virtual_write` charge
      accesses to *virtual* pages (the one-level scheme's directory is an
      addressing array, not a stored object, but its page traffic is real).

    Two ledgers: :attr:`stats` counts *logical* accesses under the paper's
    model (λ, λ′, ρ); :attr:`backend_stats` counts *physical* backend
    loads/stores on the data path.  Without a pool the two track each
    other; with a :class:`~repro.storage.buffer.BufferPool` attached
    (``pool=`` or :meth:`attach_pool`) reads are served read-through,
    writes are buffered write-back, and the physical ledger shows the
    saving.  :meth:`free` drops the page's frame before discarding the
    backend slot, so a later :meth:`flush` cannot resurrect a freed page.
    """

    def __init__(
        self, backend: Backend | None = None, pool: "BufferPool | None" = None
    ) -> None:
        self._backend = backend or MemoryBackend()
        self.stats = IOStats()
        self.backend_stats = IOStats()
        self._pinned: set[int] = set()
        self._op: OperationCounter | None = None
        self._pool: "BufferPool | None" = None
        #: Reader/mutator discipline for multi-threaded scans; see
        #: :mod:`repro.storage.latch` and :meth:`read_shared`.
        self._latch = ReadWriteLatch()
        #: The store-internal mutex (reentrant: a shared read holds it
        #: across the pool *and* the backend hop).  Serializes buffer
        #: LRU movement, ledger dedup sets, the byte backends' seeking
        #: file handle, and all MVCC version bookkeeping.
        self._frame_lock = threading.RLock()
        #: MVCC state.  ``_mvcc_epoch`` bumps once per snapshot open;
        #: ``_page_stamp[pid]`` is the epoch at which a page's content
        #: last changed; ``_pinned_epochs`` maps a pinned epoch to its
        #: open-snapshot refcount; ``_versions[pid]`` holds preserved
        #: ``(valid_from_stamp, frozen object)`` copies — appended by
        #: writers (copy-on-write) before they supersede content some
        #: open snapshot still needs, retired when the last snapshot
        #: that could see them closes.
        self._mvcc_epoch = 0
        self._page_stamp: dict[int, int] = {}
        self._pinned_epochs: dict[int, int] = {}
        self._versions: dict[int, list[tuple[int, Any]]] = {}
        #: Thread-local snapshot overlay (see :meth:`StoreSnapshot.reading`).
        self._tls = threading.local()
        existing = list(self._backend.page_ids())
        self._next_id = max(existing) + 1 if existing else 0
        self._live = len(existing)
        self._allocated_ever = self._next_id
        if pool is not None:
            self.attach_pool(pool)

    # -- buffering ---------------------------------------------------------

    @property
    def backend(self) -> Backend:
        """The physical backend (read-only view, for the sanitizer)."""
        return self._backend

    @property
    def pool(self) -> "BufferPool | None":
        """The attached buffer pool, if any."""
        return self._pool

    @property
    def io_lock(self) -> threading.RLock:
        """The store-internal mutex, for callers that must touch the
        physical backend directly (the replication checkpoint transfer
        enumerating committed images) without racing the pool's or the
        snapshot machinery's backend hops."""
        return self._frame_lock

    def attach_pool(self, pool: "BufferPool") -> "BufferPool":
        """Install ``pool`` between this store and its backend.

        The pool receives *counted* load/store callables, so every
        physical access it makes is charged to :attr:`backend_stats`,
        and the store's pinned set, so pinned pages are never evicted.
        """
        if self._pool is not None:
            raise StorageError("a buffer pool is already attached")
        pool.bind(self._backend_load, self._backend_store, self.is_pinned)
        self._pool = pool
        return pool

    def _backend_load(self, page_id: int) -> Any:
        # Under the frame lock: byte backends share one seeking file
        # handle, and latch-free snapshot reads may hit it concurrently.
        with self._frame_lock:
            obj = self._backend.load(page_id)
            self.backend_stats.reads += 1
        return obj

    def _backend_store(self, page_id: int, obj: Any) -> None:
        with self._frame_lock:
            self._backend.store(page_id, obj)
            self.backend_stats.writes += 1

    def flush(self) -> None:
        """Write back every dirty frame and flush the backend.

        Holds the exclusive latch side: a flush restructures frame and
        backend state and must never interleave with in-flight
        :meth:`read_shared` calls from scan workers.  The frame lock is
        additionally held across the pool write-back so a latch-free
        snapshot read never interleaves with eviction traffic.
        """
        with self._latch.write():
            with self._frame_lock:
                if self._pool is not None:
                    self._pool.flush()
                backend_flush = getattr(self._backend, "flush", None)
                if backend_flush is not None:
                    backend_flush()

    @contextlib.contextmanager
    def group(
        self, metadata: Callable[[], bytes | None] | None = None
    ) -> Iterator[None]:
        """Group-commit scope: one durability point for a whole batch.

        On a WAL backend, every record staged inside the block is
        coalesced under a single COMMIT + flush at exit (see
        :meth:`~repro.storage.wal.WALBackend.begin_group`); on any other
        backend the scope is a transparent no-op.  ``metadata`` is a
        provider called *at commit time* — after the batch's last
        mutation — so the staged metadata blob can never be stale; it
        may return ``None`` to commit without staging metadata.

        If the block (or the write-back at exit) raises, nothing is
        committed: recovery rolls back to the previous commit point, the
        batch's partial-failure contract.
        """
        begin = getattr(self._backend, "begin_group", None)
        if begin is None:
            yield
            return
        begin()
        try:
            yield
        except BaseException:
            with self._frame_lock:
                self._backend.end_group(commit=False)
            raise
        else:
            try:
                # Pool write-back + backend flush; the backend-level
                # flush is deferred inside the group, so this only
                # stages the batch's remaining dirty frames.
                self.flush()
            except BaseException:
                with self._frame_lock:
                    self._backend.end_group(commit=False)
                raise
            # Committing checkpoints the batch into the inner page file
            # — seeking writes on the handle latch-free snapshot reads
            # also seek, so the frame lock must cover it.  Taken only
            # here, never around ``self.flush()`` above (flush acquires
            # latch then frame lock; inverting that order deadlocks).
            with self._frame_lock:
                self._backend.end_group(commit=True, metadata=metadata)

    # -- lifecycle ---------------------------------------------------------

    @property
    def page_count(self) -> int:
        """Number of live pages."""
        return self._live

    @property
    def pages_allocated(self) -> int:
        """Total pages ever allocated (frees do not decrement)."""
        return self._allocated_ever

    def allocate(self, obj: Any) -> int:
        """Create a page holding ``obj``; charges one write.

        Allocation writes through even with a pool attached — the
        backend's slot catalogue stays authoritative for existence —
        and the fresh page is admitted as a clean frame (a just-split
        page is about to be hot).
        """
        page_id = self._next_id
        self._next_id += 1
        self._allocated_ever += 1
        self._live += 1
        self._backend_store(page_id, obj)
        if self._pool is not None:
            self._pool.admit_clean(page_id, obj)
        if self._pinned_epochs:
            # A page born after a snapshot opened is stamped past that
            # snapshot's epoch (and is outside its live set anyway).
            with self._frame_lock:
                self._page_stamp[page_id] = self._mvcc_epoch
        self._charge_write(page_id)
        return page_id

    def free(self, page_id: int) -> None:
        """Drop a page.  Deallocation is a catalogue update; the paper
        charges no data access for it.

        The page's buffer frame (and dirty bit) is dropped *before* the
        backend slot is discarded: a stale dirty frame surviving a free
        would re-``store()`` the page on the next flush/eviction —
        resurrecting a ghost page and corrupting the live count.
        """
        if page_id in self._pinned:
            raise StorageError(f"cannot free pinned page {page_id}")
        if self._pinned_epochs:
            with self._frame_lock:
                # Preserve the doomed content for open snapshots before
                # the slot disappears.
                self._preserve(page_id)
                self._page_stamp[page_id] = self._mvcc_epoch
                if self._pool is not None:
                    self._pool.drop(page_id)
                self._backend.discard(page_id)
        else:
            with self._frame_lock:
                if self._pool is not None:
                    self._pool.drop(page_id)
                # A WAL discard can trip the checkpoint threshold and
                # rewrite the inner file; keep it off the seeking handle
                # while a snapshot read is mid-``load``.
                self._backend.discard(page_id)
        self._live -= 1

    def apply_replicated(
        self,
        ops: list[tuple[str, int, bytes | None]],
        metadata: bytes | None = None,
    ) -> None:
        """Apply one shipped replication batch, a follower's only write
        path.  Each page it stores or discards is preserved for open
        snapshots and re-stamped first, as :meth:`write` and :meth:`free`
        do; the frame lock also covers the backend hop, because snapshot
        reads load through the same seeking file handle."""
        with self._frame_lock:
            touched = {page_id for _, page_id, _ in ops}
            for page_id in touched:
                if self._pinned_epochs:
                    self._preserve(page_id)
                    self._page_stamp[page_id] = self._mvcc_epoch
                if self._pool is not None:
                    self._pool.drop(page_id)
            self._live -= sum(1 for pid in touched if pid in self._backend)
            self._backend.apply_replicated(ops, metadata)
            self._live += sum(1 for pid in touched if pid in self._backend)

    # -- access ------------------------------------------------------------

    def read(self, page_id: int) -> Any:
        snap = getattr(self._tls, "snapshot", None)
        if snap is not None:
            # The thread entered a snapshot overlay: resolve against the
            # pinned version instead of live state (latch-free).
            return snap.read(page_id)
        if self._pinned_epochs:
            # Copy-on-first-access: the caller may mutate the returned
            # object in place (the memory-backend idiom), so a version
            # an open snapshot still needs must be preserved *now*,
            # before the read returns.
            with self._frame_lock:
                self._preserve(page_id)
                return self._read_live(page_id)
        return self._read_live(page_id)

    def _read_live(self, page_id: int) -> Any:
        if self._pool is not None:
            obj = self._pool.read(page_id)
        else:
            obj = self._backend_load(page_id)
        self._charge_read(page_id)
        return obj

    @property
    def latch(self) -> ReadWriteLatch:
        """The store's read-write latch (see :mod:`repro.storage.latch`)."""
        return self._latch

    def read_shared(self, page_id: int) -> Any:
        """A charged read that is safe to issue from scan worker threads.

        Holds the latch's shared side (so an exclusive holder — a flush,
        a group commit — is never interleaved) and a store-internal
        mutex that serializes the non-thread-safe bookkeeping a read
        performs: buffer-pool LRU movement and eviction, hit/miss
        counters, and the logical ledger's dedup sets.  Accounting is
        identical to :meth:`read`.  Single-threaded code should keep
        calling :meth:`read`; concurrent readers must all come through
        here.  A thread inside a snapshot overlay skips the latch
        entirely — snapshot reads are consistent by construction and
        must never wait on (or be timed out by) a writer.
        """
        if getattr(self._tls, "snapshot", None) is not None:
            return self.read(page_id)
        with self._latch.read():
            with self._frame_lock:
                return self.read(page_id)

    def write(self, page_id: int, obj: Any | None = None) -> None:
        """Mark a page dirty (and optionally replace its object).

        With the in-memory backend, index code mutates the loaded object
        directly and calls ``write(pid)`` to record the access; with a
        byte backend the updated object must be passed so the image is
        re-encoded.  With a pool attached the write is buffered dirty
        and reaches the backend on eviction or flush.

        Only :meth:`allocate` creates pages: a write to an id that was
        never allocated (or was freed) raises on *both* paths.  Without
        the check, the ``obj`` path would silently materialize a page —
        the pool would buffer it dirty, a byte backend would create the
        slot — desyncing :attr:`page_count` / the backend's live map
        from reality and breaking the sanitizer's reachability census.
        """
        if page_id not in self._backend:
            raise StorageError(f"page {page_id} does not exist")
        if self._pinned_epochs:
            with self._frame_lock:
                # Blind replacement path (obj without a prior read):
                # the superseded content may still be the version an
                # open snapshot needs — preserve before overwriting.
                # No-op when the writer's own read() already did.
                self._preserve(page_id)
                self._page_stamp[page_id] = self._mvcc_epoch
                self._write_live(page_id, obj)
        else:
            self._write_live(page_id, obj)
        self._charge_write(page_id)

    def _write_live(self, page_id: int, obj: Any | None) -> None:
        if obj is not None:
            if self._pool is not None:
                self._pool.write(page_id, obj)
            else:
                self._backend_store(page_id, obj)
        elif not isinstance(self._backend, MemoryBackend):
            raise StorageError(
                "byte backends need the page object passed to write()"
            )
        elif self._pool is not None:
            self._pool.mark_dirty(page_id)

    def peek(self, page_id: int) -> Any:
        """Uncharged read, for invariant checks and analysis tooling.

        Coherent with the pool: a buffered frame is newer than the
        backend image, so a resident frame wins.  Peeks stay off both
        ledgers and do not disturb the LRU order.
        """
        if self._pool is not None:
            frame = self._pool.peek(page_id, _MISSING)
            if frame is not _MISSING:
                return frame
        with self._frame_lock:
            return self._backend.load(page_id)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._backend

    def page_ids(self) -> Iterator[int]:
        return self._backend.page_ids()

    def close(self) -> None:
        self.flush()
        self._backend.close()

    # -- MVCC snapshots ----------------------------------------------------

    def snapshot(self, timeout: float | None = None) -> StoreSnapshot:
        """Open a consistent point-in-time view of the store.

        Bumps the version epoch and pins the previous one: from here on,
        any writer about to supersede content stamped at or before the
        pinned epoch first preserves a copy (copy-on-write), so reads
        through the returned :class:`StoreSnapshot` see exactly the
        open-time state — with no latch held during the reads and zero
        writer blocking.  Preserved copies are retired when the last
        snapshot pinning them closes.

        Opening holds the exclusive latch side *briefly* (never during
        the snapshot's reads), so it aligns with operation boundaries
        under the same convention checkpoints use: callers that mutate
        from other threads must wrap whole index operations in
        ``latch.write()`` (the service layer's aggregator discipline)
        or a snapshot could capture a half-applied split.
        """
        with self._latch.write(timeout=timeout):
            with self._frame_lock:
                epoch = self._mvcc_epoch
                self._mvcc_epoch = epoch + 1
                self._pinned_epochs[epoch] = (
                    self._pinned_epochs.get(epoch, 0) + 1
                )
                live = frozenset(self.page_ids())
                # Pinned pages (the root) may be mutated through a
                # retained reference before any store access re-touches
                # them; preserve their open-time state eagerly.
                for page_id in self._pinned:
                    self._preserve(page_id)
        return StoreSnapshot(self, epoch, live)

    def current_snapshot(self) -> StoreSnapshot | None:
        """The snapshot overlay active on *this* thread, if any (set by
        :meth:`StoreSnapshot.reading`; fan-out helpers propagate it to
        their worker threads)."""
        return getattr(self._tls, "snapshot", None)

    @property
    def open_snapshots(self) -> int:
        """Number of currently pinned snapshot handles."""
        return sum(self._pinned_epochs.values())

    @property
    def preserved_versions(self) -> int:
        """Preserved page-version copies currently retained (testing and
        sanitizer visibility into retirement)."""
        with self._frame_lock:
            return sum(len(v) for v in self._versions.values())

    def _preserve(self, page_id: int) -> None:
        """Copy-on-write hook; caller holds the frame lock.

        If some open snapshot can still see the page's current content
        (its last-change stamp is at or before a pinned epoch) and no
        copy for that stamp exists yet, capture one now — before the
        caller mutates, replaces or frees the live page.
        """
        if not self._pinned_epochs:
            return
        stamp = self._page_stamp.get(page_id, 0)
        if not any(epoch >= stamp for epoch in self._pinned_epochs):
            return
        entries = self._versions.get(page_id)
        if entries is not None and any(v == stamp for v, _ in entries):
            return
        if page_id not in self._backend:
            return
        frozen = self._capture_live(page_id)
        self._versions.setdefault(page_id, []).append((stamp, frozen))

    def _capture_live(self, page_id: int) -> Any:
        """A private copy of the page's live content (frame lock held).

        Pool frames and memory-backend pages are live objects a writer
        will mutate in place — deep-copy them; a byte backend decodes a
        fresh object per load, which is already private.  ``DataPage``
        and ``Node`` copy themselves (``__deepcopy__``) at structural
        cost, building exactly what generic deepcopy builds, so the
        frame lock is held for microseconds per copy (DESIGN.md §16.1).
        """
        if self._pool is not None:
            frame = self._pool.peek(page_id, _MISSING)
            if frame is not _MISSING:
                return copy.deepcopy(frame)
        obj = self._backend.load(page_id)
        if isinstance(self._backend, MemoryBackend):
            return copy.deepcopy(obj)
        return obj

    def _snapshot_read(self, page_id: int, epoch: int) -> Any:
        """Resolve one page at a pinned epoch (charged)."""
        with self._frame_lock:
            stamp = self._page_stamp.get(page_id, 0)
            if stamp <= epoch:
                # The live content has not changed since the snapshot
                # opened: it *is* the snapshot's version.  Memoize a
                # frozen copy (the same entry a writer would preserve)
                # so later mutations cannot reach what we return.
                self._preserve(page_id)
                for v, obj in self._versions.get(page_id, ()):
                    if v == stamp:
                        self._charge_read(page_id)
                        return obj
                raise StorageError(
                    f"page {page_id} vanished while a snapshot at epoch "
                    f"{epoch} was reading it"
                )
            best: tuple[int, Any] | None = None
            for v, obj in self._versions.get(page_id, ()):
                if v <= epoch and (best is None or v > best[0]):
                    best = (v, obj)
            if best is None:
                raise StorageError(
                    f"page {page_id}: no version visible at snapshot "
                    f"epoch {epoch}"
                )
            self._charge_read(page_id)
            return best[1]

    def _release_snapshot(self, epoch: int) -> None:
        """Unpin one snapshot handle; retire unreachable versions."""
        with self._frame_lock:
            count = self._pinned_epochs.get(epoch, 0) - 1
            if count > 0:
                self._pinned_epochs[epoch] = count
                return
            self._pinned_epochs.pop(epoch, None)
            if not self._pinned_epochs:
                # Last snapshot gone: every preserved copy (and every
                # stamp — an absent stamp reads as "ancient", which only
                # causes a fresh preserve on the next snapshot) retires.
                self._versions.clear()
                self._page_stamp.clear()
                return
            pinned = sorted(self._pinned_epochs)
            for page_id in list(self._versions):
                entries = self._versions[page_id]
                stamp = self._page_stamp.get(page_id, 0)
                keep: set[int] = set()
                for pin in pinned:
                    if stamp <= pin:
                        keep.add(stamp)  # the memoized live-state entry
                        continue
                    best = max(
                        (v for v, _ in entries if v <= pin), default=None
                    )
                    if best is not None:
                        keep.add(best)
                kept = [(v, obj) for v, obj in entries if v in keep]
                if kept:
                    self._versions[page_id] = kept
                else:
                    del self._versions[page_id]

    # -- accounting --------------------------------------------------------

    def pin(self, page_id: int) -> None:
        if page_id not in self._backend:
            raise StorageError(f"page {page_id} does not exist")
        self._pinned.add(page_id)

    def unpin(self, page_id: int) -> None:
        self._pinned.discard(page_id)

    def is_pinned(self, page_id: int) -> bool:
        return page_id in self._pinned

    def pinned_ids(self) -> frozenset[int]:
        """The pinned page ids (read-only view, for the sanitizer)."""
        return frozenset(self._pinned)

    @contextlib.contextmanager
    def operation(self) -> Iterator[OperationCounter]:
        """Open a dedup scope; nested scopes join the outermost one."""
        if self._op is not None:
            yield self._op
            return
        self._op = OperationCounter(self.stats)
        try:
            yield self._op
        finally:
            self._op = None

    def count_virtual_read(self, token: Hashable) -> None:
        self._charge_read(("virtual", token))

    def count_virtual_write(self, token: Hashable) -> None:
        self._charge_write(("virtual", token))

    def _charge_read(self, token: Hashable) -> None:
        if token in self._pinned:
            return
        if self._op is not None:
            self._op.count_read(token)
        else:
            self.stats.reads += 1

    def _charge_write(self, token: Hashable) -> None:
        if token in self._pinned:
            return
        if self._op is not None:
            self._op.count_write(token)
        else:
            self.stats.writes += 1

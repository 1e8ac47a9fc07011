"""Crash safety for the page file: a write-ahead log with recovery.

:class:`~repro.storage.disk.FileBackend` updates slots in place — a
crash mid-``store()`` tears a slot and silently corrupts the index.
:class:`WALBackend` wraps the page file so that torn state is always
repairable:

* every ``store``/``discard`` is first appended to a ``<path>.wal``
  sidecar as a checksummed record; until the next checkpoint the page
  file is never touched (reads of uncommitted pages are served from an
  in-memory image overlay);
* ``flush()`` is a **checkpoint**: a COMMIT record (carrying the staged
  index metadata) is appended and flushed — the durability point — then
  the buffered images are applied to the page file, the page file is
  flushed, and a CHECKPOINT marker records that everything up to here
  has been applied;
* on open, the WAL is scanned: committed transactions after the last
  CHECKPOINT marker are **replayed** into the page file (idempotent
  slot writes repair any torn slot), an uncommitted tail is
  **discarded**, and the WAL is compacted — via write-new-then-rename,
  the only atomic primitive the filesystem gives us — to a fresh log
  holding just the recovered metadata.

The guarantee: after a crash at *any* physical operation, reopening the
page file yields exactly the state of the last durable COMMIT — no torn
slot survives (its committed image is replayed over it), no committed
page is lost, no uncommitted page leaks in.  ``checkpoint(index)`` /
``recover_index(path)`` bind those commit points to whole-index states:
the commit record carries the index-level metadata (scheme, root id,
counters — the same record a snapshot stores), so a recovered page file
rehydrates into a working index.  The fault model this is tested under
(every write/flush a crash point; torn writes; dropped flushes) lives
in :mod:`repro.storage.faults`.

Checkpoints should align with index operation boundaries: a checkpoint
taken mid-split would durably commit a structurally inconsistent (though
storage-wise intact) directory.  ``checkpoint_every`` auto-checkpoints
after N physical ops for long unattended runs (benchmarks); crash-safety
harnesses keep it off and checkpoint explicitly between operations.
"""

from __future__ import annotations

import collections
import json
import os
import struct
import threading
import zlib
from typing import Any, Callable, Iterator

from repro.errors import SerializationError, StorageError
from repro.storage.disk import Backend, FileBackend, PageStore, _MISSING

_WAL_MAGIC = b"BMEHWAL1"
_REC_HEAD = struct.Struct("<BQI")  # op, page id, payload length
_REC_CRC = struct.Struct("<I")
_OP_STORE, _OP_DISCARD, _OP_COMMIT, _OP_CHECKPOINT = 1, 2, 3, 4
_OPS = frozenset((_OP_STORE, _OP_DISCARD, _OP_COMMIT, _OP_CHECKPOINT))
#: Upper bound on a record payload we are willing to buffer while
#: scanning: garbage read as a length field must not allocate gigabytes.
_MAX_PAYLOAD = 1 << 28


class ReplicationTap:
    """A bounded subscription to a WAL's committed batches.

    Attached via :meth:`WALBackend.attach_tap`; every checkpoint cycle
    publishes its batch *after* the COMMIT record's durability flush, so
    a tap only ever sees committed (acked-capturable) state — the PR 8
    capture==acked contract carries over to replication unchanged.

    The buffer is bounded: a follower that stops draining does not pin
    unbounded memory on the primary.  On overflow the tap drops its
    backlog and latches :attr:`overflowed`; the follower must
    re-bootstrap (fresh checkpoint transfer) because the tail it missed
    is gone.  While attached, the tap holds a compaction floor on the
    backend, so :meth:`WALBackend.compact` cannot drop records out from
    under a live stream.
    """

    #: Batches buffered before the tap declares overflow.
    LIMIT = 4096

    def __init__(self, tap_id: int, floor_token: int) -> None:
        self.tap_id = tap_id
        self.floor_token = floor_token
        self.overflowed = False
        self._batches: collections.deque = collections.deque()
        self._lock = threading.Lock()

    def publish(self, batch: dict) -> None:
        with self._lock:
            if self.overflowed:
                return  # backlog already lost; buffering more is pointless
            if len(self._batches) >= self.LIMIT:
                self._batches.clear()
                self.overflowed = True
                return
            self._batches.append(batch)

    def drain(self) -> list[dict]:
        """All buffered batches, in commit order (empties the buffer)."""
        with self._lock:
            batches = list(self._batches)
            self._batches.clear()
            return batches

    @property
    def backlog(self) -> int:
        with self._lock:
            return len(self._batches)


class WALBackend(Backend):
    """A crash-safe wrapper around a :class:`FileBackend` page file.

    Drop-in for any :class:`~repro.storage.disk.PageStore` backend; the
    store's ``flush()`` becomes the commit point.  Uncommitted updates
    live in the WAL file and an in-memory *image* overlay (loads decode
    a fresh object per read, preserving byte-backend semantics).
    """

    def __init__(
        self,
        path: str,
        page_size: int = 4096,
        registry: Any | None = None,
        opener: Callable[[str, str], Any] | None = None,
        checkpoint_every: int | None = None,
    ) -> None:
        if checkpoint_every is not None and checkpoint_every < 1:
            raise StorageError("checkpoint_every must be >= 1 ops")
        self._opener = opener or open
        self._inner = FileBackend(
            path, page_size=page_size, registry=registry, opener=opener
        )
        self._registry = self._inner.registry
        self._wal_path = path + ".wal"
        #: page id -> encoded image (pending store) or None (tombstone).
        self._pending: dict[int, bytes | None] = {}
        self._staged_meta: bytes | None = None
        self._meta: bytes | None = None
        self._checkpoint_every = checkpoint_every
        self._ops_since_checkpoint = 0
        #: Group-commit state: while ``_group_depth > 0`` every flush is
        #: deferred to the matching ``end_group`` — one COMMIT record and
        #: one durability flush for the whole batch.
        self._group_depth = 0
        self._deferred_flush = False
        self.wal_records = 0
        self.checkpoints = 0
        self.replayed_ops = 0
        self.discarded_tail_ops = 0
        #: Reusable record staging buffer: the append path assembles
        #: head | payload | crc in place, so committing a page allocates
        #: no intermediate ``bytes`` copy of the payload (the buffer
        #: grows to the largest record seen and is then reused).
        self._scratch = bytearray()
        #: Commit sequence number: bumped once per durable COMMIT, so a
        #: replication stream can order batches and measure follower
        #: lag.  In-memory (per-process lifetime): a follower that
        #: reconnects after a primary restart re-bootstraps rather than
        #: resuming mid-stream, so the LSN never needs to be durable.
        self._lsn = 0
        #: Attached replication taps, by tap id.
        self._taps: dict[int, ReplicationTap] = {}
        self._next_tap = 0
        #: Outstanding compaction floors (tokens).  While any is held,
        #: :meth:`compact` refuses: a reader (replication tap, mid-replay
        #: scan) still depends on the current sidecar's records.
        self._floors: set[int] = set()
        self._next_floor = 0
        self._wal = self._recover()

    # -- recovery ----------------------------------------------------------

    def _recover(self) -> Any:
        """Replay-or-discard the sidecar, compact it, return the handle."""
        exists = (
            os.path.exists(self._wal_path)
            and os.path.getsize(self._wal_path) > 0
        )
        if not exists:
            wal = self._opener(self._wal_path, "w+b")
            wal.write(_WAL_MAGIC)
            wal.flush()
            return wal
        wal = self._opener(self._wal_path, "r+b")
        try:
            replay, meta, tail_ops = self._scan(wal)
        finally:
            wal.close()
        for op, page_id, payload in replay:
            if op == _OP_STORE:
                self._inner.store_image(page_id, payload)
            else:
                self._inner.apply_discard(page_id)
        self.replayed_ops = len(replay)
        self.discarded_tail_ops = tail_ops
        self._meta = meta
        self._inner.flush()
        return self._compact(meta)

    @classmethod
    def _scan(
        cls, wal: Any
    ) -> tuple[list[tuple[int, int, bytes]], bytes | None, int]:
        """One pass over the log: committed ops still needing replay (in
        commit order), the last committed metadata, and the size of the
        discarded uncommitted tail."""
        magic = wal.read(len(_WAL_MAGIC))
        if len(magic) < len(_WAL_MAGIC):
            return [], None, 0  # torn at creation: nothing was committed
        if magic != _WAL_MAGIC:
            raise StorageError("WAL sidecar has an unrecognized header")
        replay: list[tuple[int, int, bytes]] = []
        txn: list[tuple[int, int, bytes]] = []
        meta: bytes | None = None
        while True:
            head = wal.read(_REC_HEAD.size)
            if len(head) < _REC_HEAD.size:
                break
            op, page_id, length = _REC_HEAD.unpack(head)
            if op not in _OPS or length > _MAX_PAYLOAD:
                break  # garbage: the valid log ends here
            payload = wal.read(length)
            if len(payload) < length:
                break
            crc = wal.read(_REC_CRC.size)
            if len(crc) < _REC_CRC.size:
                break
            if _REC_CRC.unpack(crc)[0] != zlib.crc32(payload, zlib.crc32(head)):
                break  # torn record: this and everything after is void
            if op in (_OP_STORE, _OP_DISCARD):
                txn.append((op, page_id, payload))
            elif op == _OP_COMMIT:
                replay.extend(txn)
                txn.clear()
                meta = payload or meta
            else:  # CHECKPOINT: everything before it already reached disk
                replay.clear()
        return replay, meta, len(txn)

    def _compact(self, meta: bytes | None) -> Any:
        """Rewrite the sidecar as header + (COMMIT(meta), CHECKPOINT).

        Built as a fresh file and renamed over the old one: rename is
        the filesystem's atomic primitive, so a crash here leaves either
        the old log (replayed again — idempotent) or the new one, never
        a half-truncated log that lost the metadata.
        """
        tmp_path = self._wal_path + ".tmp"
        tmp = self._opener(tmp_path, "w+b")
        tmp.write(_WAL_MAGIC)
        if meta is not None:
            tmp.write(self._record(_OP_COMMIT, 0, meta))
            tmp.write(self._record(_OP_CHECKPOINT, 0))
        tmp.flush()
        tmp.close()
        os.replace(tmp_path, self._wal_path)
        wal = self._opener(self._wal_path, "r+b")
        wal.seek(0, os.SEEK_END)
        return wal

    # -- WAL records -------------------------------------------------------

    @staticmethod
    def _record(
        op: int, page_id: int, payload: bytes | memoryview = b""
    ) -> bytes:
        head = _REC_HEAD.pack(op, page_id, len(payload))
        crc = zlib.crc32(payload, zlib.crc32(head))
        return b"".join((head, payload, _REC_CRC.pack(crc)))

    def _append(
        self, op: int, page_id: int, payload: bytes | memoryview = b""
    ) -> None:
        # Assemble the record in the reusable scratch buffer: the CRC is
        # computed incrementally over head then payload, so the append
        # path never builds a ``head + payload`` bytes copy.
        total = _REC_HEAD.size + len(payload) + _REC_CRC.size
        if len(self._scratch) < total:
            self._scratch = bytearray(total)
        buf = self._scratch
        _REC_HEAD.pack_into(buf, 0, op, page_id, len(payload))
        end = _REC_HEAD.size + len(payload)
        buf[_REC_HEAD.size:end] = payload
        with memoryview(buf) as view:
            crc = zlib.crc32(view[:end])
            _REC_CRC.pack_into(buf, end, crc)
            # One write() call per record: a torn write can cut a record
            # short but never interleave two.
            self._wal.write(view[:total])
        self.wal_records += 1

    # -- Backend API -------------------------------------------------------

    @property
    def page_size(self) -> int:
        return self._inner.page_size

    @property
    def inner(self) -> FileBackend:
        """The wrapped page file (read-only view, for the sanitizer)."""
        return self._inner

    def store(self, page_id: int, obj: Any) -> None:
        image = self._registry.encode(obj)
        if len(image) > self._inner.payload_capacity:
            # Surface the slot overflow at store() time, exactly like the
            # raw FileBackend would — not at some later checkpoint.
            raise SerializationError(
                f"page image of {len(image)} bytes exceeds the "
                f"{self._inner.page_size}-byte slot"
            )
        self._append(_OP_STORE, page_id, image)
        self._pending[page_id] = image
        self._count_op()

    def load(self, page_id: int) -> Any:
        image = self._pending.get(page_id, _MISSING)
        if image is None:
            raise StorageError(f"page {page_id} does not exist")
        if image is not _MISSING:
            return self._registry.decode(image)
        return self._inner.load(page_id)

    def discard(self, page_id: int) -> None:
        if page_id not in self:
            raise StorageError(f"page {page_id} does not exist")
        self._append(_OP_DISCARD, page_id)
        self._pending[page_id] = None
        self._count_op()

    def __contains__(self, page_id: int) -> bool:
        image = self._pending.get(page_id, _MISSING)
        if image is not _MISSING:
            return image is not None
        return page_id in self._inner

    def page_ids(self) -> Iterator[int]:
        live = set(self._inner.page_ids())
        for page_id, image in self._pending.items():
            if image is None:
                live.discard(page_id)
            else:
                live.add(page_id)
        return iter(sorted(live))

    # -- checkpointing -----------------------------------------------------

    def stage_metadata(self, blob: bytes) -> None:
        """Attach application metadata to the next commit (durable with
        it, recovered from it)."""
        self._staged_meta = bytes(blob)

    @property
    def metadata(self) -> bytes | None:
        """The metadata of the last durable commit (``None`` if never
        committed with metadata)."""
        return self._meta

    def pending_store_ids(self) -> frozenset:
        """Uncommitted page ids awaiting store (view, for the sanitizer)."""
        return frozenset(
            pid for pid, image in self._pending.items() if image is not None
        )

    def pending_discard_ids(self) -> frozenset:
        """Uncommitted tombstones (view, for the sanitizer)."""
        return frozenset(
            pid for pid, image in self._pending.items() if image is None
        )

    def _count_op(self) -> None:
        self._ops_since_checkpoint += 1
        if (
            self._checkpoint_every is not None
            and self._ops_since_checkpoint >= self._checkpoint_every
        ):
            self.flush()

    # -- group commit ------------------------------------------------------

    def begin_group(self) -> None:
        """Open a group-commit scope: flushes inside it are deferred to
        the matching :meth:`end_group`, which emits a single COMMIT and
        a single durability flush for the whole batch.  Nests: only the
        outermost ``end_group`` commits."""
        self._group_depth += 1

    def end_group(self, commit: bool = True, metadata: Any = None) -> None:
        """Close a group-commit scope.

        With ``commit=True`` (and work to commit — staged records, a
        staged metadata blob, or a deferred flush request), a single
        checkpoint cycle runs: ``metadata`` (a zero-argument provider,
        invoked *now* so the blob reflects the batch's final state) is
        staged if it returns a blob, then :meth:`flush` appends one
        COMMIT record and applies the batch.  With ``commit=False`` the
        batch stays uncommitted in the WAL tail: recovery discards it,
        rolling back to the previous commit point.
        """
        if self._group_depth == 0:
            raise StorageError("end_group() without a matching begin_group()")
        self._group_depth -= 1
        if self._group_depth:
            return
        deferred = self._deferred_flush
        self._deferred_flush = False
        if not commit:
            return
        if self._pending or self._staged_meta is not None or deferred:
            if metadata is not None:
                blob = metadata()
                if blob is not None:
                    self.stage_metadata(blob)
            self.flush()

    @property
    def in_group(self) -> bool:
        """Whether a group-commit scope is currently open."""
        return self._group_depth > 0

    def flush(self) -> None:
        """Checkpoint: commit the pending batch, apply it, mark applied."""
        if self._group_depth:
            # Inside a group the commit point is the group boundary:
            # remember that durability was requested and return.
            self._deferred_flush = True
            return
        if not self._pending and self._staged_meta is None:
            self._inner.flush()
            return
        meta = self._staged_meta if self._staged_meta is not None else self._meta
        self._append(_OP_COMMIT, 0, meta or b"")
        self._wal.flush()  # durability point: the batch is now committed
        self._meta = meta
        self._staged_meta = None
        self._lsn += 1
        if self._taps:
            # Publish strictly after the durability flush: a tap never
            # sees a batch that a crash could still roll back.
            ops = [
                ("discard", page_id, None)
                if image is None
                else ("store", page_id, image)
                for page_id, image in sorted(self._pending.items())
            ]
            batch = {"lsn": self._lsn, "ops": ops, "meta": meta}
            for tap in list(self._taps.values()):
                tap.publish(batch)
        for page_id in sorted(self._pending):
            image = self._pending[page_id]
            if image is None:
                self._inner.apply_discard(page_id)
            else:
                self._inner.store_image(page_id, image)
        self._inner.flush()
        self._append(_OP_CHECKPOINT, 0)
        self._wal.flush()
        self._pending.clear()
        self._ops_since_checkpoint = 0
        self.checkpoints += 1

    # -- replication -------------------------------------------------------

    @property
    def lsn(self) -> int:
        """Sequence number of the last durable COMMIT (0 if none yet
        this process)."""
        return self._lsn

    def attach_tap(self) -> ReplicationTap:
        """Subscribe to committed batches (and hold a compaction floor
        for the stream's lifetime).  Pair with :meth:`detach_tap`."""
        tap_id = self._next_tap
        self._next_tap += 1
        tap = ReplicationTap(tap_id, self.acquire_floor())
        self._taps[tap_id] = tap
        return tap

    def detach_tap(self, tap_id: int) -> None:
        tap = self._taps.pop(tap_id, None)
        if tap is not None:
            self.release_floor(tap.floor_token)

    @property
    def tap_count(self) -> int:
        return len(self._taps)

    def committed_pages(self) -> Iterator[tuple[int, bytes]]:
        """Encoded images of every page in the *committed* page file, for
        a checkpoint transfer.

        Reads the inner file only: callers must invoke it outside the
        commit window (the served path runs it under the read side of
        the write gate, which excludes `flush()`), when the pending
        overlay is empty and the inner file is exactly the last durable
        commit.
        """
        for page_id in self._inner.page_ids():
            yield page_id, self._registry.encode(self._inner.load(page_id))

    def apply_replicated(
        self,
        ops: list[tuple[str, int, bytes | None]],
        metadata: bytes | None = None,
    ) -> None:
        """Apply one shipped batch on a follower: append the records to
        *this* WAL, stage the batch metadata, and commit.

        Full-image ops are idempotent, so replaying a batch (checkpoint
        chunk overlapping a tail, or a re-bootstrap) converges.  The
        follower's durable state is thereby a standard WAL page file —
        promotion reopens it through the stock :func:`recover_index`
        path, no special follower format.
        """
        for op, page_id, image in ops:
            if op == "store":
                if image is None:
                    raise StorageError("replicated store without an image")
                image = bytes(image)
                self._append(_OP_STORE, page_id, image)
                self._pending[page_id] = image
            elif op == "discard":
                self._append(_OP_DISCARD, page_id)
                self._pending[page_id] = None
            else:
                raise StorageError(f"unknown replicated op {op!r}")
        if metadata is not None:
            self.stage_metadata(metadata)
        if self._pending or self._staged_meta is not None:
            self.flush()

    # -- compaction floors -------------------------------------------------

    def acquire_floor(self) -> int:
        """Declare that a reader depends on the current sidecar records;
        :meth:`compact` refuses until the returned token is released."""
        token = self._next_floor
        self._next_floor += 1
        self._floors.add(token)
        return token

    def release_floor(self, token: int) -> None:
        self._floors.discard(token)

    @property
    def floors_held(self) -> int:
        return len(self._floors)

    def compact(self) -> None:
        """Checkpoint, then rewrite the sidecar down to its minimal form
        (header + last commit).

        Refuses with :class:`StorageError` while any compaction floor is
        held: a reader mid-replay (or a live replication tap) still
        needs the records the rewrite would drop.  Callers retry after
        the reader releases its floor.
        """
        if self._floors:
            raise StorageError(
                f"compact() refused: {len(self._floors)} reader floor(s) "
                "held on the WAL sidecar"
            )
        self.flush()
        self._wal.close()
        self._wal = self._compact(self._meta)

    def close(self) -> None:
        self.flush()
        self._wal.close()
        self._inner.close()


# -- whole-index durability -------------------------------------------------


def metadata_blob(index: Any) -> bytes:
    """Index-level state for a commit record: the snapshot header JSON,
    plus (for the one-level scheme) the encoded in-memory directory.

    Used by :func:`checkpoint` and by the batch executors' group-commit
    metadata providers (:meth:`PageStore.group`'s ``metadata=``).
    """
    from repro.storage.snapshot import encode_directory, index_metadata

    meta = index_metadata(index)
    blob = json.dumps(meta).encode("utf-8")
    parts = [struct.pack("<I", len(blob)), blob]
    if meta["kind"] == "onelevel":
        parts.append(encode_directory(index))
    return b"".join(parts)


def decode_metadata_blob(blob: bytes) -> tuple[dict, bytes | None]:
    """Split a commit-record metadata blob back into the snapshot header
    dict and the (optional) encoded directory tail — the inverse of
    :func:`metadata_blob`.  Shared by :func:`recover_index` and the
    replica bootstrap path."""
    (meta_len,) = struct.unpack_from("<I", blob, 0)
    meta = json.loads(blob[4 : 4 + meta_len].decode("utf-8"))
    directory = blob[4 + meta_len :] or None
    return meta, directory


def checkpoint(index: Any) -> None:
    """Durably commit ``index``'s current state.

    Stages the index-level metadata (scheme, root id, counters — and the
    in-memory directory for the one-level scheme) on the WAL and
    flushes, making this exact state the one :func:`recover_index`
    returns after any later crash.  Call it between operations — never
    mid-insert.
    """
    backend = index.store.backend
    if not isinstance(backend, WALBackend):
        raise StorageError(
            "checkpoint() needs an index built on a WALBackend"
        )
    backend.stage_metadata(metadata_blob(index))
    index.store.flush()


def recover_index(
    path: str,
    page_size: int = 4096,
    registry: Any | None = None,
    pool_capacity: int | None = None,
) -> Any | None:
    """Reopen a crashed (or cleanly closed) WAL-backed index.

    Opens ``path`` through a fresh :class:`WALBackend` — which replays
    or discards the sidecar — and rehydrates the index recorded by the
    last durable :func:`checkpoint`.  Returns ``None`` when no
    checkpoint ever committed (crash before the first commit: there is
    no index to recover, and no data was ever guaranteed durable).
    ``pool_capacity`` attaches an LRU buffer pool in front of the WAL
    (the served configuration); durability is unaffected — group commit
    flushes the pool before every COMMIT.
    """
    from repro.storage.snapshot import restore_from_metadata

    backend = WALBackend(path, page_size=page_size, registry=registry)
    blob = backend.metadata
    if blob is None:
        backend.close()
        return None
    meta, directory = decode_metadata_blob(blob)
    pool = None
    if pool_capacity is not None:
        from repro.storage.buffer import BufferPool

        pool = BufferPool(pool_capacity)
    store = PageStore(backend, pool=pool)
    index = restore_from_metadata(meta, store, directory)
    # The recovered store serves this index alone: enable the
    # sanitizer's page-leak census over it.
    index._owns_store = True
    return index

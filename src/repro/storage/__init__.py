"""Simulated disk substrate with logical I/O accounting.

The paper's performance figures (λ, λ′, ρ) are *logical disk access
counts* measured on a simulator; this subpackage is that simulator.  A
:class:`PageStore` hands out page ids, serves reads/writes, and charges
each access to an :class:`~repro.storage.iostats.IOStats` ledger.  Within
one index *operation* (a search, an insertion, ...) a page is charged at
most one read and one write — the operation works on an in-memory copy —
which is the accounting model under which the paper's λ = 2.000 for the
one-level scheme comes out exact.

Pinned pages (the paper: "the root node can always be retained in
memory") are never charged.

Two byte-level backends make the store a real storage manager rather than
a dict with counters: :class:`MemoryBackend` (objects in RAM) and
:class:`FileBackend` (fixed-size page slots in a file, via the codecs in
``repro.storage.serializer``).  An optional LRU :class:`BufferPool`
attaches between the store and its backend
(``PageStore(backend, pool=BufferPool(256))``): reads are served
read-through, writes are buffered write-back, frees drop the frame so a
flush can never resurrect a freed page, and pinned pages are never
evicted.  The pool changes only the *physical* traffic — measured by
``PageStore.backend_stats`` — never the paper's logical accounting.

Crash safety is layered on top of the file backend, not into it:
:class:`WALBackend` wraps a page file with a checksummed write-ahead
sidecar so a crash at any physical operation recovers to the last
committed checkpoint (``repro.storage.wal``), and
:class:`FaultInjector` simulates those crashes — fail-stop, torn write,
lying flush — deterministically (``repro.storage.faults``).
"""

from repro.storage.iostats import IOStats, OperationCounter
from repro.storage.page import DataPage
from repro.storage.disk import PageStore, MemoryBackend, FileBackend
from repro.storage.serializer import PageCodec
from repro.storage.buffer import BufferPool
from repro.storage.latch import ReadWriteLatch
from repro.storage.snapshot import save_index, load_index
from repro.storage.wal import WALBackend, checkpoint, recover_index
from repro.storage.faults import FaultInjector, FaultyFile

__all__ = [
    "ReadWriteLatch",
    "save_index",
    "load_index",
    "WALBackend",
    "checkpoint",
    "recover_index",
    "FaultInjector",
    "FaultyFile",
    "IOStats",
    "OperationCounter",
    "DataPage",
    "PageStore",
    "MemoryBackend",
    "FileBackend",
    "PageCodec",
    "BufferPool",
]

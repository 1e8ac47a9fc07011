"""Whole-index snapshots: save any scheme to a file, load it back.

Tree schemes serialize naturally — their directory *is* a set of pages
(nodes + data pages), written through the byte codecs into a
:class:`FileBackend`-formatted page file with a JSON header page for the
index-level metadata (scheme, dims, widths, b, ξ, policy, root id,
counters).

The one-level MDEH directory is not page-resident in this implementation
(it is the in-memory extendible array the paper addresses with Theorem
1), so a snapshot serializes it as a dedicated stream appended after the
page file: the doubling history plus the region groups, in the same
group encoding the node codec uses.

A snapshot file starts with the magic ``BMEHSNP2``; a file with any
other magic is not a snapshot.  Each hash component of a directory
entry is packed as a u16, and the writer raises
:class:`SerializationError` rather than wrap a component that does not
fit.

The metadata/restoration halves of this module are shared with the
write-ahead log (:mod:`repro.storage.wal`): a WAL commit record carries
the same :func:`index_metadata` JSON (plus :func:`encode_directory`
stream for one-level schemes) that a snapshot header does, and crash
recovery rehydrates through the same :func:`restore_from_metadata`.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Callable

from repro.errors import SerializationError, StorageError
from repro.storage.disk import MemoryBackend, PageStore
from repro.storage.serializer import default_registry

_MAGIC = b"BMEHSNP2"
_HEADER = struct.Struct("<8sI")  # magic, json length

#: Directory entry record: u16 hash components, local depth m, page
#: pointer, cell count.  A component above the u16 maximum is rejected.
_DIR_COMPONENT_MAX = 0xFFFF


def index_metadata(index: Any) -> dict:
    """The index-level state a snapshot header (or WAL commit) records."""
    from repro.core.hashtree import HashTreeBase
    from repro.core.mdeh import MDEH

    meta: dict[str, Any] = {
        "scheme": type(index).__name__,
        "dims": index.dims,
        "page_capacity": index.page_capacity,
        "widths": list(index.widths),
        "num_keys": len(index),
        "data_pages": index.data_page_count,
    }
    if isinstance(index, HashTreeBase):
        meta.update(
            kind="tree",
            xi=list(index.xi),
            node_policy=index._node_policy,
            root_id=index.root_id,
            node_count=index.node_count,
        )
    elif isinstance(index, MDEH):
        meta.update(
            kind="onelevel",
            dir_page_entries=index._epp,
            element_granular=index._element_granular,
        )
    else:  # pragma: no cover - future schemes must opt in
        raise SerializationError(f"cannot snapshot {type(index).__name__}")
    return meta


def encode_directory(index: Any) -> bytes:
    """Serialize a one-level index's extendible directory array."""
    array = index._dir
    axes = bytes(axis for axis, _ in array.history())
    parts = [struct.pack("<I", len(axes)), axes]
    groups: dict[int, tuple[Any, list[int]]] = {}
    for address in range(len(array)):
        entry = array.get_at(address)
        groups.setdefault(id(entry), (entry, []))[1].append(address)
    parts.append(struct.pack("<I", len(groups)))
    dims = index.dims
    record = struct.Struct(f"<{dims}HBqI")
    for entry, addresses in groups.values():
        if any(component > _DIR_COMPONENT_MAX for component in entry.h):
            raise SerializationError(
                f"directory entry component {max(entry.h)} exceeds the "
                f"u16 field of the snapshot directory record"
            )
        ptr = -1 if entry.ptr is None else entry.ptr
        parts.append(record.pack(*entry.h, entry.m, ptr, len(addresses)))
        parts.append(struct.pack(f"<{len(addresses)}I", *addresses))
    return b"".join(parts)


def _decode_directory(index: Any, data: bytes) -> None:
    from repro.core.directory import DirEntry
    from repro.extarray import ExtendibleArray

    try:
        (axis_count,) = struct.unpack_from("<I", data, 0)
        offset = 4
        axes = data[offset : offset + axis_count]
        offset += axis_count
        array = ExtendibleArray(index.dims, fill=None)
        for axis in axes:
            array.grow(axis)
        (group_count,) = struct.unpack_from("<I", data, offset)
        offset += 4
        dims = index.dims
        record = struct.Struct(f"<{dims}HBqI")
        for _ in range(group_count):
            fields = record.unpack_from(data, offset)
            offset += record.size
            h = fields[:dims]
            m, ptr, cell_count = fields[dims:]
            entry = DirEntry(h, m, None if ptr < 0 else ptr)
            addresses = struct.unpack_from(f"<{cell_count}I", data, offset)
            offset += 4 * cell_count
            for address in addresses:
                array.set_at(address, entry)
    except struct.error as exc:
        raise SerializationError(
            f"corrupt directory stream in snapshot: {exc}"
        ) from exc
    index._dir = array


def _read_exact(inp: Any, count: int, what: str) -> bytes:
    data = inp.read(count)
    if len(data) < count:
        raise SerializationError(
            f"truncated snapshot: expected {count} bytes of {what}, "
            f"got {len(data)}"
        )
    return data


def save_index(
    index: Any,
    path: str,
    page_size: int = 65536,
    opener: Callable[[str, str], Any] | None = None,
) -> None:
    """Snapshot ``index`` (tree or one-level) into ``path``.

    ``page_size`` bounds the byte image of any single page; the default
    is generous because snapshot files favour simplicity over the tight
    disk layout of a live system.  ``opener`` substitutes for ``open``
    (fault-injection harnesses).
    """
    meta = index_metadata(index)
    registry = default_registry()
    out = (opener or open)(path, "wb")
    try:
        blob = json.dumps(meta).encode("utf-8")
        out.write(_HEADER.pack(_MAGIC, len(blob)))
        out.write(blob)
        pages = {pid: index.store.peek(pid) for pid in index.store.page_ids()}
        out.write(struct.pack("<I", len(pages)))
        for pid in sorted(pages):
            image = registry.encode(pages[pid])
            if len(image) > page_size:
                raise SerializationError(
                    f"page {pid} image of {len(image)} bytes exceeds "
                    f"snapshot page size {page_size}"
                )
            out.write(struct.pack("<QI", pid, len(image)))
            out.write(image)
        if meta["kind"] == "onelevel":
            directory = encode_directory(index)
            out.write(struct.pack("<I", len(directory)))
            out.write(directory)
        out.flush()
    finally:
        out.close()


def load_index(
    path: str, opener: Callable[[str, str], Any] | None = None
) -> Any:
    """Restore an index saved by :func:`save_index`."""
    registry = default_registry()
    inp = (opener or open)(path, "rb")
    try:
        magic, meta_len = _HEADER.unpack(
            _read_exact(inp, _HEADER.size, "header")
        )
        if magic != _MAGIC:
            raise StorageError(f"{path} is not an index snapshot")
        meta = json.loads(_read_exact(inp, meta_len, "metadata"))
        store = PageStore(MemoryBackend())
        (page_count,) = struct.unpack(
            "<I", _read_exact(inp, 4, "page count")
        )
        pages = {}
        for _ in range(page_count):
            pid, length = struct.unpack(
                "<QI", _read_exact(inp, 12, "page record")
            )
            pages[pid] = registry.decode(_read_exact(inp, length, "page image"))
        for pid in sorted(pages):
            # Preserve original ids: fill gaps with placeholders, drop them.
            while store.pages_allocated < pid:
                store.free(store.allocate(None))
            store.allocate(pages[pid])
        directory = None
        if meta["kind"] == "onelevel":
            (dir_len,) = struct.unpack(
                "<I", _read_exact(inp, 4, "directory length")
            )
            directory = _read_exact(inp, dir_len, "directory stream")
    finally:
        inp.close()
    return restore_from_metadata(meta, store, directory)


def restore_from_metadata(
    meta: dict,
    store: PageStore,
    directory: bytes | None = None,
) -> Any:
    """Rehydrate an index from its metadata dict over a populated store.

    The shared back half of :func:`load_index` and WAL crash recovery
    (:func:`repro.storage.wal.recover_index`): ``store`` already holds
    the pages, ``meta`` is the :func:`index_metadata` dict, and
    ``directory`` is the encoded directory stream for one-level schemes.
    Both I/O ledgers are reset — a freshly restored index has performed
    no accountable work yet.
    """
    from repro.core import BMEHTree, BalancedBinaryTrie, MDEH, MEHTree
    from repro.core.ehash import ExtendibleHashFile

    schemes = {
        cls.__name__: cls
        for cls in (MDEH, MEHTree, BMEHTree, BalancedBinaryTrie)
    }
    schemes["ExtendibleHashFile"] = ExtendibleHashFile
    cls = schemes.get(meta["scheme"])
    if cls is None:
        raise SerializationError(f"unknown scheme {meta['scheme']!r}")
    if meta["kind"] == "tree":
        index = cls.__new__(cls)
        _restore_tree(index, cls, meta, store)
    else:
        if directory is None:
            raise SerializationError(
                f"one-level scheme {meta['scheme']} needs a directory stream"
            )
        index = _restore_onelevel(cls, meta, store, directory)
    index.store.stats.reset()
    index.store.backend_stats.reset()
    return index


def _restore_tree(index: Any, cls: type, meta: dict, store: PageStore) -> None:
    from repro.core.hashtree import HashTreeBase

    HashTreeBase.__init__(
        index,
        dims=meta["dims"],
        page_capacity=meta["page_capacity"],
        widths=tuple(meta["widths"]),
        store=PageStore(),  # throwaway; replaced below
        xi=tuple(meta["xi"]),
        node_policy=meta["node_policy"],
    )
    index._store = store
    index._root_id = meta["root_id"]
    store.pin(index._root_id)
    index._node_count = meta["node_count"]
    index._data_pages = meta["data_pages"]
    index._num_keys = meta["num_keys"]


def _restore_onelevel(
    cls: type, meta: dict, store: PageStore, directory: bytes
) -> Any:
    from repro.core.ehash import ExtendibleHashFile

    if cls is ExtendibleHashFile:
        index = cls(
            page_capacity=meta["page_capacity"],
            width=meta["widths"][0],
            store=store,
            dir_page_entries=meta["dir_page_entries"],
        )
    else:
        index = cls(
            dims=meta["dims"],
            page_capacity=meta["page_capacity"],
            widths=tuple(meta["widths"]),
            store=store,
            dir_page_entries=meta["dir_page_entries"],
            element_granular_updates=meta["element_granular"],
        )
    _decode_directory(index, directory)
    index._data_pages = meta["data_pages"]
    index._num_keys = meta["num_keys"]
    return index

"""MVCC snapshot reads: version lifecycle and the concurrency property.

The headline property (PR 10): a snapshot scan taken at version ``v``
while a multi-writer storm is mutating the index is **bit-identical**
to a serial scan of the state after exactly the first ``v`` committed
operations.  Commit order is made observable with marker keys: every
writer, inside the same ``latch.write()`` block as its payload
mutation, inserts ``(MARKER, i)`` where ``i`` is the global commit
index — so the markers visible in a snapshot identify precisely which
oplog prefix it must equal.
"""

import copy
import random
import shutil
import tempfile
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import BMEHTree, KeyCodec, UIntEncoder
from repro.core import MultiKeyFile
from repro.core.node import Node
from repro.errors import StorageError
from repro.storage import (
    BufferPool,
    DataPage,
    FileBackend,
    PageStore,
    WALBackend,
)
from repro.storage.serializer import default_registry

IMAGE = default_registry().encode  # a page's byte image, for equality


def page(*records):
    p = DataPage(capacity=max(4, len(records)))
    for key, value in records:
        p.put(key, value)
    return p


def make_store(kind: str, root: str) -> PageStore:
    if kind == "memory":
        return PageStore()
    if kind == "file":
        return PageStore(FileBackend(root + "/pages.db"))
    if kind == "wal+pool":
        # The served shape: a WAL behind a pool, here small enough that
        # the storm evicts, so preservation copies live pool frames.
        return PageStore(WALBackend(root + "/pages.db"), pool=BufferPool(8))
    assert kind == "wal"
    return PageStore(WALBackend(root + "/pages.db"))


BACKENDS = ("memory", "file", "wal", "wal+pool")


class TestSnapshotLifecycle:
    def test_snapshot_sees_open_time_state_across_overwrite(self):
        store = PageStore()
        pid = store.allocate(page(((1, 1), "old")))
        with store.snapshot() as snap:
            store.write(pid, page(((1, 1), "new")))
            assert dict(snap.read(pid).items()) == {(1, 1): "old"}
            assert dict(store.read(pid).items()) == {(1, 1): "new"}
            assert store.preserved_versions == 1
        assert store.preserved_versions == 0

    def test_in_place_mutation_is_copied_on_first_access(self):
        # The memory-backend idiom: read the object, mutate it in
        # place, then write(pid) with no object.  The copy must be
        # taken at read time or the snapshot would alias the mutation.
        store = PageStore()
        pid = store.allocate(page(((1, 1), "old")))
        with store.snapshot() as snap:
            obj = store.read(pid)
            obj.put((2, 2), "x")
            store.write(pid)
            assert dict(snap.read(pid).items()) == {(1, 1): "old"}
            assert dict(store.read(pid).items()) == {
                (1, 1): "old",
                (2, 2): "x",
            }

    def test_freed_page_stays_readable_through_snapshot(self):
        store = PageStore()
        pid = store.allocate(page(((7, 7), "doomed")))
        snap = store.snapshot()
        store.free(pid)
        assert pid not in store
        assert dict(snap.read(pid).items()) == {(7, 7): "doomed"}
        snap.close()
        assert store.preserved_versions == 0

    def test_pages_born_after_open_are_invisible(self):
        store = PageStore()
        first = store.allocate(page(((1, 1), "a")))
        with store.snapshot() as snap:
            late = store.allocate(page(((2, 2), "b")))
            assert first in snap
            assert late not in snap
            with pytest.raises(StorageError, match="not part"):
                snap.read(late)

    def test_epochs_pin_distinct_versions(self):
        store = PageStore()
        pid = store.allocate(page(((1, 1), "v0")))
        s0 = store.snapshot()
        store.write(pid, page(((1, 1), "v1")))
        s1 = store.snapshot()
        store.write(pid, page(((1, 1), "v2")))
        assert dict(s0.read(pid).items()) == {(1, 1): "v0"}
        assert dict(s1.read(pid).items()) == {(1, 1): "v1"}
        assert dict(store.read(pid).items()) == {(1, 1): "v2"}
        s0.close()
        assert store.preserved_versions > 0  # s1 still pins v1
        s1.close()
        assert store.preserved_versions == 0
        assert store.open_snapshots == 0

    def test_replicated_batch_preserves_for_open_snapshots(self, tmp_path):
        # A follower's tail lands through apply_replicated while a
        # snapshot scan runs latch-free: the scan keeps the pre-apply
        # images and live set, the store moves on.
        store = PageStore(WALBackend(str(tmp_path / "follower.pages")))
        try:
            store.apply_replicated(
                [
                    ("store", 0, IMAGE(page(((1, 1), "a")))),
                    ("store", 1, IMAGE(page(((2, 2), "b")))),
                ]
            )
            assert store.page_count == 2
            with store.snapshot() as snap:
                store.apply_replicated(
                    [
                        ("store", 0, IMAGE(page(((1, 1), "a2")))),
                        ("discard", 1, None),
                        ("store", 2, IMAGE(page(((3, 3), "c")))),
                    ]
                )
                assert sorted(snap.page_ids()) == [0, 1]
                assert 2 not in snap
                assert dict(snap.read(0).items()) == {(1, 1): "a"}
                assert dict(snap.read(1).items()) == {(2, 2): "b"}
                assert dict(store.read(0).items()) == {(1, 1): "a2"}
                assert 1 not in store
                assert store.page_count == 2
                assert store.preserved_versions == 2
            assert store.preserved_versions == 0
            assert store.open_snapshots == 0
        finally:
            store.close()

    def test_closed_snapshot_rejects_reads(self):
        store = PageStore()
        pid = store.allocate(page(((1, 1), "a")))
        snap = store.snapshot()
        snap.close()
        snap.close()  # idempotent
        with pytest.raises(StorageError, match="closed"):
            snap.read(pid)

    def test_writer_is_never_blocked_by_snapshot_scan(self):
        # Zero writer blocking is structural: snapshot reads hold no
        # latch, so a writer can take the exclusive side mid-scan.
        store = PageStore()
        pids = [store.allocate(page(((i, i), i))) for i in range(10)]
        snap = store.snapshot()
        acquired = threading.Event()
        release = threading.Event()

        def writer():
            with store.latch.write(timeout=2.0):
                acquired.set()
                release.wait(2.0)

        thread = threading.Thread(target=writer)
        with snap, snap.reading():
            thread.start()
            assert acquired.wait(2.0), "writer timed out behind a snapshot"
            for pid in pids:  # scan proceeds while the latch is held
                assert dict(store.read(pid).items()) == {(pid - pids[0],) * 2: pid - pids[0]}
            release.set()
        thread.join()

    def test_index_scan_under_snapshot_excludes_later_writes(self):
        codec = KeyCodec([UIntEncoder(16), UIntEncoder(16)])
        store = PageStore()
        file = MultiKeyFile(codec, page_capacity=4, store=store)
        for i in range(12):
            file.insert((i, i), i)
        with store.snapshot() as snap:
            for i in range(12, 24):
                file.insert((i, i), i)
            with snap.reading():
                frozen = sorted(value for _, value in file.index.items())
            assert frozen == list(range(12))
        live = sorted(value for _, value in file.items())
        assert live == list(range(24))
        assert store.preserved_versions == 0

    def test_pooled_root_keeps_its_pre_doubling_directory(self, tmp_path):
        # The root is pinned, so it stays a live pool frame that the
        # next split doubles in place; the snapshot must read the copy
        # taken at open, not that frame.
        store = make_store("wal+pool", str(tmp_path))
        index = BMEHTree(2, 4, widths=16, store=store)
        try:
            keys = [(i * 4099 % 65536, i * 257 % 65536) for i in range(40)]
            for i, key in enumerate(keys[:4]):
                index.insert(key, i)
            root_id = index.root_id
            before = store.peek(root_id)
            image = IMAGE(before)
            depths = before.depths
            with store.snapshot() as snap:
                for i, key in enumerate(keys[4:], start=4):
                    index.insert(key, i)
                assert store.peek(root_id).depths != depths
                frozen = snap.read(root_id)
                assert frozen.depths == depths
                assert IMAGE(frozen) == image
                with snap.reading():
                    seen = sorted(value for _, value in index.items())
                assert seen == [0, 1, 2, 3]
            assert sorted(v for _, v in index.items()) == list(range(40))
            index.check_invariants()
        finally:
            store.close()


# -- copy-on-write page copies --------------------------------------------
#
# Preservation deep-copies live pages; DataPage and Node copy themselves
# (``__deepcopy__``) at structural cost and must build exactly what
# generic deepcopy builds.

ATOMIC = (type(None), bool, int, float, str, bytes)

record_values = st.one_of(
    st.integers(-(2**40), 2**40),
    st.text(max_size=4),
    st.binary(max_size=4),
    st.none(),
    st.lists(st.integers(0, 9), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 9), max_size=2),
)


def _partition(node):
    """Each cell's first address holding the same entry object."""
    first: dict[int, int] = {}
    return [
        first.setdefault(id(cell), address)
        for address, cell in enumerate(node.array.cells())
    ]


def _check_page_copy(original):
    image = IMAGE(original)
    twin = copy.deepcopy(original)
    assert IMAGE(twin) == image
    assert twin.records is not original.records
    for (key, value), (twin_key, twin_value) in zip(
        original.items(), twin.items()
    ):
        assert twin_key is key  # tuples of ints: deepcopy shares them
        if isinstance(value, ATOMIC):
            assert twin_value is value
        else:
            assert twin_value is not value and twin_value == value
    # Mutate the copy every way a writer can; the original must not see it.
    for value in twin.records.values():
        if isinstance(value, list):
            value.append(99)
        elif isinstance(value, dict):
            value["zz"] = 99
    if len(twin):
        twin.remove(next(twin.keys()))
    twin.put((2**31 + 5, 7), ["fresh"])
    assert IMAGE(original) == image


def _check_node_copy(node):
    image = IMAGE(node)
    partition = _partition(node)
    array = node.array
    cache = None if array._addr_cache is None else dict(array._addr_cache)
    twin = copy.deepcopy(node)
    assert IMAGE(twin) == image
    assert _partition(twin) == partition
    assert twin.xi is node.xi
    twin_array = twin.array
    assert twin_array is not array
    for name in ("_depths", "_cells", "_history", "_axis_steps"):
        assert getattr(twin_array, name) is not getattr(array, name)
    for mine, theirs in zip(twin_array._axis_steps, array._axis_steps):
        assert mine is not theirs
    if array._addr_cache is not None:
        assert twin_array._addr_cache is not array._addr_cache
    originals = {id(entry) for entry in node.entries()}
    for entry, twin_entry in zip(node.entries(), twin.entries()):
        assert id(twin_entry) not in originals
        assert twin_entry.h is not entry.h
    # Mutate the copy: an entry's local depths, then a doubling along
    # every axis (which extends the address cache in place).
    for twin_entry in twin.entries():
        twin_entry.h[0] += 1
    for axis in range(twin.dims):
        twin_array.grow(axis)
    assert IMAGE(node) == image
    assert _partition(node) == partition
    if cache is not None:
        assert array._addr_cache == cache


@settings(max_examples=25, deadline=None)
@given(
    records=st.dictionaries(
        st.tuples(st.integers(0, 255), st.integers(0, 255)),
        record_values,
        max_size=60,
    ),
    shared=st.booleans(),
)
def test_page_copies_are_exact_and_private(records, shared):
    index = BMEHTree(2, 4, widths=8)
    alias = [1, 2]  # one list behind two records: the copy keeps one twin
    for i, (key, value) in enumerate(records.items()):
        index.insert(key, alias if shared and i < 2 else value)
    store = index.store
    for page_id in list(store.page_ids()):
        obj = store.peek(page_id)
        if isinstance(obj, Node):
            _check_node_copy(obj)
        else:
            _check_page_copy(obj)
    if shared and len(records) >= 2:
        aliased = list(records)[:2]
        pages = copy.deepcopy([store.peek(pid) for pid in store.page_ids()])
        found = [
            copied.records[key]
            for copied in pages
            if isinstance(copied, DataPage)
            for key in aliased
            if key in copied
        ]
        assert len(found) == 2
        assert found[0] is found[1] and found[0] is not alias
    index.check_invariants()


# -- the concurrency property ---------------------------------------------

MARKER = 9999  # first key coordinate reserved for commit markers
N_WRITERS = 3
OPS_PER_WRITER = 8
SCANS = 6


def _check_prefix(observed, oplog, initial):
    """Assert ``observed`` equals initial + replay of an oplog prefix."""
    marker_ids = sorted(key[1] for key in observed if key[0] == MARKER)
    k = len(marker_ids)
    # Commit markers are assigned and inserted inside the latch, so a
    # consistent snapshot must contain a gapless prefix of them.
    assert marker_ids == list(range(k)), f"non-prefix markers: {marker_ids}"
    expected = dict(initial)
    for kind, key, value in oplog[:k]:
        if kind == "ins":
            expected[key] = value
        else:
            expected.pop(key)
    for i in range(k):
        expected[(MARKER, i)] = i
    assert sorted(observed.items()) == sorted(expected.items())
    return k


def _run_storm(kind: str, seed: int) -> None:
    root = tempfile.mkdtemp(prefix="mvcc-")
    rng = random.Random(seed)
    codec = KeyCodec([UIntEncoder(16), UIntEncoder(16)])
    store = make_store(kind, root)
    file = MultiKeyFile(codec, page_capacity=4, store=store)
    try:
        initial = {(w, 500): w for w in range(N_WRITERS)}
        for key, value in initial.items():
            file.insert(key, value)

        oplog: list[tuple[str, tuple[int, int], int | None]] = []
        errors: list[BaseException] = []
        plans = [
            [rng.random() < 0.3 for _ in range(OPS_PER_WRITER)]
            for _ in range(N_WRITERS)
        ]
        start = threading.Barrier(N_WRITERS + 1)

        def writer(w: int) -> None:
            live: list[tuple[int, int]] = []
            try:
                start.wait(5.0)
                for j, want_delete in enumerate(plans[w]):
                    # One latched block per logical op: marker + payload
                    # commit atomically with respect to snapshot opens.
                    with store.latch.write():
                        i = len(oplog)
                        file.insert((MARKER, i), i)
                        if want_delete and live:
                            key = live.pop()
                            file.delete(key)
                            oplog.append(("del", key, None))
                        else:
                            key = (w, j)
                            file.insert(key, i)
                            live.append(key)
                            oplog.append(("ins", key, i))
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(w,))
            for w in range(N_WRITERS)
        ]
        for thread in threads:
            thread.start()
        start.wait(5.0)
        for _ in range(SCANS):
            _check_prefix(dict(file.items()), oplog, initial)
        for thread in threads:
            thread.join()
        assert not errors, errors

        total = _check_prefix(dict(file.items()), oplog, initial)
        assert total == len(oplog) == N_WRITERS * OPS_PER_WRITER
        assert store.open_snapshots == 0
        assert store.preserved_versions == 0
    finally:
        store.close()
        shutil.rmtree(root, ignore_errors=True)


@pytest.mark.parametrize("kind", BACKENDS)
@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(0, 2**32 - 1))
def test_snapshot_scan_equals_serial_replay(kind, seed):
    """Snapshot at version v == serial replay of the first v ops."""
    _run_storm(kind, seed)

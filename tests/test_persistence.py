"""Whole-index snapshots: save, load, keep operating."""

import pytest

from repro import BMEHTree, ExtendibleHashFile, MDEH, MEHTree, BalancedBinaryTrie
from repro.errors import StorageError
from repro.storage import load_index, save_index
from repro.workloads import uniform_keys, unique


@pytest.fixture(scope="module")
def keys():
    return unique(uniform_keys(400, 2, seed=110, domain=256))


ALL = [MDEH, MEHTree, BMEHTree, BalancedBinaryTrie]


@pytest.mark.parametrize("cls", ALL)
class TestSnapshotRoundtrip:
    def build(self, cls, keys):
        index = cls(2, 4, widths=8)
        for i, key in enumerate(keys):
            index.insert(key, {"row": i})
        return index

    def test_records_survive(self, cls, keys, tmp_path):
        index = self.build(cls, keys)
        path = str(tmp_path / "index.snap")
        save_index(index, path)
        back = load_index(path)
        assert type(back) is cls
        assert len(back) == len(index)
        for i, key in enumerate(keys):
            assert back.search(key) == {"row": i}

    def test_structure_survives(self, cls, keys, tmp_path):
        index = self.build(cls, keys)
        path = str(tmp_path / "index.snap")
        save_index(index, path)
        back = load_index(path)
        back.check_invariants()
        assert back.directory_size == index.directory_size
        assert back.data_page_count == index.data_page_count
        assert back.widths == index.widths
        assert back.page_capacity == index.page_capacity

    def test_loaded_index_keeps_working(self, cls, keys, tmp_path):
        index = self.build(cls, keys)
        path = str(tmp_path / "index.snap")
        save_index(index, path)
        back = load_index(path)
        back.delete(keys[0])
        assert keys[0] not in back
        new_key = next(
            k for k in ((x, y) for x in range(256) for y in range(256))
            if k not in back
        )
        back.insert(new_key, "fresh")
        assert back.search(new_key) == "fresh"
        back.check_invariants()

    def test_stats_reset_on_load(self, cls, keys, tmp_path):
        index = self.build(cls, keys)
        path = str(tmp_path / "index.snap")
        save_index(index, path)
        back = load_index(path)
        assert back.store.stats.accesses == 0
        # The physical ledger must reset too: loading allocates every
        # page through the backend, and those bookkeeping writes would
        # otherwise masquerade as measured I/O.
        assert back.store.backend_stats.accesses == 0


class TestSnapshotEdgeCases:
    def test_one_dimensional_file(self, tmp_path):
        f = ExtendibleHashFile(4, width=12)
        for v in range(0, 4096, 31):
            f.insert(v, v * 2)
        path = str(tmp_path / "ehf.snap")
        save_index(f, path)
        back = load_index(path)
        assert type(back) is ExtendibleHashFile
        assert back.search(31) == 62
        back.check_invariants()

    def test_empty_index(self, tmp_path):
        index = BMEHTree(2, 4, widths=8)
        path = str(tmp_path / "empty.snap")
        save_index(index, path)
        back = load_index(path)
        assert len(back) == 0
        back.insert((1, 1), "first")
        assert back.search((1, 1)) == "first"

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"not a snapshot at all......")
        with pytest.raises(StorageError):
            load_index(str(path))
        # A well-formed body behind the retired format-1 magic is still
        # not a snapshot: only BMEHSNP2 loads.
        index = BMEHTree(2, 4, widths=8)
        index.insert((1, 2), "v")
        save_index(index, str(path))
        with open(path, "r+b") as fh:
            fh.write(b"BMEHSNAP")
        with pytest.raises(StorageError, match="not an index snapshot"):
            load_index(str(path))

    def test_tree_options_survive(self, tmp_path):
        index = BMEHTree(2, 4, widths=8, xi=(2, 4), node_policy="per_dim")
        index.insert((3, 3))
        path = str(tmp_path / "opts.snap")
        save_index(index, path)
        back = load_index(path)
        assert back.xi == (2, 4)
        assert back._node_policy == "per_dim"


class TestDeepDirectorySnapshots:
    """Directory entries whose local depths exceed 8 bits of prefix.

    The directory record packs each hash component as a u16, so prefix
    values above 255 round-trip, and the writer rejects a component it
    cannot represent instead of wrapping it.
    """

    def deep_file(self):
        f = ExtendibleHashFile(2, width=12)
        for v in range(0, 4096, 3):
            f.insert(v, v * 2)
        # The regression regime: prefixes wider than one byte.
        assert max(f._dir.depths) > 8
        return f

    def test_round_trip_beyond_8_bit_prefixes(self, tmp_path):
        f = self.deep_file()
        path = str(tmp_path / "deep.snap")
        save_index(f, path)
        back = load_index(path)
        assert len(back) == len(f)
        for v in range(0, 4096, 3):
            assert back.search(v) == v * 2
        back.check_invariants()

    def test_v1_writer_rejects_unrepresentable_entries(self, tmp_path):
        from repro.errors import SerializationError

        f = ExtendibleHashFile(4, width=12)
        for v in range(0, 4096, 61):
            f.insert(v, v)
        # Real components stay far below the u16 field (widths are
        # capped at 64), but if that cap ever moves the writer must
        # fail loudly instead of wrapping the field.
        f._dir.get_at(0).h[0] = 0x10000
        with pytest.raises(SerializationError):
            save_index(f, str(tmp_path / "wide.snap"))

    def test_v2_magic_on_disk(self, tmp_path):
        index = BMEHTree(2, 4, widths=8)
        index.insert((1, 2), "v")
        path = str(tmp_path / "v2.snap")
        save_index(index, path)
        with open(path, "rb") as fh:
            assert fh.read(8) == b"BMEHSNP2"

    def test_truncated_snapshot_raises_named_error(self, tmp_path):
        from repro.errors import SerializationError

        index = BMEHTree(2, 4, widths=8)
        for i in range(40):
            index.insert((i, i), i)
        path = str(tmp_path / "cut.snap")
        save_index(index, path)
        size = len(open(path, "rb").read())
        for cut in (10, size // 2, size - 3):
            with open(path, "rb") as fh:
                prefix = fh.read(cut)
            cut_path = str(tmp_path / f"cut-{cut}.snap")
            with open(cut_path, "wb") as fh:
                fh.write(prefix)
            with pytest.raises(SerializationError):
                load_index(cut_path)

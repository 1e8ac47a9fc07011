"""A K-D-B-tree over pseudo-key codes (dyadic-midpoint splits).

Structure (Robinson 1981):

* **point pages** (leaves) hold up to ``b`` records;
* **region pages** (internal) hold ``(box, child)`` entries — the boxes
  tile the page's own region exactly;
* a full point page splits on a plane (here: the dyadic midpoint of its
  box on the cyclically next dimension, the same rule as the hashing
  schemes); a full region page splits the same way, and child regions
  *crossing* the plane are split downward recursively;
* only a root split adds a level, so all point pages sit at the same
  depth — the balance idea the BMEH-tree borrows.

Deletion removes the record and drops emptied point pages to NIL
entries; Robinson's full reorganization (merging region pages) is out of
scope, as in most K-D-B implementations.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator, Sequence

from repro.bits import bit_at, low_mask
from repro.errors import DuplicateKeyError, KeyNotFoundError
from repro.storage import DataPage, PageStore
from repro.core.interface import (
    KeyCodes,
    LeafRegion,
    MultidimensionalIndex,
    Record,
)


class _Box:
    """A dyadic axis-aligned box (inclusive bounds)."""

    __slots__ = ("lows", "highs")

    def __init__(self, lows: tuple[int, ...], highs: tuple[int, ...]):
        self.lows = lows
        self.highs = highs

    def contains(self, codes: Sequence[int]) -> bool:
        return all(
            lo <= c <= hi for lo, c, hi in zip(self.lows, codes, self.highs)
        )

    def intersects(self, lows: Sequence[int], highs: Sequence[int]) -> bool:
        return all(
            self.lows[j] <= highs[j] and self.highs[j] >= lows[j]
            for j in range(len(self.lows))
        )

    def halves(self, dim: int) -> tuple["_Box", "_Box"]:
        midpoint = (self.lows[dim] + self.highs[dim] + 1) // 2
        low_high = tuple(
            midpoint - 1 if j == dim else h for j, h in enumerate(self.highs)
        )
        high_low = tuple(
            midpoint if j == dim else lo for j, lo in enumerate(self.lows)
        )
        return _Box(self.lows, low_high), _Box(high_low, self.highs)

    def side_of(self, dim: int, midpoint: int) -> int | None:
        """0 if entirely below the plane, 1 if entirely above, None if
        the box crosses it."""
        if self.highs[dim] < midpoint:
            return 0
        if self.lows[dim] >= midpoint:
            return 1
        return None

    def span_bits(self, dim: int) -> int:
        return (self.highs[dim] - self.lows[dim] + 1).bit_length() - 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"_Box({self.lows}..{self.highs})"


class _Entry:
    """One (box, child) slot of a region page."""

    __slots__ = ("box", "ptr", "is_region", "m")

    def __init__(self, box: _Box, ptr: int | None, is_region: bool, m: int):
        self.box = box
        self.ptr = ptr
        self.is_region = is_region
        self.m = m


class _RegionPage:
    """An internal page: a list of box entries tiling its own box."""

    __slots__ = ("entries", "level")

    def __init__(self, level: int):
        self.entries: list[_Entry] = []
        self.level = level

    def locate(self, codes: Sequence[int]) -> _Entry:
        for entry in self.entries:
            if entry.box.contains(codes):
                return entry
        raise AssertionError(f"region page does not cover {codes}")


class RegionPageCodec:
    """Byte image for K-D-B region pages (tag 0x13):
    ``u8 format-version | u8 level | u16 count | u8 dims`` then per
    entry ``dims*u64 lows | dims*u64 highs | i64 ptr | u8 is_region |
    u8 m``.  Decodes over a ``memoryview`` without copying the slot."""

    tag = 0x13
    _FORMAT_VERSION = 1

    def handles(self, obj: object) -> bool:
        return isinstance(obj, _RegionPage)

    def encode_body(self, page: "_RegionPage") -> bytes:
        import struct

        dims = len(page.entries[0].box.lows) if page.entries else 0
        parts = [
            bytes([self._FORMAT_VERSION]),
            struct.pack("<BHB", page.level, len(page.entries), dims),
        ]
        record = struct.Struct(f"<{dims}Q{dims}QqBB")
        for entry in page.entries:
            ptr = -1 if entry.ptr is None else entry.ptr
            parts.append(
                record.pack(
                    *entry.box.lows, *entry.box.highs,
                    ptr, int(entry.is_region), entry.m,
                )
            )
        return b"".join(parts)

    def decode_body(self, data: "bytes | memoryview") -> "_RegionPage":
        import struct

        from repro.errors import SerializationError

        try:
            if data[0] != self._FORMAT_VERSION:
                raise SerializationError(
                    f"unsupported region page format version {data[0]}"
                )
            level, count, dims = struct.unpack_from("<BHB", data, 1)
            offset = 1 + struct.calcsize("<BHB")
            page = _RegionPage(level)
            record = struct.Struct(f"<{dims}Q{dims}QqBB")
            for _ in range(count):
                fields = record.unpack_from(data, offset)
                offset += record.size
                lows = fields[:dims]
                highs = fields[dims : 2 * dims]
                ptr, is_region, m = fields[2 * dims :]
                page.entries.append(
                    _Entry(
                        _Box(tuple(lows), tuple(highs)),
                        None if ptr < 0 else ptr,
                        bool(is_region),
                        m,
                    )
                )
            return page
        except (struct.error, IndexError) as exc:
            raise SerializationError(f"corrupt region page: {exc}") from exc


class KDBTree(MultidimensionalIndex):
    """Robinson's K-D-B-tree with dyadic-midpoint split planes.

    Args:
        region_capacity: entries per region page (the directory fanout;
            64 by default, the same page budget as a BMEH node).
    """

    def __init__(
        self,
        dims: int,
        page_capacity: int,
        widths: Sequence[int] | int = 32,
        store: PageStore | None = None,
        region_capacity: int = 64,
    ) -> None:
        super().__init__(dims, page_capacity, widths, store)
        if region_capacity < 2:
            raise ValueError("region pages need capacity >= 2")
        self._fanout = region_capacity
        root = _RegionPage(level=1)
        root.entries.append(
            _Entry(self._domain_box(), None, False, dims - 1)
        )
        self._root_id = self._store.allocate(root)
        self._store.pin(self._root_id)
        self._region_pages = 1
        self._data_pages = 0

    def _domain_box(self) -> _Box:
        return _Box(
            (0,) * self._dims,
            tuple(low_mask(w) for w in self._widths),
        )

    # -- state ---------------------------------------------------------------

    @property
    def region_page_count(self) -> int:
        return self._region_pages

    @property
    def fanout(self) -> int:
        return self._fanout

    @property
    def directory_size(self) -> int:
        """Reserved directory slots: region pages × fanout (comparable
        with the node-based σ of the tree hashing schemes)."""
        return self._region_pages * self._fanout

    @property
    def data_page_count(self) -> int:
        return self._data_pages

    @property
    def root_id(self) -> int:
        return self._root_id

    def height(self) -> int:
        height = 1
        page = self._store.peek(self._root_id)
        while page.entries and page.entries[0].is_region:
            height += 1
            page = self._store.peek(page.entries[0].ptr)
        return height

    # -- descent ---------------------------------------------------------------

    def _descend(self, codes: KeyCodes) -> list[tuple[int, _RegionPage, _Entry]]:
        path = []
        page_id = self._root_id
        while True:
            page = self._store.read(page_id)
            entry = page.locate(codes)
            path.append((page_id, page, entry))
            if not entry.is_region:
                return path
            page_id = entry.ptr

    # -- operations ----------------------------------------------------------

    def search(self, key: Sequence[int]) -> Any:
        codes = self._check_key(key)
        with self._store.operation():
            entry = self._descend(codes)[-1][2]
            if entry.ptr is None:
                raise KeyNotFoundError(f"key {codes} not found")
            return self._store.read(entry.ptr).get(codes)

    def insert(self, key: Sequence[int], value: Any = None) -> None:
        codes = self._check_key(key)
        with self._store.operation():
            while True:
                path = self._descend(codes)
                leaf_id, leaf, entry = path[-1]
                if entry.ptr is None:
                    entry.ptr = self._store.allocate(
                        DataPage(self._page_capacity)
                    )
                    self._data_pages += 1
                    self._store.write(leaf_id, leaf)
                page = self._store.read(entry.ptr)
                if codes in page:
                    raise DuplicateKeyError(f"key {codes} already present")
                if not page.is_full:
                    page.put(codes, value)
                    self._store.write(entry.ptr, page)
                    self._num_keys += 1
                    return
                self._split_point_entry(path)

    def _split_point_entry(self, path) -> None:
        """Split a full point page and register the halves upward."""
        leaf_id, leaf, entry = path[-1]
        total_depths = [
            self._widths[j] - entry.box.span_bits(j)
            for j in range(self._dims)
        ]
        m = self._next_split_dim(entry.m, total_depths)
        low_box, high_box = entry.box.halves(m)
        page = self._store.read(entry.ptr)
        sibling = self._split_page(page, m, total_depths[m] + 1)
        low_ptr: int | None = entry.ptr
        high_ptr: int | None = None
        if len(page) == 0:
            self._store.free(entry.ptr)
            self._data_pages -= 1
            low_ptr = None
        else:
            self._store.write(entry.ptr, page)
        if len(sibling) > 0:
            high_ptr = self._store.allocate(sibling)
            self._data_pages += 1
        replacement = [
            _Entry(low_box, low_ptr, False, m),
            _Entry(high_box, high_ptr, False, m),
        ]
        leaf.entries.remove(entry)
        leaf.entries.extend(replacement)
        self._store.write(leaf_id, leaf)
        self._overflow_chain(path)

    def _overflow_chain(self, path) -> None:
        """Split region pages bottom-up while they exceed the fanout."""
        for depth in range(len(path) - 1, -1, -1):
            page_id, page, _entry = path[depth]
            if len(page.entries) <= self._fanout:
                return
            box = self._page_box(path, depth)
            m = self._region_split_dim(page, box)
            low_box, high_box = box.halves(m)
            midpoint = high_box.lows[m]
            low = _RegionPage(page.level)
            high = _RegionPage(page.level)
            for entry in page.entries:
                side = entry.box.side_of(m, midpoint)
                if side == 0:
                    low.entries.append(entry)
                elif side == 1:
                    high.entries.append(entry)
                else:
                    self._cut_entry(entry, m, midpoint, low, high)
            self._store.write(page_id, low)
            high_id = self._store.allocate(high)
            self._region_pages += 1
            if depth == 0:
                new_root = _RegionPage(level=page.level + 1)
                new_root.entries.append(_Entry(low_box, page_id, True, m))
                new_root.entries.append(_Entry(high_box, high_id, True, m))
                new_root_id = self._store.allocate(new_root)
                self._region_pages += 1
                self._store.unpin(page_id)
                self._store.pin(new_root_id)
                self._root_id = new_root_id
                return
            parent_id, parent, _ = path[depth - 1]
            old = next(e for e in parent.entries if e.ptr == page_id)
            parent.entries.remove(old)
            parent.entries.append(_Entry(low_box, page_id, True, m))
            parent.entries.append(_Entry(high_box, high_id, True, m))
            self._store.write(parent_id, parent)

    def _page_box(self, path, depth: int) -> _Box:
        if depth == 0:
            return self._domain_box()
        return path[depth - 1][2].box

    def _region_split_dim(self, page: _RegionPage, box: _Box) -> int:
        """Cyclic split dimension for a region page, preferring an axis
        whose plane crosses the fewest child boxes."""
        best = None
        for j in range(self._dims):
            if box.span_bits(j) == 0:
                continue
            midpoint = (box.lows[j] + box.highs[j] + 1) // 2
            crossings = sum(
                1 for e in page.entries if e.box.side_of(j, midpoint) is None
            )
            if best is None or crossings < best[0]:
                best = (crossings, j)
        if best is None:
            from repro.errors import CapacityError

            raise CapacityError("region box cannot be split further")
        return best[1]

    def _cut_entry(
        self, entry: _Entry, m: int, midpoint: int,
        low: _RegionPage, high: _RegionPage,
    ) -> None:
        """Robinson's downward split of a child crossing the plane."""
        low_box, high_box = entry.box.halves(m)
        assert high_box.lows[m] == midpoint, "plane misaligned with box"
        if entry.ptr is None:
            low.entries.append(_Entry(low_box, None, False, entry.m))
            high.entries.append(_Entry(high_box, None, False, entry.m))
            return
        if not entry.is_region:
            page = self._store.read(entry.ptr)
            position = self._widths[m] - entry.box.span_bits(m) + 1
            sibling = self._split_page(page, m, position)
            low_ptr: int | None = entry.ptr
            high_ptr: int | None = None
            if len(page) == 0:
                self._store.free(entry.ptr)
                self._data_pages -= 1
                low_ptr = None
            else:
                self._store.write(entry.ptr, page)
            if len(sibling) > 0:
                high_ptr = self._store.allocate(sibling)
                self._data_pages += 1
            low.entries.append(_Entry(low_box, low_ptr, False, entry.m))
            high.entries.append(_Entry(high_box, high_ptr, False, entry.m))
            return
        child = self._store.read(entry.ptr)
        child_low = _RegionPage(child.level)
        child_high = _RegionPage(child.level)
        for sub in child.entries:
            side = sub.box.side_of(m, midpoint)
            if side == 0:
                child_low.entries.append(sub)
            elif side == 1:
                child_high.entries.append(sub)
            else:
                self._cut_entry(sub, m, midpoint, child_low, child_high)
        self._store.write(entry.ptr, child_low)
        high_id = self._store.allocate(child_high)
        self._region_pages += 1
        low.entries.append(_Entry(low_box, entry.ptr, True, entry.m))
        high.entries.append(_Entry(high_box, high_id, True, entry.m))

    def delete(self, key: Sequence[int]) -> Any:
        codes = self._check_key(key)
        with self._store.operation():
            path = self._descend(codes)
            leaf_id, leaf, entry = path[-1]
            if entry.ptr is None:
                raise KeyNotFoundError(f"key {codes} not found")
            page = self._store.read(entry.ptr)
            value = page.remove(codes)
            self._num_keys -= 1
            if len(page) == 0:
                self._store.free(entry.ptr)
                self._data_pages -= 1
                entry.ptr = None
                self._store.write(leaf_id, leaf)
            else:
                self._store.write(entry.ptr, page)
            return value

    def range_search(
        self, lows: Sequence[int], highs: Sequence[int]
    ) -> Iterator[Record]:
        lows = self._check_key(lows)
        highs = self._check_key(highs)
        if any(lo > hi for lo, hi in zip(lows, highs)):
            return
        with self._store.operation():
            yield from self._range_page(self._root_id, lows, highs)

    def _range_page(self, page_id, lows, highs) -> Iterator[Record]:
        page = self._store.read(page_id)
        for entry in page.entries:
            if entry.ptr is None or not entry.box.intersects(lows, highs):
                continue
            if entry.is_region:
                yield from self._range_page(entry.ptr, lows, highs)
            else:
                for codes, value in self._store.read(entry.ptr).items():
                    if all(
                        lows[j] <= codes[j] <= highs[j]
                        for j in range(self._dims)
                    ):
                        yield codes, value

    def items(self) -> Iterator[Record]:
        with self._store.operation():
            yield from self._items_under(self._root_id)

    def _items_under(self, page_id) -> Iterator[Record]:
        page = self._store.read(page_id)
        for entry in page.entries:
            if entry.ptr is None:
                continue
            if entry.is_region:
                yield from self._items_under(entry.ptr)
            else:
                yield from self._store.read(entry.ptr).items()

    # -- introspection -----------------------------------------------------------

    def leaf_regions(self) -> Iterator[LeafRegion]:
        yield from self._leaves_under(self._root_id)

    def _leaves_under(self, page_id) -> Iterator[LeafRegion]:
        page = self._store.peek(page_id)
        for entry in page.entries:
            if entry.is_region:
                yield from self._leaves_under(entry.ptr)
            else:
                prefixes, depths = [], []
                for j in range(self._dims):
                    depth = self._widths[j] - entry.box.span_bits(j)
                    depths.append(depth)
                    prefixes.append(
                        entry.box.lows[j] >> (self._widths[j] - depth)
                    )
                yield LeafRegion(tuple(prefixes), tuple(depths), entry.ptr)

    def check_invariants(self) -> None:
        seen_pages: dict[int, bool] = {}
        regions = [0]
        keys = [0]
        leaf_levels: set[int] = set()

        def check(page_id: int, box: _Box, depth: int) -> None:
            regions[0] += 1
            page = self._store.peek(page_id)
            volume = 0
            for entry in page.entries:
                for j in range(self._dims):
                    span = entry.box.highs[j] - entry.box.lows[j] + 1
                    assert span & (span - 1) == 0, "entry box not dyadic"
                    assert box.lows[j] <= entry.box.lows[j], "box escapes"
                    assert entry.box.highs[j] <= box.highs[j], "box escapes"
                size = 1
                for j in range(self._dims):
                    size *= entry.box.highs[j] - entry.box.lows[j] + 1
                volume += size
                if entry.is_region:
                    assert entry.ptr is not None
                    assert entry.ptr not in seen_pages, "region shared"
                    seen_pages[entry.ptr] = True
                    check(entry.ptr, entry.box, depth + 1)
                else:
                    leaf_levels.add(depth)
                    if entry.ptr is None:
                        continue
                    assert entry.ptr not in seen_pages, "page shared"
                    seen_pages[entry.ptr] = True
                    data = self._store.peek(entry.ptr)
                    assert 0 < len(data) <= self._page_capacity
                    keys[0] += len(data)
                    for codes in data.keys():
                        assert entry.box.contains(codes), "record outside box"
            total = 1
            for j in range(self._dims):
                total *= box.highs[j] - box.lows[j] + 1
            assert volume == total, "child boxes do not tile the region"
            assert len(page.entries) <= self._fanout, "region page overflow"

        check(self._root_id, self._domain_box(), 1)
        assert keys[0] == self._num_keys
        assert regions[0] == self._region_pages
        assert len(leaf_levels) <= 1, "point pages at different depths"

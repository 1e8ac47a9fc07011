"""Round-trip tests for the page codecs."""

import pytest
from hypothesis import given, strategies as st

from repro.core.directory import DirEntry
from repro.core.node import Node, NodeCodec
from repro.errors import SerializationError
from repro.kdb.kdbtree import RegionPageCodec, _Box, _Entry, _RegionPage
from repro.storage import DataPage, binval
from repro.storage.serializer import (
    CodecRegistry,
    DataPageCodecV2,
    default_registry,
)


def build_node():
    node = Node(2, (3, 3), level=2)
    node.array.grow(0)
    node.array.grow(1)
    shared = DirEntry([1, 0], 0, 17, True)
    lone = DirEntry([1, 1], 1, None, False)
    node.array[(0, 0)] = shared
    node.array[(0, 1)] = shared
    node.array[(1, 0)] = DirEntry([1, 1], 1, 23, False)
    node.array[(1, 1)] = lone
    return node


class TestNodeCodec:
    def test_roundtrip_structure(self):
        node = build_node()
        codec = NodeCodec()
        back = codec.decode_body(codec.encode_body(node))
        assert back.level == 2
        assert back.xi == (3, 3)
        assert back.array.depths == (1, 1)
        assert back.array[(0, 0)] is back.array[(0, 1)]  # sharing preserved
        assert back.array[(0, 0)].ptr == 17
        assert back.array[(0, 0)].is_node
        assert back.array[(1, 0)].ptr == 23
        assert back.array[(1, 1)].ptr is None

    def test_hole_rejected(self):
        node = Node(2, (3, 3), level=1)  # single None cell
        with pytest.raises(SerializationError):
            NodeCodec().encode_body(node)

    def test_corrupt_image(self):
        with pytest.raises(SerializationError):
            NodeCodec().decode_body(b"\x05")


class TestCodecRegistry:
    def test_default_registry_dispatch(self):
        registry = default_registry()
        page = DataPage(2)
        page.put((5,), "v")
        assert registry.decode(registry.encode(page)).get((5,)) == "v"
        node = build_node()
        assert registry.decode(registry.encode(node)).level == 2

    def test_unknown_object(self):
        with pytest.raises(SerializationError):
            CodecRegistry().encode(object())

    @pytest.mark.parametrize(
        "tag", [0x7F, 0x01, 0x02, 0x03], ids=lambda tag: f"{tag:#04x}"
    )
    def test_unknown_tag(self, tag):
        # 0x01-0x03 were the retired data-page, node and region-page
        # layouts; their images must fail as loudly as any unknown tag.
        with pytest.raises(SerializationError, match="unknown page tag"):
            default_registry().decode(bytes([tag]) + b"xyz")

    def test_empty_image(self):
        with pytest.raises(SerializationError):
            default_registry().decode(b"")

    def test_duplicate_tag_rejected(self):
        registry = CodecRegistry()
        registry.register(DataPageCodecV2())
        with pytest.raises(SerializationError):
            registry.register(DataPageCodecV2())


# --- PR 9: struct layouts under hypothesis ------------------------------

#: Every value shape the tagged binary encoding covers natively.  The
#: integer range deliberately straddles the INT64/BIGINT split and the
#: recursion nests containers inside containers.
binval_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=False),
    st.text(max_size=16),
    st.binary(max_size=16),
)
binval_values = st.recursive(
    binval_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=3),
    ),
    max_leaves=12,
)


def exact(value):
    """repr() distinguishes 1/True/1.0 and (1,)/[1], so comparing reprs
    checks the roundtrip preserved types, not just equality."""
    return repr(value)


class TestBinval:
    @given(binval_values)
    def test_roundtrip_identity(self, value):
        assert exact(binval.decode(binval.encode(value))) == exact(value)

    @given(binval_values)
    def test_native_values_never_pickle(self, value):
        out = bytearray()
        binval.encode_into(out, value, pickle_fallback=False)
        assert exact(binval.decode(out, allow_pickle=False)) == exact(value)

    def test_encode_refuses_pickle_when_disabled(self):
        with pytest.raises(SerializationError):
            binval.encode_into(bytearray(), {1, 2}, pickle_fallback=False)

    def test_decode_refuses_pickle_tag(self):
        blob = binval.encode({1, 2})  # falls back to the pickle tag
        assert binval.decode(blob) == {1, 2}
        with pytest.raises(SerializationError):
            binval.decode(blob, allow_pickle=False)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SerializationError):
            binval.decode(binval.encode(7) + b"\x00")

    @given(binval_values)
    def test_truncation_rejected(self, value):
        blob = binval.encode(value)
        for cut in range(len(blob)):
            with pytest.raises(SerializationError):
                binval.decode(blob[:cut])


class TestDataPageCodecV2:
    def roundtrip(self, page):
        codec = DataPageCodecV2()
        return codec.decode_body(memoryview(codec.encode_body(page)))

    @given(
        st.lists(
            st.tuples(
                st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
                binval_values,
            ),
            max_size=8,
            unique_by=lambda kv: kv[0],
        )
    )
    def test_roundtrip_property(self, records):
        page = DataPage(max(len(records), 1))
        for codes, value in records:
            page.put(codes, value)
        back = self.roundtrip(page)
        assert back.capacity == page.capacity
        assert exact(dict(back.items())) == exact(dict(page.items()))

    def test_bad_format_version(self):
        codec = DataPageCodecV2()
        image = bytearray(codec.encode_body(DataPage(4)))
        image[0] = 99
        with pytest.raises(SerializationError):
            codec.decode_body(bytes(image))

    @given(
        st.lists(
            st.tuples(st.tuples(st.integers(0, 2**20)), binval_values),
            max_size=4,
            unique_by=lambda kv: kv[0],
        )
    )
    def test_every_truncation_rejected(self, records):
        page = DataPage(max(len(records), 1))
        for codes, value in records:
            page.put(codes, value)
        registry = default_registry()
        image = registry.encode(page)
        assert image[0] == DataPageCodecV2.tag
        for cut in range(len(image)):
            with pytest.raises(SerializationError):
                registry.decode(image[:cut])


@st.composite
def nodes(draw):
    """A hole-free directory node: random shape, random entry pool, and
    a random cell→entry assignment (so buddy-sharing groups vary)."""
    dims = draw(st.integers(1, 3))
    xi = tuple(draw(st.integers(1, 4)) for _ in range(dims))
    node = Node(dims, xi, level=draw(st.integers(1, 255)))
    for axis in draw(st.lists(st.integers(0, dims - 1), max_size=3)):
        node.array.grow(axis)
    pool = [
        DirEntry(
            [draw(st.integers(0, 255)) for _ in range(dims)],
            draw(st.integers(0, 255)),
            draw(st.one_of(st.none(), st.integers(0, 2**40))),
            draw(st.booleans()),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    size = 2 ** sum(node.array.depths)
    for address in range(size):
        index = node.array.index_of(address)
        node.array[index] = pool[draw(st.integers(0, len(pool) - 1))]
    return node


class TestNodeCodecProperties:
    @given(nodes())
    def test_roundtrip_property(self, node):
        codec = NodeCodec()
        back = codec.decode_body(memoryview(codec.encode_body(node)))
        assert back.level == node.level
        assert back.xi == node.xi
        assert back.array.depths == node.array.depths
        size = 2 ** sum(node.array.depths)
        for address in range(size):
            index = node.array.index_of(address)
            a, b = node.array[index], back.array[index]
            assert (a.h, a.m, a.ptr, a.is_node) == (b.h, b.m, b.ptr, b.is_node)
        # Sharing partition: addresses that aliased one entry still do.
        for lhs in range(size):
            for rhs in range(lhs + 1, size):
                li, ri = node.array.index_of(lhs), node.array.index_of(rhs)
                assert (node.array[li] is node.array[ri]) == (
                    back.array[li] is back.array[ri]
                )

    def test_every_truncation_rejected(self):
        registry = default_registry()
        image = registry.encode(build_node())
        assert image[0] == NodeCodec.tag
        for cut in range(len(image)):
            with pytest.raises(SerializationError):
                registry.decode(image[:cut])

    def test_bad_format_version(self):
        body = bytearray(NodeCodec().encode_body(build_node()))
        body[0] = 99
        with pytest.raises(SerializationError):
            NodeCodec().decode_body(bytes(body))


@st.composite
def region_pages(draw):
    dims = draw(st.integers(1, 3))
    page = _RegionPage(draw(st.integers(0, 255)))
    for _ in range(draw(st.integers(0, 6))):
        lows, highs = [], []
        for _ in range(dims):
            a = draw(st.integers(0, 2**64 - 1))
            b = draw(st.integers(0, 2**64 - 1))
            lows.append(min(a, b))
            highs.append(max(a, b))
        page.entries.append(
            _Entry(
                _Box(tuple(lows), tuple(highs)),
                draw(st.one_of(st.none(), st.integers(0, 2**40))),
                draw(st.booleans()),
                draw(st.integers(0, 255)),
            )
        )
    return page


def build_region_page():
    page = _RegionPage(3)
    page.entries.append(_Entry(_Box((0, 0), (7, 3)), 11, True, 2))
    page.entries.append(_Entry(_Box((8, 0), (15, 3)), None, False, 0))
    return page


class TestRegionPageCodecProperties:
    @given(region_pages())
    def test_roundtrip_property(self, page):
        codec = RegionPageCodec()
        back = codec.decode_body(memoryview(codec.encode_body(page)))
        assert back.level == page.level
        assert len(back.entries) == len(page.entries)
        for a, b in zip(page.entries, back.entries):
            assert (a.box.lows, a.box.highs) == (b.box.lows, b.box.highs)
            assert (a.ptr, a.is_region, a.m) == (b.ptr, b.is_region, b.m)

    def test_every_truncation_rejected(self):
        registry = default_registry()
        image = registry.encode(build_region_page())
        assert image[0] == RegionPageCodec.tag
        for cut in range(len(image)):
            with pytest.raises(SerializationError):
                registry.decode(image[:cut])

    def test_bad_format_version(self):
        body = bytearray(RegionPageCodec().encode_body(build_region_page()))
        body[0] = 99
        with pytest.raises(SerializationError):
            RegionPageCodec().decode_body(bytes(body))


class TestLegacyCoexistence:
    """The registry encodes every page kind in its one current layout."""

    def test_encode_always_picks_v2(self):
        registry = default_registry()
        page = DataPage(1)
        page.put((9,), "v")
        assert registry.encode(page)[0] == DataPageCodecV2.tag
        assert registry.encode(build_node())[0] == NodeCodec.tag
        assert registry.encode(build_region_page())[0] == RegionPageCodec.tag

"""Byte-level page codecs for the file-backed store.

Each page image starts with a one-byte type tag so a heterogeneous file
(data pages interleaved with directory nodes) can be decoded slot by
slot.  Codecs register in a :class:`CodecRegistry`; the directory-node
and region-page codecs live with their structures in ``repro.core.node``
and ``repro.kdb.kdbtree``, and :func:`default_registry` imports them
lazily, keeping the storage layer free of index knowledge.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from typing import Any

from repro.errors import SerializationError
from repro.storage import binval
from repro.storage.page import DataPage

#: Format-version byte leading every data-page image (tag 0x11).  The
#: node and region-page codecs carry their own version byte the same way.
PAGE_FORMAT_VERSION = 1


class PageCodec(ABC):
    """Encodes one page object type, identified by a unique tag byte."""

    tag: int = 0

    @abstractmethod
    def handles(self, obj: Any) -> bool: ...

    @abstractmethod
    def encode_body(self, obj: Any) -> bytes: ...

    @abstractmethod
    def decode_body(self, data: bytes) -> Any: ...


class DataPageCodecV2(PageCodec):
    """v2 struct layout for :class:`~repro.storage.page.DataPage`.

    ``u8 format-version | u32 capacity | u32 count | u16 dims`` then per
    record ``dims * u64`` pseudo-key codes followed by the record value
    in the tagged binary encoding of :mod:`repro.storage.binval` — no
    pickle round-trip for the common scalar values, and the decode path
    slices a ``memoryview`` instead of copying the image.
    """

    tag = 0x11
    _HEADER = struct.Struct("<IIH")

    def handles(self, obj: Any) -> bool:
        return isinstance(obj, DataPage)

    def encode_body(self, page: DataPage) -> bytes:
        records = list(page.items())
        dims = len(records[0][0]) if records else 0
        out = bytearray()
        out.append(PAGE_FORMAT_VERSION)
        out += self._HEADER.pack(page.capacity, len(records), dims)
        pack = struct.Struct(f"<{dims}Q").pack if dims else None
        encode_value = binval.encode_into
        for codes, value in records:
            if len(codes) != dims:
                raise SerializationError("mixed key arity within one page")
            if pack is not None:
                out += pack(*codes)
            encode_value(out, value)
        return bytes(out)

    def decode_body(self, data: bytes | memoryview) -> DataPage:
        try:
            if data[0] != PAGE_FORMAT_VERSION:
                raise SerializationError(
                    f"unsupported data-page format version {data[0]}"
                )
            capacity, count, dims = self._HEADER.unpack_from(data, 1)
            offset = 1 + self._HEADER.size
            page = DataPage(capacity)
            packer = struct.Struct(f"<{dims}Q")
            for _ in range(count):
                codes = packer.unpack_from(data, offset)
                offset += packer.size
                value, offset = binval.decode_from(data, offset)
                page.put(codes, value)
            return page
        except (struct.error, IndexError) as exc:
            raise SerializationError(f"corrupt data page image: {exc}") from exc


class CodecRegistry:
    """Dispatches page objects to codecs by type, and images by tag.

    Encoding picks the registered codec whose ``handles()`` claims the
    object; decoding dispatches on the leading tag byte and hands the
    codec a zero-copy ``memoryview`` of the body.  An image whose tag no
    codec owns fails with :class:`SerializationError`.
    """

    def __init__(self) -> None:
        self._by_tag: dict[int, PageCodec] = {}

    def register(self, codec: PageCodec) -> None:
        if codec.tag in self._by_tag:
            raise SerializationError(f"duplicate codec tag {codec.tag:#x}")
        self._by_tag[codec.tag] = codec

    def encode(self, obj: Any) -> bytes:
        for codec in self._by_tag.values():
            if codec.handles(obj):
                return bytes([codec.tag]) + codec.encode_body(obj)
        raise SerializationError(f"no codec for {type(obj).__name__}")

    def decode(self, image: bytes | memoryview) -> Any:
        if not len(image):
            raise SerializationError("empty page image")
        view = image if isinstance(image, memoryview) else memoryview(image)
        codec = self._by_tag.get(view[0])
        if codec is None:
            raise SerializationError(f"unknown page tag {view[0]:#x}")
        return codec.decode_body(view[1:])


def default_registry() -> CodecRegistry:
    """A registry with the data-page codec plus the directory-node and
    region-page codecs (imported lazily to keep storage independent of
    the index layer).  Each page kind has exactly one layout."""
    registry = CodecRegistry()
    registry.register(DataPageCodecV2())
    # Late imports: the index layers depend on storage, not vice versa.
    from repro.core.node import NodeCodec
    from repro.kdb.kdbtree import RegionPageCodec

    registry.register(NodeCodec())
    registry.register(RegionPageCodec())
    return registry

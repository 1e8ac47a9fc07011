"""Directory nodes for the tree-structured schemes (MEH / BMEH).

A node is one disk page holding a bounded extendible array of directory
entries.  Its *global depths* ``H_j`` are the array's per-axis doubling
counts; a node page reserves ``2^phi`` element slots (``phi = sum xi_j``),
which is why the paper reports tree directory sizes in multiples of
``2^phi``.
"""

from __future__ import annotations

import struct
from typing import Any, Iterator, Sequence

from repro.errors import SerializationError
from repro.extarray import ExtendibleArray
from repro.core.directory import DirEntry
from repro.storage.serializer import PageCodec


class Node:
    """A directory node: a bounded extendible array of :class:`DirEntry`.

    Attributes:
        level: height above the data pages (leaf directory nodes are at
            level 1, data pages at level 0, the root at the tree height).
        xi: per-axis depth budgets (the paper's ξ_j); their sum is φ and
            the node holds at most ``2^φ`` entries.
    """

    __slots__ = ("array", "level", "xi")

    def __init__(self, dims: int, xi: Sequence[int], level: int) -> None:
        if level < 1:
            raise ValueError("directory nodes live at level >= 1")
        if len(xi) != dims:
            raise ValueError("xi must have one budget per dimension")
        self.array = ExtendibleArray(dims, fill=None)
        self.level = level
        self.xi = tuple(xi)

    @property
    def dims(self) -> int:
        return self.array.dims

    @property
    def depths(self) -> tuple[int, ...]:
        """The node's global depths ``H_j``."""
        return self.array.depths

    @property
    def phi(self) -> int:
        return sum(self.xi)

    @property
    def capacity(self) -> int:
        """Reserved element slots per node page (``2^phi``)."""
        return 1 << self.phi

    def size(self) -> int:
        return len(self.array)

    def can_grow_total(self) -> bool:
        """Whether doubling keeps the node within its ``2^phi`` slots.

        This is the test in the paper's ``BMEH_Insert`` pseudocode
        ("if number of entries <= 2^phi then Expand_Dir").
        """
        return 2 * len(self.array) <= self.capacity

    def can_grow(self, axis: int, policy: str = "total") -> bool:
        """Whether the node may double along ``axis`` under ``policy``.

        ``"total"`` follows the pseudocode (any axis while the slot budget
        holds); ``"per_dim"`` additionally enforces ``H_j <= xi_j``, the
        stricter reading of §3.1.  The two are compared by an ablation
        benchmark.
        """
        if not self.can_grow_total():
            return False
        if policy == "per_dim":
            return self.array.depths[axis] < self.xi[axis]
        if policy == "total":
            return True
        raise ValueError(f"unknown node growth policy {policy!r}")

    def __deepcopy__(self, memo: dict[int, Any]) -> Node:
        """Exactly what generic ``copy.deepcopy`` builds, at structural
        cost: cells that share one :class:`DirEntry` share one new entry
        (``memo`` keyed by identity, as deepcopy keys it), each with a
        new ``h`` list; the array's shape containers are new and ``xi``
        is shared.  MVCC copy-on-write preserves nodes through this."""
        twin = Node.__new__(Node)
        memo[id(self)] = twin
        copied = memo.get
        cells: list[DirEntry | None] = []
        for entry in self.array.cells():
            if entry is not None:
                entry_twin = copied(id(entry))
                if entry_twin is None:
                    entry_twin = memo[id(entry)] = entry.clone()
                entry = entry_twin
            cells.append(entry)
        twin.array = self.array.with_cells(cells)
        twin.level = self.level
        twin.xi = self.xi
        return twin

    def entries(self) -> Iterator[DirEntry]:
        """Distinct region entries (cells share entry objects)."""
        seen: set[int] = set()
        for cell in self.array.cells():
            if cell is not None and id(cell) not in seen:
                seen.add(id(cell))
                yield cell

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Node(level={self.level}, H={self.depths}, xi={self.xi})"


#: Format-version byte leading every node image (tag 0x12).
_NODE_FORMAT_VERSION = 1


class NodeCodec(PageCodec):
    """Byte image for directory nodes (tag 0x12).

    ``u8 format-version | u8 level | u8 dims | dims*u8 xi | u8 steps |
    steps*u8 axes`` then one record per distinct region entry
    (``dims*u8 h | u8 m | i64 ptr | u8 is_node | u32 cell-count | cells``)
    where cells are u32 linear addresses.  Replaying the growth axes
    reconstructs the array's addressing history exactly.  Decoding works
    over a ``memoryview`` of the page slot without copying it.
    """

    tag = 0x12

    def handles(self, obj: object) -> bool:
        return isinstance(obj, Node)

    def encode_body(self, node: Node) -> bytes:
        history_axes = [axis for axis, _ in node.array.history()]
        parts = [
            bytes([_NODE_FORMAT_VERSION]),
            struct.pack(
                f"<BB{node.dims}BB",
                node.level,
                node.dims,
                *node.xi,
                len(history_axes),
            ),
            bytes(history_axes),
        ]
        groups: dict[int, tuple[DirEntry, list[int]]] = {}
        for address in range(len(node.array)):
            entry = node.array.get_at(address)
            if entry is None:
                raise SerializationError("cannot serialize a node with holes")

            groups.setdefault(id(entry), (entry, []))[1].append(address)
        parts.append(struct.pack("<I", len(groups)))
        for entry, addresses in groups.values():
            ptr = -1 if entry.ptr is None else entry.ptr
            parts.append(
                struct.pack(
                    f"<{node.dims}BBqBI",
                    *entry.h,
                    entry.m,
                    ptr,
                    int(entry.is_node),
                    len(addresses),
                )
            )
            parts.append(struct.pack(f"<{len(addresses)}I", *addresses))
        return b"".join(parts)

    def decode_body(self, data: bytes | memoryview) -> Node:
        try:
            if data[0] != _NODE_FORMAT_VERSION:
                raise SerializationError(
                    f"unsupported node format version {data[0]}"
                )
            level, dims = struct.unpack_from("<BB", data, 1)
            offset = 3
            xi = struct.unpack_from(f"<{dims}B", data, offset)
            offset += dims
            (steps,) = struct.unpack_from("<B", data, offset)
            offset += 1
            axes = data[offset : offset + steps]
            if len(axes) < steps:
                raise SerializationError("truncated node growth history")
            offset += steps
            node = Node(dims, xi, level)
            for axis in axes:
                node.array.grow(axis)
            (group_count,) = struct.unpack_from("<I", data, offset)
            offset += 4
            record = struct.Struct(f"<{dims}BBqBI")
            for _ in range(group_count):
                fields = record.unpack_from(data, offset)
                offset += record.size
                h = fields[:dims]
                m, ptr, is_node, cell_count = fields[dims:]
                entry = DirEntry(h, m, None if ptr < 0 else ptr, bool(is_node))
                addresses = struct.unpack_from(f"<{cell_count}I", data, offset)
                offset += 4 * cell_count
                for address in addresses:
                    node.array.set_at(address, entry)
            return node
        except (struct.error, IndexError) as exc:
            raise SerializationError(f"corrupt node image: {exc}") from exc

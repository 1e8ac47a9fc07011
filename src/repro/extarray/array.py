"""A growable d-dimensional array with stable linear addresses.

Generalizes Theorem 1 to an *arbitrary* doubling history: the hashing
directories double along whichever axis an overflowing region demands, so
the cyclic-order closed form does not always apply.  The array records one
history entry per doubling (the axis and the depth vector before it);
addresses are computed from the history in O(d).  When the history happens
to be cyclic the addresses coincide with :func:`theorem1_address` — a
property the test suite checks.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence


class ExtendibleArray:
    """Flat storage addressed by d-tuples; doubling appends, never moves.

    The total cell count doubles with every growth step, so after ``t``
    steps the array holds ``2^t`` cells and the block created by step
    ``t`` occupies addresses ``[2^t, 2^{t+1})``.
    """

    __slots__ = (
        "_dims",
        "_depths",
        "_cells",
        "_history",
        "_axis_steps",
        "_addr_cache",
    )

    def __init__(self, dims: int, fill: Any = None) -> None:
        if dims < 1:
            raise ValueError("dims must be positive")
        self._dims = dims
        self._depths = [0] * dims
        self._cells: list[Any] = [fill]
        # Per growth step: (axis, depth-vector before the step).
        self._history: list[tuple[int, tuple[int, ...]]] = []
        # Per axis: global step number of each of its doublings.
        self._axis_steps: list[list[int]] = [[] for _ in range(dims)]
        # Lazily built {index tuple: address} map; the mapping only
        # changes when the shape does, so growth/shrink drop it and the
        # next :meth:`address` call rebuilds it in one pass.
        self._addr_cache: dict[tuple[int, ...], int] | None = None

    # -- shape ---------------------------------------------------------------

    @property
    def dims(self) -> int:
        return self._dims

    @property
    def depths(self) -> tuple[int, ...]:
        """Current per-axis doubling counts (extent of axis j = 2^depths[j])."""
        return tuple(self._depths)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(1 << h for h in self._depths)

    def __len__(self) -> int:
        return len(self._cells)

    # -- addressing ----------------------------------------------------------

    def address(self, index: Sequence[int]) -> int:
        """Linear address of a cell; raises IndexError when out of range.

        This is the innermost call of every directory descent.  Valid
        addresses change only at a doubling, so the first lookup after a
        growth step builds a flat ``{index: address}`` map and every
        descent until the next doubling is a dict hit; the history scan
        below survives as the rebuild step and the error path.
        """
        cache = self._addr_cache
        if cache is None:
            cache = self._addr_cache = {
                self.index_of(a): a for a in range(len(self._cells))
            }
        found = cache.get(index if type(index) is tuple else tuple(index))
        if found is not None:
            return found
        # Not a valid index: re-derive the precise complaint.
        if len(index) != self._dims:
            raise IndexError(f"index {index!r} is not a {self._dims}-tuple")
        depths = self._depths
        axis_steps = self._axis_steps
        step = -1
        for j, i in enumerate(index):
            if not 0 <= i < (1 << depths[j]):
                raise IndexError(
                    f"coordinate {i} outside [0, {1 << depths[j]}) "
                    f"on axis {j}"
                )
            if i:
                creating = axis_steps[j][i.bit_length() - 1]
                if creating > step:
                    step = creating
        if step < 0:
            return 0
        axis, before = self._history[step]
        base = 1 << step  # total cells before the creating step
        s = before[axis]
        layer = base >> s  # product of the other axes' extents
        offset = (index[axis] - (1 << s)) * layer
        stride = 1
        for j in range(self._dims - 1, -1, -1):
            if j == axis:
                continue
            offset += index[j] * stride
            stride <<= before[j]
        return base + offset

    def index_of(self, address: int) -> tuple[int, ...]:
        """Inverse of :meth:`address`."""
        if not 0 <= address < len(self._cells):
            raise IndexError(f"address {address} outside [0, {len(self._cells)})")
        if address == 0:
            return (0,) * self._dims
        step = address.bit_length() - 1
        axis, before = self._history[step]
        base = 1 << step
        s = before[axis]
        layer = base >> s
        remainder = address - base
        index = [0] * self._dims
        index[axis] = (1 << s) + remainder // layer
        remainder %= layer
        for j in range(self._dims - 1, -1, -1):
            if j == axis:
                continue
            extent = 1 << before[j]
            index[j] = remainder % extent
            remainder //= extent
        return tuple(index)

    # -- access ---------------------------------------------------------------

    def __getitem__(self, index: Sequence[int]) -> Any:
        return self._cells[self.address(index)]

    def __setitem__(self, index: Sequence[int], value: Any) -> None:
        self._cells[self.address(index)] = value

    def get_at(self, address: int) -> Any:
        return self._cells[address]

    def set_at(self, address: int, value: Any) -> None:
        self._cells[address] = value

    def cells(self) -> Iterator[Any]:
        return iter(self._cells)

    def indices(self) -> Iterator[tuple[int, ...]]:
        """All valid index tuples, in address order."""
        return (self.index_of(a) for a in range(len(self._cells)))

    def with_cells(self, cells: list[Any]) -> ExtendibleArray:
        """A new array of this shape whose address ``a`` holds ``cells[a]``
        (one cell per address).

        Every shape container is new: :meth:`grow` extends them in place
        (the address cache too), so a shared one would leak a later
        doubling of either array into the other.  The history's tuples
        of ints are shared, as ``copy.deepcopy`` shares them; directory
        nodes build their copy-on-write copies on this.
        """
        twin = ExtendibleArray.__new__(ExtendibleArray)
        twin._dims = self._dims
        twin._depths = self._depths.copy()
        twin._cells = cells
        twin._history = self._history.copy()
        twin._axis_steps = [steps.copy() for steps in self._axis_steps]
        cache = self._addr_cache
        twin._addr_cache = None if cache is None else cache.copy()
        return twin

    # -- growth ----------------------------------------------------------------

    def grow(
        self, axis: int, clone: Callable[[Any], Any] | None = None
    ) -> range:
        """Double the array along ``axis``.

        Every new cell is initialized from its *buddy* — the cell whose
        coordinates are identical except that the top bit of the ``axis``
        coordinate is cleared.  This is exactly the extendible-hashing
        doubling rule: new directory cells start by sharing their buddy's
        entry.  ``clone`` post-processes the buddy value (deep-copying
        mutable entries); the default shares the reference.

        Returns the range of newly created linear addresses.
        """
        if not 0 <= axis < self._dims:
            raise ValueError(f"axis {axis} outside [0, {self._dims})")
        before = tuple(self._depths)
        step = len(self._history)
        self._history.append((axis, before))
        self._axis_steps[axis].append(step)
        self._depths[axis] += 1
        old_size = len(self._cells)
        top = 1 << before[axis]
        self._cells.extend([None] * old_size)
        # Appending never moves a cell, so an existing address cache
        # stays valid — extend it with the new block instead of
        # invalidating (the new index tuples fall out of the loop).
        cache = self._addr_cache
        for address in range(old_size, 2 * old_size):
            index = list(self.index_of(address))
            if cache is not None:
                cache[tuple(index)] = address
            index[axis] -= top
            buddy = self._cells[self.address(index)]
            self._cells[address] = buddy if clone is None else clone(buddy)
        return range(old_size, 2 * old_size)

    def grow_rehash(self, axis: int) -> None:
        """Double along ``axis`` under *prefix* (directory) semantics.

        The hashing directories interpret coordinate ``i_j`` as the first
        ``depths[j]`` bits of a key component (the paper's ``g``), so when
        an axis deepens every cell's meaning gains a low-order bit: the
        cell at new coordinate ``i`` inherits the content of old
        coordinate ``i >> 1`` on that axis.  Unlike :meth:`grow` this
        touches the whole array — which is precisely the classic
        extendible-hashing directory-doubling cost the paper's
        hierarchical design exists to avoid.
        """
        if not 0 <= axis < self._dims:
            raise ValueError(f"axis {axis} outside [0, {self._dims})")
        self._addr_cache = None
        old_values = list(self._cells)
        old_address = self.address  # addresses of old-shape tuples are stable
        before = tuple(self._depths)
        step = len(self._history)
        self._history.append((axis, before))
        self._axis_steps[axis].append(step)
        self._depths[axis] += 1
        self._cells.extend([None] * len(old_values))
        for address in range(len(self._cells)):
            index = list(self.index_of(address))
            index[axis] >>= 1
            self._cells[address] = old_values[old_address(index)]

    def shrink_rehash(self) -> int:
        """Undo the most recent :meth:`grow_rehash`.

        The halved axis loses its low-order addressing bit, collapsing
        coordinate pairs ``(2k, 2k+1)``; the caller must have ensured each
        pair holds the same content (every region's local depth below the
        global depth).  Returns the halved axis.
        """
        if not self._history:
            raise ValueError("cannot shrink a single-cell array")
        self._addr_cache = None
        axis = self._history[-1][0]
        old_values = list(self._cells)
        old_index_of = [self.index_of(a) for a in range(len(self._cells))]
        self._history.pop()
        self._axis_steps[axis].pop()
        self._depths[axis] -= 1
        del self._cells[len(self._cells) // 2 :]
        for old_address, index in enumerate(old_index_of):
            if index[axis] & 1:
                continue  # keep only the even coordinate of each pair
            new_index = list(index)
            new_index[axis] >>= 1
            self._cells[self.address(new_index)] = old_values[old_address]
        return axis

    def shrink(self) -> int:
        """Undo the most recent :meth:`grow` (LIFO, like the paper's
        deletion process which strictly reverses insertion).

        The upper half of the address space — the block the last doubling
        appended — is discarded; the caller must have ensured those cells
        are redundant copies of their buddies.  Returns the axis that was
        halved.
        """
        if not self._history:
            raise ValueError("cannot shrink a single-cell array")
        self._addr_cache = None
        axis, _before = self._history.pop()
        self._axis_steps[axis].pop()
        self._depths[axis] -= 1
        del self._cells[len(self._cells) // 2 :]
        return axis

    def last_grown_axis(self) -> int | None:
        """Axis of the most recent doubling (None for a fresh array)."""
        return self._history[-1][0] if self._history else None

    def history(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """The doubling history (axis, depths-before) per step."""
        return tuple(self._history)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ExtendibleArray(shape={self.shape})"

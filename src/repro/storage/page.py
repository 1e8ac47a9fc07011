"""Data pages: the level-0 record containers of every scheme."""

from __future__ import annotations

import copy
from typing import Any, Iterator

from repro.errors import DuplicateKeyError, KeyNotFoundError, StorageError

KeyCodes = tuple[int, ...]

#: Value types ``copy.deepcopy`` returns as they are (its atomic set).
_ATOMIC = frozenset({type(None), bool, int, float, str, bytes})


class DataPage:
    """A fixed-capacity bucket of ``(pseudo-key codes, value)`` records.

    The paper's parameter ``b`` is :attr:`capacity`.  Records are keyed by
    their full code vector; the *region* a page covers (prefix + depths)
    is directory state, not page state — this reproduction follows the
    paper's design choice of keeping local depths in the directory so an
    emptied page can be dropped without touching it (§2.1).
    """

    __slots__ = ("capacity", "records")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise StorageError("page capacity must be at least 1")
        self.capacity = capacity
        self.records: dict[KeyCodes, Any] = {}

    def __len__(self) -> int:
        return len(self.records)

    @property
    def is_full(self) -> bool:
        return len(self.records) >= self.capacity

    def __contains__(self, key: KeyCodes) -> bool:
        return key in self.records

    def get(self, key: KeyCodes) -> Any:
        try:
            return self.records[key]
        except KeyError:
            raise KeyNotFoundError(f"key {key} not in page") from None

    def put(self, key: KeyCodes, value: Any, *, replace: bool = False) -> None:
        """Store a record; full pages and duplicates are the caller's
        responsibility to split/reject, mirroring the paper's insert."""
        if key in self.records:
            if not replace:
                raise DuplicateKeyError(f"key {key} already present")
            self.records[key] = value
            return
        if self.is_full:
            raise StorageError("page overflow: split before storing")
        self.records[key] = value

    def remove(self, key: KeyCodes) -> Any:
        try:
            return self.records.pop(key)
        except KeyError:
            raise KeyNotFoundError(f"key {key} not in page") from None

    def items(self) -> Iterator[tuple[KeyCodes, Any]]:
        return iter(self.records.items())

    def keys(self) -> Iterator[KeyCodes]:
        return iter(self.records)

    def __deepcopy__(self, memo: dict[int, Any]) -> DataPage:
        """Exactly what generic ``copy.deepcopy`` builds, at the cost of
        one native dict copy: a new ``records`` dict whose key code
        tuples (tuples of ints, which deepcopy shares) and atomic values
        are shared, and whose other values are deep-copied through
        ``memo``.  MVCC copy-on-write preserves pages through this."""
        twin = DataPage.__new__(DataPage)
        memo[id(self)] = twin
        twin.capacity = self.capacity
        records = self.records.copy()
        for key, value in self.records.items():
            if type(value) not in _ATOMIC:
                records[key] = copy.deepcopy(value, memo)
        twin.records = records
        return twin

    def take_all(self) -> dict[KeyCodes, Any]:
        """Remove and return every record (the paper's copy-to-Q step)."""
        drained = self.records
        self.records = {}
        return drained

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DataPage({len(self.records)}/{self.capacity})"

"""Workload definitions, seeded datasets and the reply oracle.

Every dataset comes from :mod:`repro.workloads` (``uniform_keys`` /
``normal_keys`` + ``unique``) under the run's ``--seed``.  It is split
into *stable* keys, preloaded and never written during traffic, and
*churn* keys, which the traffic inserts and deletes.  A tenth of the
preload is churn keys that start live, so deletes always have a target;
the rest of the churn pool starts absent.

The :class:`Oracle` checks every reply:

* a search of a stable key must return its preloaded value;
* a delete must return the value its key was last acknowledged with;
* a range must return exactly the stable keys inside its box, with
  their preloaded values, and any churn key it returns must lie in the
  box and carry a value some insert of that key sent.  A range may see
  a write that committed before its acknowledgement arrived, so
  "sent" is the tightest claim a concurrent reader can check.
"""

from __future__ import annotations

import dataclasses
import math
import random
from collections import deque
from typing import Any, Sequence

import numpy as np

from repro.workloads import DOMAIN_MAX, normal_keys, uniform_keys, unique

#: Share of the preload that is stable (never written by the traffic).
STABLE_SHARE = 0.9
#: Values of churn keys start here, far above any stable value.
CHURN_VALUE_BASE = 1 << 40

Key = tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class Workload:
    """One traffic mix against one server shape."""

    name: str
    #: ``direct`` (one QueryServer process) or ``routed`` (a ShardRouter
    #: process in front of forked shard workers).
    mode: str
    #: ``uniform`` (the paper's Table 2) or ``normal`` (Table 3).
    distribution: str
    #: Keys preloaded before the timed phase.
    preload: int
    #: Point-op connections and the requests each keeps in flight.
    point_conns: int
    point_depth: int
    #: Shares of search / insert / delete among point ops.
    mix: tuple[float, float, float]
    #: A dedicated range connection's in-flight depth (0: no ranges).
    range_depth: int = 0
    #: Stable keys a range box is sized to hold, on average.
    range_keys: int = 0


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Workload] = {
    "hot_point": Workload(
        "hot_point", "direct", "uniform", 1000,
        point_conns=2, point_depth=16, mix=(0.8, 0.1, 0.1),
    ),
    "cold_point": Workload(
        "cold_point", "direct", "normal", 20000,
        point_conns=2, point_depth=16, mix=(0.8, 0.1, 0.1),
    ),
    "routed_scan": Workload(
        "routed_scan", "routed", "uniform", 2000,
        point_conns=1, point_depth=16, mix=(0.5, 0.25, 0.25),
        range_depth=4, range_keys=32,
    ),
}


class Dataset:
    """The seeded keys of one run: stable, initially-live churn, spare."""

    def __init__(self, workload: Workload, seed: int) -> None:
        spare = max(1024, workload.preload // 4)
        wanted = workload.preload + spare
        make = uniform_keys if workload.distribution == "uniform" else normal_keys
        keys = unique(make(wanted + wanted // 50 + 64, dims=2, seed=seed))
        if len(keys) < wanted:
            raise RuntimeError(
                f"seed {seed} produced only {len(keys)} distinct keys"
            )
        keys = keys[:wanted]
        n_stable = int(workload.preload * STABLE_SHARE)
        self.stable: list[Key] = keys[:n_stable]
        self.stable_values = {key: i for i, key in enumerate(self.stable)}
        self.churn_live = {
            key: CHURN_VALUE_BASE + j
            for j, key in enumerate(keys[n_stable:workload.preload])
        }
        self.spare: list[Key] = keys[workload.preload:]
        self.preload_pairs: list[tuple[Key, int]] = [
            *self.stable_values.items(), *self.churn_live.items()
        ]
        self.stable_array = np.array(self.stable, dtype=np.int64)

    def range_side(self, range_keys: int) -> int:
        """Side of a square box holding ``range_keys`` stable keys on
        average, for uniformly spread keys."""
        share = range_keys / max(len(self.stable), 1)
        return max(1, int(math.sqrt(share) * DOMAIN_MAX))


class Oracle:
    """What every reply must say, and the churn keys' live set."""

    def __init__(self, dataset: Dataset) -> None:
        self._stable = dataset.stable_values
        self._stable_array = dataset.stable_array
        self.live: dict[Key, int] = dict(dataset.churn_live)
        self._delete_queue: deque[Key] = deque(dataset.churn_live)
        self._insert_queue: deque[Key] = deque(dataset.spare)
        #: Every value each churn key was ever sent with.
        self._sent: dict[Key, set[int]] = {
            key: {value} for key, value in dataset.churn_live.items()
        }
        for key in dataset.spare:
            self._sent[key] = set()
        self._next_value = CHURN_VALUE_BASE + len(dataset.churn_live)
        #: Churn keys whose write failed: their state is not known.
        self.unknown: set[Key] = set()
        self.mismatches = 0
        self.examples: list[str] = []

    # -- churn bookkeeping -------------------------------------------------

    def take_insert(self) -> tuple[Key, int] | None:
        """An absent churn key and a fresh value, or None if none is
        free (every spare key is live or has a write in flight)."""
        if not self._insert_queue:
            return None
        key = self._insert_queue.popleft()
        value = self._next_value
        self._next_value += 1
        self._sent[key].add(value)
        return key, value

    def insert_done(self, key: Key, value: int, ok: bool) -> None:
        if ok:
            self.live[key] = value
            self._delete_queue.append(key)
        else:
            self.unknown.add(key)

    def take_delete(self) -> tuple[Key, int] | None:
        """The oldest live churn key and its acknowledged value."""
        if not self._delete_queue:
            return None
        key = self._delete_queue.popleft()
        return key, self.live.pop(key)

    def delete_done(self, key: Key, expected: int, reply: Any, ok: bool) -> None:
        if not ok:
            self.unknown.add(key)
            return
        if reply != expected:
            self._mismatch(f"delete {key} returned {reply!r}, acked {expected}")
        self._insert_queue.append(key)

    # -- reply checks ------------------------------------------------------

    def _mismatch(self, message: str) -> None:
        self.mismatches += 1
        if len(self.examples) < 5:
            self.examples.append(message)

    def check_search(self, key: Key, value: Any) -> None:
        if value != self._stable[key]:
            self._mismatch(
                f"search {key} returned {value!r}, preloaded "
                f"{self._stable[key]}"
            )

    def check_range(
        self, lows: Sequence[int], highs: Sequence[int], items: list
    ) -> None:
        arr = self._stable_array
        inside = np.ones(len(arr), dtype=bool)
        for dim, (low, high) in enumerate(zip(lows, highs)):
            inside &= (arr[:, dim] >= low) & (arr[:, dim] <= high)
        expected = {tuple(int(c) for c in row) for row in arr[inside]}
        seen: set[Key] = set()
        for key, value in items:
            key = tuple(key)
            if not all(lo <= c <= hi for c, lo, hi in zip(key, lows, highs)):
                self._mismatch(f"range returned {key} outside its box")
            elif key in self._stable:
                if value != self._stable[key]:
                    self._mismatch(f"range returned {key}={value!r}")
                seen.add(key)
            elif value not in self._sent.get(key, ()):
                self._mismatch(f"range returned unsent {key}={value!r}")
        if seen != expected:
            self._mismatch(
                f"range returned {len(seen)} stable keys, expected "
                f"{len(expected)}"
            )

    # -- end state ---------------------------------------------------------

    def live_count(self) -> tuple[int, int]:
        """Bounds on the live key count: exact unless a write failed."""
        low = len(self._stable) + len(self.live)
        return low, low + len(self.unknown)


class OpStream:
    """One connection's seeded op sequence.

    Two draws per op, whatever the op turns out to be, so the stream of
    op types and stable keys depends on the seed alone.
    """

    def __init__(self, dataset: Dataset, mix: tuple[float, float, float],
                 seed: int) -> None:
        self._rng = random.Random(seed)
        self._stable = dataset.stable
        self._search_cut = mix[0]
        self._insert_cut = mix[0] + mix[1]

    def next(self) -> tuple[str, Key]:
        """``(kind, stable_key)``: kind is search, insert or delete; the
        stable key serves a search (or the fallback of a write that has
        no free churn key)."""
        r = self._rng.random()
        key = self._stable[self._rng.randrange(len(self._stable))]
        if r < self._search_cut:
            return "search", key
        if r < self._insert_cut:
            return "insert", key
        return "delete", key


class BoxStream:
    """One connection's seeded range boxes, placed uniformly."""

    def __init__(self, side: int, dims: int, seed: int) -> None:
        self._rng = random.Random(seed)
        self._side = side
        self._dims = dims

    def next(self) -> tuple[list[int], list[int]]:
        lows = [
            self._rng.randrange(0, DOMAIN_MAX - self._side)
            for _ in range(self._dims)
        ]
        return lows, [low + self._side - 1 for low in lows]

"""FM gain container: bucket array with intrusive doubly-linked lists.

This is the classic Fiduccia-Mattheyses gain structure.  Each side of the
bisection owns one :class:`GainBuckets` instance holding the *free*
vertices of that side, keyed by an integer gain (for plain FM the actual
gain; for CLIP the cumulative delta gain).  It is the public reference
container and the one the frozen seed engine
(``tests/oracles/_seed_engine.py``) runs on; it is not the engine's
scratch.  :class:`~repro.core.engine.FMEngine` inlines these operations
on one record per vertex for both sides, the layout of the compiled
``fm_pass``, and is held to the seed engine move for move.

Section 2.2 of the paper identifies the *insertion order* into a gain
bucket as an implicit implementation decision with large quality effects
(Hagen/Huang/Kahng showed LIFO ≫ FIFO ≈ random).  All three orders are
supported:

* ``LIFO`` — push at the head (the strong choice; all modern FM codes).
* ``FIFO`` — append at the tail.
* ``RANDOM`` — constant-time randomized insertion (coin-flip between head
  and tail, the standard O(1) approximation of random placement).

All operations are O(1) except max-gain queries, which decay a cached
max pointer in the usual amortized fashion.
"""

from __future__ import annotations

import enum
import random
from typing import Callable, Iterator, List, Optional


class InsertionOrder(enum.Enum):
    """Where a (re)inserted vertex lands within its gain bucket."""

    LIFO = "lifo"
    FIFO = "fifo"
    RANDOM = "random"


class GainBuckets:
    """Bucket-list priority structure over vertices with integer keys.

    Parameters
    ----------
    num_vertices:
        Size of the vertex id space (ids index the intrusive arrays).
    max_abs_gain:
        Bound on ``abs(key)``; bucket array spans ``[-max_abs_gain,
        +max_abs_gain]``.
    order:
        Insertion order policy (see module docstring).
    rng:
        Random source for ``RANDOM`` order; required in that case.
    """

    __slots__ = (
        "_offset",
        "_heads",
        "_tails",
        "_prev",
        "_next",
        "_key",
        "_present",
        "_max_idx",
        "_order",
        "_rng",
        "_size",
    )

    def __init__(
        self,
        num_vertices: int,
        max_abs_gain: int,
        order: InsertionOrder = InsertionOrder.LIFO,
        rng: Optional[random.Random] = None,
    ) -> None:
        if max_abs_gain < 0:
            raise ValueError("max_abs_gain must be non-negative")
        if order is InsertionOrder.RANDOM and rng is None:
            raise ValueError("RANDOM insertion order requires an rng")
        self._offset = max_abs_gain
        span = 2 * max_abs_gain + 1
        self._heads: List[int] = [-1] * span
        self._tails: List[int] = [-1] * span
        self._prev: List[int] = [-1] * num_vertices
        self._next: List[int] = [-1] * num_vertices
        self._key: List[int] = [0] * num_vertices
        self._present: List[bool] = [False] * num_vertices
        self._max_idx = -1
        self._order = order
        self._rng = rng
        self._size = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __contains__(self, v: int) -> bool:
        return self._present[v]

    def key_of(self, v: int) -> int:
        """Current key of ``v`` (undefined when absent)."""
        return self._key[v]

    def _bucket_index(self, key: int) -> int:
        idx = key + self._offset
        if not 0 <= idx < len(self._heads):
            raise ValueError(
                f"key {key} outside [-{self._offset}, {self._offset}]"
            )
        return idx

    # ------------------------------------------------------------------
    def insert(self, v: int, key: int) -> None:
        """Insert vertex ``v`` with ``key`` per the insertion order."""
        if self._present[v]:
            raise ValueError(f"vertex {v} already present")
        idx = self._bucket_index(key)
        self._key[v] = key
        self._present[v] = True
        self._size += 1
        at_head = self._order is InsertionOrder.LIFO or (
            self._order is InsertionOrder.RANDOM
            and self._rng.random() < 0.5  # type: ignore[union-attr]
        )
        if self._heads[idx] == -1:
            self._heads[idx] = v
            self._tails[idx] = v
            self._prev[v] = -1
            self._next[v] = -1
        elif at_head:
            old = self._heads[idx]
            self._next[v] = old
            self._prev[v] = -1
            self._prev[old] = v
            self._heads[idx] = v
        else:
            old = self._tails[idx]
            self._prev[v] = old
            self._next[v] = -1
            self._next[old] = v
            self._tails[idx] = v
        if idx > self._max_idx:
            self._max_idx = idx

    def insert_at_head(self, v: int, key: int) -> None:
        """Insert at the bucket head regardless of the configured order.

        CLIP's pass initialization *defines* the zero-bucket ordering
        (highest initial gain at the head), so it bypasses the
        insertion-order policy, which only governs re-insertions.
        """
        saved = self._order
        self._order = InsertionOrder.LIFO
        try:
            self.insert(v, key)
        finally:
            self._order = saved

    def remove(self, v: int) -> None:
        """Remove vertex ``v`` (must be present)."""
        if not self._present[v]:
            raise ValueError(f"vertex {v} not present")
        idx = self._key[v] + self._offset
        p, n = self._prev[v], self._next[v]
        if p != -1:
            self._next[p] = n
        else:
            self._heads[idx] = n
        if n != -1:
            self._prev[n] = p
        else:
            self._tails[idx] = p
        self._present[v] = False
        self._prev[v] = -1
        self._next[v] = -1
        self._size -= 1

    def update(self, v: int, new_key: int) -> None:
        """Remove and reinsert ``v`` with ``new_key``.

        Note that reinsertion happens even when ``new_key`` equals the
        old key — this is precisely the "All delta-gain" update semantics
        whose effect Table 1 of the paper measures (the vertex's position
        within its bucket shifts).  Callers implementing the "Nonzero"
        policy simply avoid calling ``update`` for zero deltas.
        """
        self.remove(v)
        self.insert(v, new_key)

    # ------------------------------------------------------------------
    def max_key(self) -> Optional[int]:
        """Highest key present, or None when empty."""
        self._decay_max()
        if self._max_idx < 0:
            return None
        return self._max_idx - self._offset

    def head(self) -> Optional[int]:
        """Vertex at the head of the highest nonempty bucket."""
        self._decay_max()
        if self._max_idx < 0:
            return None
        return self._heads[self._max_idx]

    def _decay_max(self) -> None:
        while self._max_idx >= 0 and self._heads[self._max_idx] == -1:
            self._max_idx -= 1

    def iter_bucket(self, key: int) -> Iterator[int]:
        """Iterate the vertices of one bucket head-to-tail."""
        v = self._heads[self._bucket_index(key)]
        while v != -1:
            yield v
            v = self._next[v]

    def iter_descending(self) -> Iterator[int]:
        """All vertices in descending key order (head-to-tail per bucket)."""
        self._decay_max()
        for idx in range(self._max_idx, -1, -1):
            v = self._heads[idx]
            while v != -1:
                yield v
                v = self._next[v]

    # ------------------------------------------------------------------
    def select(
        self,
        is_legal: Callable[[int], bool],
        illegal_head: "IllegalHeadPolicy",
    ) -> Optional[int]:
        """Pick the best legal move per the illegal-head policy.

        ``SKIP_PARTITION`` — look only at the head of the highest bucket;
        if it is illegal give up on this side entirely (the aggressive
        variant mentioned in Section 2.3).

        ``SKIP_BUCKET`` — if the head of a bucket is illegal, skip to the
        head of the next lower bucket (the common fast strategy: "if the
        move is not legal, the entire bucket is skipped").

        ``SCAN_BUCKET`` — walk each bucket's full list looking for a
        legal move (the "too time-consuming" variant the paper measures
        and rejects).
        """
        self._decay_max()
        idx = self._max_idx
        while idx >= 0:
            head = self._heads[idx]
            if head != -1:
                if illegal_head is IllegalHeadPolicy.SCAN_BUCKET:
                    v = head
                    while v != -1:
                        if is_legal(v):
                            return v
                        v = self._next[v]
                else:
                    if is_legal(head):
                        return head
                    if illegal_head is IllegalHeadPolicy.SKIP_PARTITION:
                        return None
            idx -= 1
        return None


class IllegalHeadPolicy(enum.Enum):
    """What to do when the head of the highest gain bucket is illegal."""

    SKIP_BUCKET = "skip_bucket"
    SKIP_PARTITION = "skip_partition"
    SCAN_BUCKET = "scan_bucket"

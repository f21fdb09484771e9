"""Krishnamurthy lookahead gains (LA-FM).

Krishnamurthy's improvement of FM [cited as [30] in the paper's FM
lineage] replaces the scalar gain with a *gain vector*
``(g_1, ..., g_L)`` compared lexicographically: ``g_1`` is the ordinary
FM gain, and higher levels count nets that will become uncuttable /
newly cut after further moves, via *binding numbers*.  It is the
principled answer to exactly the tie-breaking ambiguity Section 2.2
shows to matter: instead of an arbitrary within-bucket policy, ties on
``g_1`` are broken by looking ahead.

Definitions (2-way, cell ``c`` on side ``A`` moving to ``B``):

* binding number ``B_A(e)`` = number of *free* cells of net ``e`` on
  side ``A``, or infinity if ``e`` has a locked cell on ``A``;
* ``g_k(c) = sum_e w_e * ( [B_A(e) = k] - [B_B(e) = k - 1] )``.

``k = 1`` recovers the classic gain.  The engine uses a lazy max-heap
over gain vectors with stamp-based invalidation, per-pass locking,
best-legal-prefix selection and rollback — the same skeleton as the
other engines, so results are directly comparable.
"""

from __future__ import annotations

import heapq
import random
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.balance import BalanceConstraint
from repro.core.config import BestChoice
from repro.core.engine import FMEngine
from repro.core.partition import ListPartition, Partition2
from repro.core.partitioner import PartitionResult
from repro.hypergraph.hypergraph import Hypergraph

_INF = 1 << 30  # stands in for "net has a locked cell on this side"


def gain_vector(
    partition: Union[Partition2, ListPartition],
    free_counts: Sequence[Sequence[int]],
    locked_counts: Sequence[Sequence[int]],
    v: int,
    depth: int,
) -> Tuple[float, ...]:
    """Krishnamurthy gain vector of vertex ``v`` at the given depth."""
    src = partition.assignment[v]
    dst = 1 - src
    hg = partition.hypergraph
    vector = [0.0] * depth
    for e in hg.nets_of(v):
        w = hg.net_weight(e)
        b_src = (
            _INF if locked_counts[src][e] > 0 else free_counts[src][e]
        )
        b_dst = (
            _INF if locked_counts[dst][e] > 0 else free_counts[dst][e]
        )
        for k in range(1, depth + 1):
            if b_src == k:
                vector[k - 1] += w
            if b_dst == k - 1:
                vector[k - 1] -= w
    return tuple(vector)


@dataclass
class LookaheadResult:
    """Outcome of a lookahead-FM refinement."""

    initial_cut: float
    final_cut: float
    passes: int
    total_moves: int

    @property
    def improvement(self) -> float:
        return self.initial_cut - self.final_cut


class LookaheadFM:
    """2-way FM with lexicographic lookahead gain vectors.

    Parameters
    ----------
    depth:
        Lookahead depth ``L``; ``depth = 1`` is plain FM priority (all
        ties broken arbitrarily), larger depths break more ties by
        structure.
    """

    def __init__(
        self,
        depth: int = 3,
        tolerance: float = 0.02,
        max_passes: int = 100,
        name: Optional[str] = None,
    ) -> None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.depth = depth
        self.tolerance = tolerance
        self.max_passes = max_passes
        self.name = (
            name if name is not None else f"Lookahead FM (depth {depth})"
        )

    # ------------------------------------------------------------------
    def partition(
        self,
        hypergraph: Hypergraph,
        seed: int = 0,
        fixed_parts: Optional[Sequence[Optional[int]]] = None,
    ) -> PartitionResult:
        """One start from a random balanced initial solution."""
        t0 = time.perf_counter()
        rng = random.Random(seed)
        balance = BalanceConstraint(
            hypergraph.total_vertex_weight, self.tolerance
        )
        part = Partition2.random_balanced(
            hypergraph, balance, rng, fixed_parts
        )
        self.refine(part, balance)
        return PartitionResult(
            assignment=part.assignment.tolist(),
            cut=part.cut,
            part_weights=list(part.part_weights),
            legal=balance.is_legal(part.part_weights),
            runtime_seconds=time.perf_counter() - t0,
        )

    def refine(
        self, part: Partition2, balance: Optional[BalanceConstraint] = None
    ) -> LookaheadResult:
        """Run lookahead-FM passes on ``part`` until no improvement."""
        if balance is None:
            balance = BalanceConstraint(
                part.hypergraph.total_vertex_weight, self.tolerance
            )
        initial = part.cut
        passes = 0
        moves = 0
        # The passes index the state per move: work on list copies.
        work = ListPartition(part)
        for _ in range(self.max_passes):
            kept = self._pass(work, balance)
            passes += 1
            moves += kept[1]
            if kept[0] <= 0:
                break
        work.store(part)
        return LookaheadResult(
            initial_cut=initial,
            final_cut=part.cut,
            passes=passes,
            total_moves=moves,
        )

    # ------------------------------------------------------------------
    def _pass(
        self, part: ListPartition, balance: BalanceConstraint
    ) -> Tuple[float, int]:
        hg = part.hypergraph
        n = hg.num_vertices
        depth = self.depth
        locked = [False] * n
        # Per-side free/locked pin counts per net.
        free_counts = [list(part.pins_in_part[0]), list(part.pins_in_part[1])]
        locked_counts = [[0] * hg.num_nets, [0] * hg.num_nets]
        # Fixed vertices count as locked from the start.
        for v in range(n):
            if part.fixed[v]:
                side = part.assignment[v]
                for e in hg.nets_of(v):
                    free_counts[side][e] -= 1
                    locked_counts[side][e] += 1

        heap: List = []
        stamp = [0] * n

        def push(v: int) -> None:
            stamp[v] += 1
            vec = gain_vector(part, free_counts, locked_counts, v, depth)
            heapq.heappush(heap, (tuple(-g for g in vec), v, stamp[v]))

        slack = balance.slack
        for v in range(n):
            if not part.fixed[v] and hg.vertex_weight(v) <= slack:
                push(v)

        cut_before = part.cut
        initial_legal = balance.is_legal(part.part_weights)
        initial_distance = balance.distance_from_bounds(part.part_weights)
        move_log: List[int] = []
        cut_log: List[float] = []
        dist_log: List[float] = []

        # Moves that were illegal when popped are parked here and
        # retried after the next accepted move changes the part weights
        # (discarding them outright starves passes at tight tolerances).
        deferred: List = []
        while heap:
            neg_vec, v, s = heapq.heappop(heap)
            if locked[v] or s != stamp[v]:
                continue
            src = part.assignment[v]
            dst = 1 - src
            if not balance.move_is_legal(
                part.part_weights[dst], hg.vertex_weight(v)
            ):
                deferred.append((neg_vec, v, s))
                continue
            current = gain_vector(
                part, free_counts, locked_counts, v, depth
            )
            if tuple(-g for g in current) != neg_vec:
                heapq.heappush(heap, (tuple(-g for g in current), v, s))
                continue

            locked[v] = True
            affected = set()
            for e in hg.nets_of(v):
                free_counts[src][e] -= 1
                locked_counts[dst][e] += 1
                for u in hg.pins_of(e):
                    if not locked[u] and not part.fixed[u]:
                        affected.add(u)
            part.move(v)
            move_log.append(v)
            cut_log.append(part.cut)
            dist_log.append(balance.distance_from_bounds(part.part_weights))
            for u in affected:
                if hg.vertex_weight(u) <= slack:
                    push(u)
            for entry in deferred:
                heapq.heappush(heap, entry)
            deferred.clear()

        best_k = FMEngine._best_prefix(
            BestChoice.FIRST, cut_before, initial_distance, initial_legal,
            cut_log, dist_log,
        )
        for v in reversed(move_log[best_k:]):
            part.move(v)
        return cut_before - part.cut, best_k

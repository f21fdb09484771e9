"""Direct k-way FM refinement (Sanchis-style generalization).

The paper cites Sanchis's multiple-way network partitioning [32] among
the FM lineage and names "the difficulty of multi-way partitioning" as
an open gap.  This module provides a direct k-way move-based engine to
compare against recursive bisection (:mod:`repro.core.kway`):

* :class:`PartitionK` — incremental k-way state: per-net part counts,
  span (number of parts covered), cut and connectivity objectives;
* :class:`KWayFM` — pass-based refinement over (vertex, destination)
  moves using a lazy max-heap keyed by gain, with per-pass locking,
  best-legal-prefix selection and rollback, exactly mirroring the 2-way
  engine's structure.

Balance follows the k-way generalization of the paper's convention
(see :class:`KWayBalance`): for ``k = 2`` it reduces to the 49/51
semantics of tolerance 0.02.

The gain container here is a heap with lazy invalidation rather than
K(K-1) bucket arrays — simpler, with identical move ordering semantics
(ties break arbitrarily, as they do among equal-gain buckets), at an
O(log n) per-operation cost that is irrelevant at Python speed.
"""

from __future__ import annotations

import heapq
import math
import random
import time
from typing import List, Optional, Sequence

# KWayBalance lives next to the documented balance convention in
# ``repro.core.kway`` (recursive bisection needs it for its legality
# stamp); re-exported here for backward compatibility.
from repro.core.config import BestChoice
from repro.core.engine import FMEngine
from repro.core.kway import KWayBalance, KWayResult
from repro.core.partition import ledger_weights
from repro.hypergraph.hypergraph import Hypergraph


class PartitionK:
    """Incremental k-way partition state (counts, spans, objectives).

    Mirrors :class:`~repro.core.partition.Partition2`'s exact integer
    ledger: with all-integral net weights, ``cut`` and ``connectivity``
    are maintained as exact ``int`` values and consistency checks
    compare with ``==``.  The hot paths (``move``/``gain``) run on the
    hypergraph's raw CSR arrays instead of the per-call list slices of
    ``nets_of``/``pins_of``.
    """

    def __init__(
        self,
        hypergraph: Hypergraph,
        assignment: Sequence[int],
        k: int,
        fixed: Optional[Sequence[bool]] = None,
    ) -> None:
        n = hypergraph.num_vertices
        if len(assignment) != n:
            raise ValueError("assignment length mismatch")
        if k < 2:
            raise ValueError("k must be >= 2")
        for v, p in enumerate(assignment):
            if not 0 <= p < k:
                raise ValueError(f"vertex {v} in part {p} outside [0,{k})")
        self.hypergraph = hypergraph
        self.k = k
        self.assignment = list(assignment)
        self.fixed = list(fixed) if fixed is not None else [False] * n

        (
            self._net_ptr,
            self._net_pins,
            self._vtx_ptr,
            self._vtx_nets,
        ) = hypergraph.raw_csr
        # Shared per-hypergraph views (read-only here).
        self.integral_nets: bool = hypergraph.integral_net_weights
        self._net_weights: List[float] = ledger_weights(hypergraph)
        self._vertex_weights = hypergraph.vertex_weight_list

        self.part_weights = [0.0] * k
        for v in range(n):
            self.part_weights[self.assignment[v]] += self._vertex_weights[v]

        m = hypergraph.num_nets
        self.counts: List[List[int]] = [[0] * k for _ in range(m)]
        self.span: List[int] = [0] * m
        self.cut = 0 if self.integral_nets else 0.0
        self.connectivity = 0 if self.integral_nets else 0.0
        net_ptr, net_pins = self._net_ptr, self._net_pins
        for e in range(m):
            row = self.counts[e]
            for i in range(net_ptr[e], net_ptr[e + 1]):
                row[self.assignment[net_pins[i]]] += 1
            s = sum(1 for c in row if c > 0)
            self.span[e] = s
            if s > 1:
                w = self._net_weights[e]
                self.cut += w
                self.connectivity += w * (s - 1)

    # ------------------------------------------------------------------
    def move(self, v: int, dest: int) -> None:
        """Move ``v`` to part ``dest``, updating all incremental state."""
        if self.fixed[v]:
            raise ValueError(f"vertex {v} is fixed")
        src = self.assignment[v]
        if src == dest:
            return
        w_v = self._vertex_weights[v]
        self.assignment[v] = dest
        self.part_weights[src] -= w_v
        self.part_weights[dest] += w_v
        vtx_ptr, vtx_nets = self._vtx_ptr, self._vtx_nets
        counts, span, net_w = self.counts, self.span, self._net_weights
        cut = self.cut
        connectivity = self.connectivity
        for i in range(vtx_ptr[v], vtx_ptr[v + 1]):
            e = vtx_nets[i]
            row = counts[e]
            old_span = span[e]
            row[src] -= 1
            row[dest] += 1
            new_span = old_span
            if row[src] == 0:
                new_span -= 1
            if row[dest] == 1:
                new_span += 1
            if new_span != old_span:
                w = net_w[e]
                span[e] = new_span
                connectivity += w * (new_span - old_span)
                if old_span == 1 and new_span > 1:
                    cut += w
                elif old_span > 1 and new_span == 1:
                    cut -= w
            # span unchanged: cut and connectivity unchanged.
        self.cut = cut
        self.connectivity = connectivity

    def gain(self, v: int, dest: int, objective: str = "cut") -> float:
        """Objective decrease if ``v`` moved to ``dest`` right now.

        Exact ``int`` in the integral-net-weight regime.
        """
        src = self.assignment[v]
        if src == dest:
            return 0 if self.integral_nets else 0.0
        g = 0 if self.integral_nets else 0.0
        vtx_ptr, vtx_nets = self._vtx_ptr, self._vtx_nets
        counts, span, net_w = self.counts, self.span, self._net_weights
        connectivity_obj = objective == "connectivity"
        for i in range(vtx_ptr[v], vtx_ptr[v + 1]):
            e = vtx_nets[i]
            row = counts[e]
            old_span = span[e]
            new_span = old_span
            if row[src] == 1:
                new_span -= 1
            if row[dest] == 0:
                new_span += 1
            if connectivity_obj:
                g -= net_w[e] * (new_span - old_span)
            else:
                if old_span == 1 and new_span > 1:
                    g -= net_w[e]
                elif old_span > 1 and new_span == 1:
                    g += net_w[e]
        return g

    def check_consistency(self) -> None:
        """Assert incremental state matches from-scratch recomputation.

        Exact comparison (``==``) for cut and connectivity in the
        integer-ledger regime.  The float fallback compares with a
        *relative* 1e-9 tolerance (plus a 1e-9 absolute floor near
        zero): incremental float accumulation legitimately drifts in
        the last few ulps, and at large magnitudes (net weights around
        1e6) that drift exceeds any fixed absolute cutoff while still
        being a rounding artifact, not a ledger bug.
        """
        fresh = PartitionK(self.hypergraph, self.assignment, self.k, self.fixed)
        if self.integral_nets:
            if fresh.cut != self.cut:
                raise AssertionError(
                    f"cut drift {self.cut} vs {fresh.cut} (integer ledger)"
                )
            if fresh.connectivity != self.connectivity:
                raise AssertionError("connectivity drift (integer ledger)")
        else:
            if not math.isclose(fresh.cut, self.cut,
                                rel_tol=1e-9, abs_tol=1e-9):
                raise AssertionError(f"cut drift {self.cut} vs {fresh.cut}")
            if not math.isclose(fresh.connectivity, self.connectivity,
                                rel_tol=1e-9, abs_tol=1e-9):
                raise AssertionError(
                    f"connectivity drift {self.connectivity} vs "
                    f"{fresh.connectivity}"
                )
        if fresh.span != self.span:
            raise AssertionError("span drift")
        for p in range(self.k):
            if not math.isclose(fresh.part_weights[p], self.part_weights[p],
                                rel_tol=1e-9, abs_tol=1e-6):
                raise AssertionError(f"weight drift in part {p}")


class KWayFM:
    """Direct k-way FM partitioner.

    Parameters
    ----------
    k:
        Number of parts.
    tolerance:
        Balance tolerance (see :class:`KWayBalance`).
    objective:
        ``"cut"`` (net cut) or ``"connectivity"`` ((lambda-1) sum, the
        hMetis k-way objective).
    max_passes:
        Refinement pass limit.
    """

    def __init__(
        self,
        k: int,
        tolerance: float = 0.1,
        objective: str = "cut",
        max_passes: int = 20,
        name: Optional[str] = None,
    ) -> None:
        if objective not in ("cut", "connectivity"):
            raise ValueError(f"unknown objective {objective!r}")
        self.k = k
        self.tolerance = tolerance
        self.objective = objective
        self.max_passes = max_passes
        self.name = name if name is not None else f"Direct k-way FM (k={k})"

    # ------------------------------------------------------------------
    def partition(self, hypergraph: Hypergraph, seed: int = 0) -> KWayResult:
        """Partition from a random balanced start; refine with k-way FM."""
        t0 = time.perf_counter()
        rng = random.Random(seed)
        balance = KWayBalance(hypergraph.total_vertex_weight, self.k,
                              self.tolerance)
        part = self._initial(hypergraph, balance, rng)
        for _ in range(self.max_passes):
            if self._pass(part, balance) <= 0:
                break
        return KWayResult(
            assignment=part.assignment,
            k=self.k,
            cut=part.cut,
            connectivity=part.connectivity,
            part_weights=list(part.part_weights),
            runtime_seconds=time.perf_counter() - t0,
            num_bisections=0,
            legal=balance.is_legal(part.part_weights),
        )

    def refine(self, part: PartitionK) -> float:
        """Refine an existing :class:`PartitionK` in place; returns the
        total objective improvement."""
        balance = KWayBalance(
            part.hypergraph.total_vertex_weight, part.k, self.tolerance
        )
        total = 0.0
        for _ in range(self.max_passes):
            gained = self._pass(part, balance)
            total += gained
            if gained <= 0:
                break
        return total

    # ------------------------------------------------------------------
    def _initial(
        self,
        hypergraph: Hypergraph,
        balance: KWayBalance,
        rng: random.Random,
    ) -> PartitionK:
        """Random greedy packing into k parts (lightest-part-first)."""
        order = list(range(hypergraph.num_vertices))
        rng.shuffle(order)
        order.sort(
            key=lambda v: hypergraph.vertex_weight(v)
            > balance.upper_bound - balance.lower_bound,
            reverse=True,
        )
        weights = [0.0] * self.k
        assignment = [0] * hypergraph.num_vertices
        hi = balance.upper_bound
        for v in order:
            w = hypergraph.vertex_weight(v)
            candidates = sorted(range(self.k), key=lambda p: weights[p])
            side = candidates[0]
            for p in candidates:
                if weights[p] + w <= hi:
                    side = p
                    break
            assignment[v] = side
            weights[side] += w
        return PartitionK(hypergraph, assignment, self.k)

    def _objective_value(self, part: PartitionK) -> float:
        return part.cut if self.objective == "cut" else part.connectivity

    def _pass(self, part: PartitionK, balance: KWayBalance) -> float:
        """One k-way FM pass; returns the objective improvement kept."""
        hg = part.hypergraph
        n = hg.num_vertices
        k = part.k
        obj = self.objective
        cut_obj = obj == "cut"
        lo, hi = balance.lower_bound, balance.upper_bound
        net_ptr, net_pins, vtx_ptr, vtx_nets = hg.raw_csr
        vwt = part._vertex_weights
        pw = part.part_weights
        assign = part.assignment
        fixed = part.fixed

        heap: List = []
        stamp = [0] * n
        locked = [False] * n

        def push(v: int) -> None:
            stamp[v] += 1
            src = assign[v]
            for dest in range(k):
                if dest == src:
                    continue
                g = part.gain(v, dest, obj)
                heapq.heappush(heap, (-g, v, dest, stamp[v]))

        for v in range(n):
            if not fixed[v]:
                push(v)

        before = part.cut if cut_obj else part.connectivity
        initial_legal = balance.is_legal(pw)
        initial_distance = balance.distance_from_bounds(pw)
        move_log: List = []  # (v, src)
        obj_log: List[float] = []
        dist_log: List[float] = []

        while heap:
            neg_g, v, dest, s = heapq.heappop(heap)
            if locked[v] or s != stamp[v] or assign[v] == dest:
                continue
            w_v = vwt[v]
            src = assign[v]
            if pw[dest] + w_v > hi:
                continue
            if pw[src] - w_v < lo:
                continue
            # Stale-gain guard: the heap entry may predate neighbour
            # moves; validate before committing.
            g = part.gain(v, dest, obj)
            if g != -neg_g:
                heapq.heappush(heap, (-g, v, dest, s))
                continue
            locked[v] = True
            affected = set()
            for i in range(vtx_ptr[v], vtx_ptr[v + 1]):
                e = vtx_nets[i]
                for j in range(net_ptr[e], net_ptr[e + 1]):
                    u = net_pins[j]
                    if not locked[u] and not fixed[u]:
                        affected.add(u)
            part.move(v, dest)
            move_log.append((v, src))
            obj_log.append(part.cut if cut_obj else part.connectivity)
            # Inline distance_from_bounds: min margin to the window edge.
            d = hi - pw[0]
            for p in range(k):
                m1 = pw[p] - lo
                if m1 < d:
                    d = m1
                m2 = hi - pw[p]
                if m2 < d:
                    d = m2
            dist_log.append(d)
            for u in affected:
                push(u)

        best_k = FMEngine._best_prefix(
            BestChoice.FIRST, before, initial_distance, initial_legal,
            obj_log, dist_log,
        )
        for v, src in reversed(move_log[best_k:]):
            part.move(v, src)
        return before - self._objective_value(part)

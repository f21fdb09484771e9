"""Incremental 2-way partition state.

``Partition2`` maintains, under single-vertex moves:

* the assignment vector,
* per-part total vertex weight,
* per-net pin counts on each side, and
* the weighted cut size.

All FM engines, the multilevel refiner and the rollback logic operate on
this object; its incremental bookkeeping is validated against from-scratch
recomputation in the test suite (including hypothesis property tests).

The state lives in numpy arrays beside the hypergraph's int32 CSR: the
assignment (int64), the fixed mask (bool) and the two per-net pin-count
arrays (int64), so the compiled FM kernel and the multilevel projection
work on them in place.  Interpreted loops index Python lists several
times faster than numpy arrays, so they work on a :class:`ListPartition`
instead: list copies taken once, moved under the same rules, and stored
back once.

**Exact integer cut ledger.**  When every net weight is integral (the
regime FM requires — and the only regime real netlists use), the net
weights are stored as ``int`` and :attr:`Partition2.cut` is maintained
as an exact ``int`` under arbitrary move/rollback sequences.  This is
not merely cosmetic: the FM engine's best-solution-of-pass tie-breaking
(FIRST/LAST/BALANCE, Section 2.2's fourth implicit decision) detects
ties by *exact equality* on logged cut values, so any drift in an
incrementally-accumulated float cut silently changes which tie-break
policy actually ran.  Non-integral net weights fall back to the float
ledger (with the historical 1e-9 consistency tolerance) for non-FM
consumers; :attr:`integral_nets` reports which regime is active.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

import numpy as np

from repro.core.balance import BalanceConstraint
from repro.hypergraph.hypergraph import Hypergraph


def int_net_weight_list(hg: Hypergraph) -> List[int]:
    """Net weights rounded to ``int`` (a shared list when fetched
    through ``hg.cached(int_net_weight_list)``)."""
    return hg.int_net_weights().tolist()


def ledger_weights(hypergraph: Hypergraph) -> list:
    """Net weights as the cut ledger holds them: exact ``int`` values
    when every weight is integral, the floats otherwise.  Shared per
    hypergraph; callers must not mutate the list."""
    if hypergraph.integral_net_weights:
        return hypergraph.cached(int_net_weight_list)
    return hypergraph.net_weight_list


def _checked_sides(assignment: Sequence[int]) -> np.ndarray:
    """``assignment`` as a fresh int64 array, after checking every entry
    is 0 or 1."""
    raw = np.asarray(assignment)
    try:
        ok = bool(((raw == 0) | (raw == 1)).all())
    except TypeError:
        ok = False
    if not ok:
        for v, p in enumerate(assignment):
            if p not in (0, 1):
                raise ValueError(
                    f"vertex {v} assigned to part {p}; must be 0/1"
                )
    return raw.astype(np.int64)


class _MoveRules:
    """The move and gain rules of a 2-way partition, shared by
    :class:`Partition2` (numpy arrays) and :class:`ListPartition`
    (lists): subclasses hold ``hypergraph``, ``assignment``, ``fixed``,
    ``pins_in_part``, ``part_weights``, ``cut``, ``integral_nets`` and
    ``_hot``."""

    __slots__ = ()

    def _bind(self) -> tuple:
        """``(vtx_ptr, vtx_nets, ledger weights, vertex weights)`` list
        views for the interpreted move/gain loops."""
        hg = self.hypergraph
        _, _, vtx_ptr, vtx_nets = hg.raw_csr
        self._hot = (
            vtx_ptr, vtx_nets, ledger_weights(hg), hg.vertex_weight_list
        )
        return self._hot

    # ------------------------------------------------------------------
    # Moves
    # ------------------------------------------------------------------
    def move(self, v: int) -> None:
        """Move vertex ``v`` to the opposite part, updating all state.

        Raises ``ValueError`` for fixed vertices.  Balance legality is
        *not* enforced here — the FM engines decide legality; rollback
        needs unrestricted moves.
        """
        if self.fixed[v]:
            raise ValueError(f"vertex {v} is fixed")
        vp, vn, net_w, vwt = self._hot or self._bind()
        src = self.assignment[v]
        dst = 1 - src
        w = vwt[v]
        self.assignment[v] = dst
        self.part_weights[src] -= w
        self.part_weights[dst] += w

        pins_src = self.pins_in_part[src]
        pins_dst = self.pins_in_part[dst]
        for i in range(vp[v], vp[v + 1]):
            e = vn[i]
            f = pins_src[e]
            t = pins_dst[e]
            pins_src[e] = f - 1
            pins_dst[e] = t + 1
            # Cut transitions: net was cut iff both sides occupied.
            if t == 0 and f >= 2:
                self.cut += net_w[e]
            elif f == 1 and t >= 1:
                self.cut -= net_w[e]

    # ------------------------------------------------------------------
    # Gain computation (from scratch; the engines maintain gains
    # incrementally but seed them from here at the start of each pass)
    # ------------------------------------------------------------------
    def gain(self, v: int) -> float:
        """FM gain of moving ``v``: cut decrease if moved right now.

        Exact ``int`` in the integral-net-weight regime.
        """
        src = self.assignment[v]
        dst = 1 - src
        pins_src = self.pins_in_part[src]
        pins_dst = self.pins_in_part[dst]
        g = 0 if self.integral_nets else 0.0
        vp, vn, net_w, _ = self._hot or self._bind()
        for i in range(vp[v], vp[v + 1]):
            e = vn[i]
            if pins_src[e] == 1:
                g += net_w[e]
            if pins_dst[e] == 0:
                g -= net_w[e]
        return g


class Partition2(_MoveRules):
    """A mutable 2-way partition of a hypergraph.

    Parameters
    ----------
    hypergraph:
        The instance being partitioned.
    assignment:
        Initial part (0 or 1) per vertex.
    fixed:
        Optional per-vertex flag; fixed vertices must never be moved
        (terminal propagation / pad constraints, cf. paper Section 2.1).

    Both are copied: ``assignment`` into an int64 array, ``fixed`` into
    a bool array.  ``pins_in_part`` holds the two int64 per-net pin-count
    arrays; ``cut`` and ``part_weights`` are Python numbers.
    """

    __slots__ = (
        "hypergraph",
        "assignment",
        "fixed",
        "part_weights",
        "pins_in_part",
        "cut",
        "integral_nets",
        "_hot",
    )

    def __init__(
        self,
        hypergraph: Hypergraph,
        assignment: Sequence[int],
        fixed: Optional[Sequence[bool]] = None,
    ) -> None:
        n = hypergraph.num_vertices
        if len(assignment) != n:
            raise ValueError("assignment length mismatch")
        sides = _checked_sides(assignment)
        self.hypergraph = hypergraph
        self.assignment: np.ndarray = sides
        if fixed is None:
            self.fixed: np.ndarray = np.zeros(n, dtype=bool)
        else:
            if len(fixed) != n:
                raise ValueError("fixed length mismatch")
            self.fixed = np.array(fixed, dtype=bool)
        #: True when every net weight is integral: the cut ledger is then
        #: an exact ``int`` (no float drift, exact tie detection).
        self.integral_nets: bool = hypergraph.integral_net_weights
        #: List views for move()/gain(), bound on first use so partitions
        #: refined by a compiled kernel never materialize them.
        self._hot = None

        # Pin counts are exact integers in every regime: one prefix sum
        # over the pin array gives each net's part-1 count.  The gather
        # reads a bool copy of the sides, so it is a byte per pin.
        net_ptr, net_pins, _, _ = hypergraph.csr
        ones = np.zeros(net_pins.shape[0] + 1, dtype=np.int64)
        np.cumsum(sides.astype(bool)[net_pins], out=ones[1:])
        pins1 = ones[net_ptr[1:]] - ones[net_ptr[:-1]]
        pins0 = np.diff(net_ptr) - pins1
        self.pins_in_part: List[np.ndarray] = [pins0, pins1]
        cut_nets = np.flatnonzero((pins0 > 0) & (pins1 > 0))
        if self.integral_nets:
            self.cut = int(hypergraph.int_net_weights()[cut_nets].sum())
        else:
            # Float ledger: accumulate in net order, as moves would.
            net_w = hypergraph.net_weight_list
            cut = 0.0
            for e in cut_nets.tolist():
                cut += net_w[e]
            self.cut = cut
        if (
            hypergraph.integral_vertex_weights
            and hypergraph.total_vertex_weight < 2.0**53
        ):
            # Integral areas below 2**53: any summation order is exact,
            # and int64 cannot wrap.  The int64 product runs in numpy's
            # own loop; a float64 dot over more than ~10k vertices would
            # run on OpenBLAS threads that keep spinning afterwards,
            # taking a CPU from the other campaign workers.
            w1 = float(hypergraph.int_vertex_weights() @ sides)
            self.part_weights: List[float] = [
                hypergraph.total_vertex_weight - w1, w1
            ]
        else:
            self.part_weights = [0.0, 0.0]
            vwt = hypergraph.vertex_weight_list
            for v, side in enumerate(sides.tolist()):
                self.part_weights[side] += vwt[v]

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def fast(
        cls,
        hypergraph: Hypergraph,
        assignment: Sequence[int],
        fixed: Optional[Sequence[bool]] = None,
    ) -> "Partition2":
        """Alias of the constructor, kept for callers of the former numpy
        fast path: construction is vectorized in every weight regime."""
        return cls(hypergraph, assignment, fixed)

    @staticmethod
    def random_balanced(
        hypergraph: Hypergraph,
        balance: BalanceConstraint,
        rng: random.Random,
        fixed_parts: Optional[Sequence[Optional[int]]] = None,
    ) -> "Partition2":
        """Random initial solution respecting ``balance`` when possible.

        Vertices are shuffled and greedily assigned to the side that
        keeps part weights legal (preferring the lighter side).  With
        large macros a perfectly legal start may not exist for tight
        tolerances; the closest-to-balanced greedy assignment is
        returned in that case (FM passes then operate from slight
        imbalance, exactly as real testbenches do).

        ``fixed_parts`` optionally pins vertex ``v`` to
        ``fixed_parts[v]`` (``None`` leaves it free).
        """
        n = hypergraph.num_vertices
        assignment: List[Optional[int]] = [None] * n
        fixed = [False] * n
        weights = [0.0, 0.0]
        free: List[int] = []
        for v in range(n):
            pin = fixed_parts[v] if fixed_parts is not None else None
            if pin is not None:
                assignment[v] = pin
                fixed[v] = True
                weights[pin] += hypergraph.vertex_weight(v)
            else:
                free.append(v)
        rng.shuffle(free)
        # Macros are placed first (heaviest first) so tight tolerances
        # stay feasible; ordinary cells keep their random order, which
        # preserves the independence of multistart initial solutions.
        macro_cut = max(balance.slack, 0.01 * balance.total_weight)
        macros = [v for v in free if hypergraph.vertex_weight(v) > macro_cut]
        macros.sort(key=hypergraph.vertex_weight, reverse=True)
        rest = [v for v in free if hypergraph.vertex_weight(v) <= macro_cut]
        hi = balance.upper_bound
        for v in macros + rest:
            w = hypergraph.vertex_weight(v)
            first, second = (0, 1) if weights[0] <= weights[1] else (1, 0)
            if weights[first] + w <= hi:
                side = first
            elif weights[second] + w <= hi:
                side = second
            else:
                side = first  # unavoidable overflow; keep it minimal
            assignment[v] = side
            weights[side] += w
        return Partition2(hypergraph, [p for p in assignment], fixed)  # type: ignore[misc]

    def copy(self) -> "Partition2":
        """Deep copy (cheap: arrays only)."""
        clone = Partition2.__new__(Partition2)
        clone.hypergraph = self.hypergraph
        clone.assignment = self.assignment.copy()
        clone.fixed = self.fixed.copy()
        clone.part_weights = list(self.part_weights)
        clone.pins_in_part = [
            self.pins_in_part[0].copy(),
            self.pins_in_part[1].copy(),
        ]
        clone.cut = self.cut
        clone.integral_nets = self.integral_nets
        clone._hot = self._hot
        return clone

    # ------------------------------------------------------------------
    # Verification helpers (used heavily by tests)
    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Assert incremental state matches a from-scratch recomputation.

        In the integer-ledger regime the cut comparison is **exact**
        (``==``); the 1e-9 tolerance applies only to the float fallback.
        """
        expected = Partition2(self.hypergraph, self.assignment, self.fixed)
        if self.integral_nets:
            if expected.cut != self.cut:
                raise AssertionError(
                    f"cut drift: incremental {self.cut}, "
                    f"actual {expected.cut} (integer ledger)"
                )
        elif abs(expected.cut - self.cut) > 1e-9:
            raise AssertionError(
                f"cut drift: incremental {self.cut}, actual {expected.cut}"
            )
        for side in (0, 1):
            if not np.array_equal(
                expected.pins_in_part[side], self.pins_in_part[side]
            ):
                raise AssertionError(f"pin counts drift on side {side}")
            if abs(expected.part_weights[side] - self.part_weights[side]) > 1e-6:
                raise AssertionError(f"part weight drift on side {side}")

    def __repr__(self) -> str:
        return (
            f"Partition2(cut={self.cut:g}, "
            f"weights=({self.part_weights[0]:g}, {self.part_weights[1]:g}))"
        )


class ListPartition(_MoveRules):
    """A working copy of a :class:`Partition2`'s state in Python lists.

    Interpreted loops (the FM engine's numpy backend, annealing,
    lookahead FM) index lists several times faster than numpy arrays.
    They copy a partition in once, move and score vertices here under
    the same rules, and :meth:`store` the result back once.
    """

    __slots__ = (
        "hypergraph",
        "assignment",
        "fixed",
        "part_weights",
        "pins_in_part",
        "cut",
        "integral_nets",
        "_hot",
    )

    def __init__(self, partition: Partition2) -> None:
        self.hypergraph = partition.hypergraph
        self.assignment: List[int] = partition.assignment.tolist()
        self.fixed: List[bool] = partition.fixed.tolist()
        self.pins_in_part = [p.tolist() for p in partition.pins_in_part]
        self.part_weights = list(partition.part_weights)
        self.cut = partition.cut
        self.integral_nets = partition.integral_nets
        self._hot = partition._hot

    def store(self, partition: Partition2) -> None:
        """Write this copy's state back into ``partition``."""
        partition.assignment[:] = self.assignment
        for target, pins in zip(partition.pins_in_part, self.pins_in_part):
            target[:] = pins
        partition.part_weights[:] = self.part_weights
        partition.cut = self.cut

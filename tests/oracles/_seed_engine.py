"""Frozen copy of the seed FM/CLIP pass engine (pre-kernel-rewrite).

This module preserves, verbatim, the reference implementation of
:class:`~repro.core.engine.FMEngine` as it existed before the
allocation-free kernel rewrite.  The rewritten kernel must reproduce
this engine's exact move sequence, kept prefix and final cut for every
:class:`~repro.core.config.FMConfig` combination (the paper's whole
point is that implicit implementation decisions change results, so a
"faster" kernel that silently changes one of them is wrong);
``tests/test_kernel_equivalence.py`` holds it to that.

The only deliberate addition relative to the seed is the
``record_moves`` flag (fills ``PassStats.move_log`` so move sequences
can be compared); :attr:`FMResult.perf` stays ``None`` here — the seed
had no instrumentation.  Do not "improve" this module — its value is
that it does not change.
"""

from __future__ import annotations

import random
import time
from typing import List, Optional, Tuple

from repro.core.balance import BalanceConstraint
from repro.core.config import BestChoice, FMConfig, TieBias, UpdatePolicy
from repro.core.engine import FMResult, PassStats
from repro.core.gain_bucket import GainBuckets
from repro.core.partition import Partition2


class SeedFMEngine:
    """The seed FM / CLIP refinement engine (reference implementation).

    Same constructor and ``refine`` contract as the production
    :class:`~repro.core.engine.FMEngine`; see that class for parameter
    documentation.
    """

    def __init__(
        self,
        balance: BalanceConstraint,
        config: Optional[FMConfig] = None,
        rng: Optional[random.Random] = None,
        record_moves: bool = False,
    ) -> None:
        self.balance = balance
        self.config = config if config is not None else FMConfig()
        self.rng = rng if rng is not None else random.Random(0)
        self.record_moves = record_moves
        # Per-hypergraph invariants (integer net weights, vertex
        # weights, gain bound) cached across passes and refine() calls.
        # Seed behavior: keyed by hypergraph object identity only.
        self._cached_invariants = None
        self._cached_invariants_for = None

    # ------------------------------------------------------------------
    def refine(self, partition: Partition2) -> FMResult:
        """Run FM passes on ``partition`` until no pass improves the cut
        by more than ``config.min_pass_improvement`` (or ``max_passes``).
        """
        cfg = self.config
        start = time.perf_counter()
        initial_cut = partition.cut
        stats: List[PassStats] = []
        total_moves = 0
        stuck = 0
        for _ in range(cfg.max_passes):
            ps = self._run_pass(partition)
            stats.append(ps)
            total_moves += ps.moves_kept
            if ps.stuck:
                stuck += 1
            if ps.cut_before - ps.cut_after <= cfg.min_pass_improvement:
                break
        return FMResult(
            initial_cut=initial_cut,
            final_cut=partition.cut,
            passes=len(stats),
            total_moves=total_moves,
            stuck_passes=stuck,
            runtime_seconds=time.perf_counter() - start,
            pass_stats=stats,
        )

    # ------------------------------------------------------------------
    def _integer_net_weights(self, partition: Partition2) -> List[int]:
        weights = []
        for e in partition.hypergraph.nets():
            w = partition.hypergraph.net_weight(e)
            iw = int(round(w))
            if abs(w - iw) > 1e-9:
                raise ValueError(
                    "FM gain buckets require integral net weights; "
                    f"net {e} has weight {w}"
                )
            weights.append(iw)
        return weights

    def _pass_invariants(self, partition: Partition2):
        """Per-hypergraph data reused across all passes of one refine."""
        hg = partition.hypergraph
        n = hg.num_vertices
        _, _, vtx_ptr, vtx_nets = hg.raw_csr
        net_w = self._integer_net_weights(partition)
        vwt = [hg.vertex_weight(v) for v in range(n)]
        # Gain bound: twice the max weighted degree covers both actual
        # gains (plain FM) and cumulative delta gains (CLIP).
        max_wdeg = 0
        for v in range(n):
            d = sum(net_w[vtx_nets[i]] for i in range(vtx_ptr[v], vtx_ptr[v + 1]))
            if d > max_wdeg:
                max_wdeg = d
        return net_w, vwt, 2 * max_wdeg + 1

    def _run_pass(self, partition: Partition2) -> PassStats:
        cfg = self.config
        bal = self.balance
        hg = partition.hypergraph
        n = hg.num_vertices
        net_ptr, net_pins, vtx_ptr, vtx_nets = hg.raw_csr
        if self._cached_invariants_for is not partition.hypergraph:
            self._cached_invariants = self._pass_invariants(partition)
            self._cached_invariants_for = partition.hypergraph
        net_w, vwt, max_abs = self._cached_invariants
        assign = partition.assignment
        pins = partition.pins_in_part

        buckets = (
            GainBuckets(n, max_abs, cfg.insertion_order, self.rng),
            GainBuckets(n, max_abs, cfg.insertion_order, self.rng),
        )

        guard = cfg.guard_oversized
        slack = bal.slack
        eligible: List[int] = []
        for v in range(n):
            if partition.fixed[v]:
                continue
            if guard and vwt[v] > slack:
                continue  # corking guard: this cell can never legally move
            eligible.append(v)

        gains = {v: int(partition.gain(v)) for v in eligible}
        if cfg.clip:
            # All moves enter the zero bucket; CLIP orders them so the
            # highest *initial* gain sits at the head.  Pushing in
            # ascending-gain order with head insertion achieves that.
            for v in sorted(eligible, key=lambda u: gains[u]):
                buckets[assign[v]].insert_at_head(v, 0)
        else:
            for v in eligible:
                buckets[assign[v]].insert(v, gains[v])

        movable = len(eligible)
        update_all = cfg.update_policy is UpdatePolicy.ALL
        cut_before = partition.cut
        initial_legal = bal.is_legal(partition.part_weights)
        initial_distance = bal.distance_from_bounds(partition.part_weights)

        move_log: List[int] = []
        cut_log: List[float] = []
        dist_log: List[float] = []
        last_src: Optional[int] = None

        def legal_from(side: int):
            dest_weight = partition.part_weights[1 - side]
            hi = bal.upper_bound

            def ok(v: int) -> bool:
                return dest_weight + vwt[v] <= hi

            return ok

        while True:
            chosen = self._select(buckets, legal_from, last_src)
            if chosen is None:
                break
            v = chosen
            src = assign[v]
            dst = 1 - src
            buckets[src].remove(v)
            last_src = src

            # Neighbour delta-gain updates use the *pre-move* pin counts.
            pins_src, pins_dst = pins[src], pins[dst]
            for i in range(vtx_ptr[v], vtx_ptr[v + 1]):
                e = vtx_nets[i]
                w = net_w[e]
                f = pins_src[e]  # includes v
                t = pins_dst[e]
                if not update_all and f > 2 and t > 1:
                    # No pin of this net can change gain (non-critical
                    # net) -- the classic fast skip, valid only under
                    # the Nonzero policy.
                    continue
                lo_, hi_ = net_ptr[e], net_ptr[e + 1]
                for j in range(lo_, hi_):
                    y = net_pins[j]
                    if y == v:
                        continue
                    side_y = assign[y]
                    bucket = buckets[side_y]
                    if y not in bucket:
                        continue  # locked, fixed, or guarded out
                    if side_y == src:
                        own_b, oth_b = f, t
                        own_a, oth_a = f - 1, t + 1
                    else:
                        own_b, oth_b = t, f
                        own_a, oth_a = t + 1, f - 1
                    delta = 0
                    if own_a == 1:
                        delta += w
                    if own_b == 1:
                        delta -= w
                    if oth_a == 0:
                        delta -= w
                    if oth_b == 0:
                        delta += w
                    if delta != 0 or update_all:
                        bucket.update(y, bucket.key_of(y) + delta)

            partition.move(v)
            move_log.append(v)
            cut_log.append(partition.cut)
            dist_log.append(bal.distance_from_bounds(partition.part_weights))

        # ----- choose the best prefix and roll back the rest ----------
        best_k = self._best_prefix(
            cfg.best_choice,
            cut_before,
            initial_distance,
            initial_legal,
            cut_log,
            dist_log,
        )
        for v in reversed(move_log[best_k:]):
            partition.move(v)

        stuck = movable > 0 and not move_log
        return PassStats(
            moves_considered=len(move_log),
            moves_kept=best_k,
            cut_before=cut_before,
            cut_after=partition.cut,
            stuck=stuck,
            move_log=list(move_log) if self.record_moves else None,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _best_prefix(
        best_choice: BestChoice,
        cut_before: float,
        initial_distance: float,
        initial_legal: bool,
        cut_log: List[float],
        dist_log: List[float],
    ) -> int:
        """Index ``k`` of the best move prefix (0 = keep no moves).

        Seed semantics, retained bug included: best-of-pass ties are
        detected by exact equality on the *float-accumulated* cut, so
        drift in :attr:`Partition2.cut` could split genuinely tied
        prefixes (fixed in the production engine by the integer ledger).
        """
        candidates: List[Tuple[float, int]] = []
        if initial_legal:
            candidates.append((cut_before, 0))
        for k, c in enumerate(cut_log, start=1):
            if dist_log[k - 1] >= 0:
                candidates.append((c, k))
        if not candidates:
            # No legal prefix: minimize the balance violation instead.
            best_k, best_d = 0, initial_distance
            for k, d in enumerate(dist_log, start=1):
                if d > best_d:
                    best_d = d
                    best_k = k
            return best_k
        best_cut = min(c for c, _ in candidates)
        tied = [k for c, k in candidates if c == best_cut]
        if best_choice is BestChoice.FIRST:
            return tied[0]
        if best_choice is BestChoice.LAST:
            return tied[-1]
        # BALANCE: among minimum-cut prefixes, keep the one furthest
        # from violating the balance constraint.
        best_k = tied[0]
        best_d = -float("inf")
        for k in tied:
            d = initial_distance if k == 0 else dist_log[k - 1]
            if d > best_d:
                best_d = d
                best_k = k
        return best_k

    # ------------------------------------------------------------------
    def _select(
        self,
        buckets: Tuple[GainBuckets, GainBuckets],
        legal_from,
        last_src: Optional[int],
    ) -> Optional[int]:
        cfg = self.config
        cands: List[Tuple[int, int, int]] = []  # (key, side, vertex)
        for side in (0, 1):
            v = buckets[side].select(legal_from(side), cfg.illegal_head)
            if v is not None:
                cands.append((buckets[side].key_of(v), side, v))
        if not cands:
            return None
        if len(cands) == 1:
            return cands[0][2]
        (k0, s0, v0), (k1, s1, v1) = cands
        if k0 > k1:
            return v0
        if k1 > k0:
            return v1
        # Equal-gain tie: apply the configured bias.
        bias = cfg.tie_bias
        if bias is TieBias.PART0:
            return v0 if s0 == 0 else v1
        if last_src is None:
            return v0  # first move of the pass: deterministic default
        if bias is TieBias.AWAY:
            prefer = 1 - last_src
        else:  # TOWARD
            prefer = last_src
        return v0 if s0 == prefer else v1

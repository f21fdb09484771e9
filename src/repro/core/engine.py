"""The Fiduccia-Mattheyses pass engine (flat LIFO FM and CLIP FM).

One :class:`FMEngine` refines a :class:`~repro.core.partition.Partition2`
in place by repeated FM passes.  Every implicit implementation decision
identified in Section 2.2 of the paper is controlled by
:class:`~repro.core.config.FMConfig`:

* zero-delta-gain update policy (``ALL`` vs ``NONZERO``),
* equal-gain tie-breaking between the two sides (``away``/``part0``/
  ``toward``),
* gain-bucket insertion order (LIFO/FIFO/random),
* best-solution-of-pass tie-breaking (first/last/balance),
* illegal-head handling (skip bucket / skip partition / scan bucket),
* the corking guard (skip cells wider than the balance slack).

The CLIP variant (Dutt-Deng) is selected with ``config.clip``: bucket
keys become *cumulative delta gains*, all vertices start each pass in the
zero bucket ordered by initial gain (highest at the head), and selection
proceeds on the cumulative keys.  Without the corking guard this engine
reproduces the corking pathology of Section 2.3 (a wide cell at the head
of the zero bucket blocks the pass); the engine counts such stuck passes
in :attr:`FMResult.stuck_passes`.

**Kernel architecture.**  The pass body is an allocation-free, flat-array
kernel in the style of modern FM codes (n-level KaHyPar, Mt-KaHyPar):
per-hypergraph invariants (integer net weights, vertex weights, gain
bound), the gain-bucket pair, and the per-pass logs (moves, cuts,
balance margins) live in a preallocated :class:`_PassScratch` reused
across passes and ``refine()`` calls.  Per move, the kernel performs no
Python-level allocation: selection compares bucket heads with inlined
locals, the neighbour delta-gain update and the partition ledger update
are fused into a single sweep over the moved vertex's nets (using
pre-move pin counts, exactly as the classic gain-update rule requires),
and the balance margin is computed with scalar comparisons instead of
generator expressions.  The move-for-move behavior of the seed engine
(``SeedFMEngine`` in ``tests/oracles/_seed_engine.py``) is preserved
exactly — the equivalence suite asserts identical move sequences, kept
prefixes and final cuts for every configuration combination.

Because :class:`~repro.core.partition.Partition2` maintains an exact
integer cut ledger for integral net weights, the logged cut values here
are exact integers, which makes the best-solution-of-pass tie detection
in :meth:`FMEngine._best_prefix` exact (the seed engine compared
float-accumulated cuts for equality — correct only because, and as long
as, all intermediate values stayed exactly representable).

Scratch is cached per ``(hypergraph identity, insertion order)``:
hypergraphs are immutable, so identity alone keys every per-hypergraph
invariant.  The interpreted loop runs on a
:class:`~repro.core.partition.ListPartition`, list copies of the
partition taken once per ``refine()`` and stored back at its end.  The
compiled-backend path needs neither: it hands the partition's own numpy
arrays to the kernel, which updates them in place, and reads the
hypergraph's read-only int32 CSR and its cached integer weights and gain
bound directly.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.balance import BalanceConstraint
from repro.core.config import BestChoice, FMConfig, TieBias, UpdatePolicy
from repro.core.gain_bucket import (
    GainBuckets,
    IllegalHeadPolicy,
    InsertionOrder,
)
from repro.core.partition import (
    ListPartition,
    Partition2,
    int_net_weight_list,
    ledger_weights,
)
from repro.core.perf import PerfCounters

#: Below this vertex count the Python seeding loop beats the numpy
#: round-trip (array conversions dominate); measured crossover ~150.
_VECTOR_SEED_MIN_VERTICES = 192


@dataclass
class PassStats:
    """Statistics of a single FM pass."""

    moves_considered: int
    moves_kept: int
    cut_before: float
    cut_after: float
    stuck: bool  #: pass made zero moves while movable vertices remained
    seconds: float = 0.0  #: wall-clock time of this pass
    #: Exact sequence of vertices moved during the pass (before
    #: rollback); populated only when the engine was constructed with
    #: ``record_moves=True``.  The kept prefix is ``move_log[:moves_kept]``.
    move_log: Optional[List[int]] = None


@dataclass
class FMResult:
    """Outcome of an FM refinement run."""

    initial_cut: float
    final_cut: float
    passes: int
    total_moves: int
    stuck_passes: int
    runtime_seconds: float
    pass_stats: List[PassStats] = field(default_factory=list)
    #: Kernel event counters and per-pass timings for this run.
    perf: Optional[PerfCounters] = None

    @property
    def improvement(self) -> float:
        """Total cut reduction achieved."""
        return self.initial_cut - self.final_cut


class _PassScratch:
    """Preallocated per-hypergraph state of the interpreted pass loop.

    The weight views it reads are the hypergraph's shared lists: integer
    net weights for gain arithmetic, the partition-ledger net weights
    (identical in the integral regime; the float originals otherwise)
    and vertex weights, plus the cached gain bound.  What it owns is the
    two gain-bucket structures and flat arrays backing the per-pass logs
    and the rollback snapshot (a vertex moves at most once per pass, so
    length ``n`` suffices).
    """

    __slots__ = (
        "net_w",
        "ledger_w",
        "vwt",
        "vw_integral",
        "max_abs",
        "buckets",
        "gain",
        "eligible",
        "move_log",
        "cut_log",
        "dist_log",
        "snap_assign",
        "snap_pins0",
        "snap_pins1",
        "snap_break_even",
    )

    def __init__(self, hg, order, rng) -> None:
        n = hg.num_vertices
        m = hg.num_nets
        # Raises unless every net weight is (near-)integral.
        self.net_w = hg.cached(int_net_weight_list)
        # Cut accounting must mirror Partition2.move exactly.
        self.ledger_w = ledger_weights(hg)
        self.vwt = hg.vertex_weight_list
        # Gain bound: twice the max weighted degree covers both actual
        # gains (plain FM) and cumulative delta gains (CLIP).
        self.max_abs = 2 * hg.max_weighted_degree + 1
        self.buckets = (
            GainBuckets(n, self.max_abs, order, rng),
            GainBuckets(n, self.max_abs, order, rng),
        )
        self.gain = [0] * n
        self.eligible = [0] * n
        self.move_log = [0] * n
        self.cut_log = [0.0] * n
        self.dist_log = [0.0] * n
        # Snapshot-restore rollback state (see FMEngine._run_pass).
        # Restore-then-replay reorders the floating-point part-weight
        # updates relative to reverse rollback, so the fast path is only
        # exact — hence only taken — when vertex weights are integral
        # (net weights already are, enforced above).
        self.vw_integral = hg.integral_vertex_weights
        self.snap_assign = [0] * n
        self.snap_pins0 = [0] * m
        self.snap_pins1 = [0] * m
        # Break-even point between restoring three length-n/m slices
        # plus replaying the kept prefix vs. replaying the rollback
        # suffix: slice copies run at memcpy speed while Partition2.move
        # is a Python call that walks the vertex's nets, so the copies
        # amortize over roughly (2n + 4m)/128 moves.
        self.snap_break_even = 1 + (2 * n + 4 * m) // 128


class FMEngine:
    """FM / CLIP refinement engine for 2-way partitions.

    Parameters
    ----------
    balance:
        The balance constraint moves must respect.
    config:
        Implicit-decision configuration.
    rng:
        Random source (used by RANDOM insertion order only; the engine is
        otherwise deterministic given the initial solution).
    record_moves:
        When True, each :class:`PassStats` carries the full move
        sequence of its pass (``move_log``).  Used by the equivalence
        suite; off by default because the per-pass list copy is pure
        overhead in production runs.

    The interpreted pass takes two exact fast paths, chosen from the
    input.  With integral vertex weights and an integral cut ledger it
    snapshots the partition state before moving and, when the rollback
    suffix is long, restores the snapshot and replays only the kept
    prefix instead of undoing move by move (FM rolls back ~97% of its
    applied moves).  With an integral ledger and at least
    ``_VECTOR_SEED_MIN_VERTICES`` vertices it seeds the pass's gains
    with numpy on the flat incidence arrays instead of the per-vertex
    loop.  Both reproduce the seed engine's results bit for bit.
    """

    #: Scratch entries kept per engine before the cache is reset.  A
    #: multilevel hierarchy is ~15 levels deep and a pooled multistart
    #: serves a few hierarchies from one engine, so 64 comfortably holds
    #: several hierarchies plus V-cycle intermediates without letting a
    #: pathological caller grow the cache without bound.
    _SCRATCH_CACHE_LIMIT = 64

    def __init__(
        self,
        balance: BalanceConstraint,
        config: Optional[FMConfig] = None,
        rng: Optional[random.Random] = None,
        record_moves: bool = False,
        backend: Optional[str] = None,
    ) -> None:
        self.balance = balance
        self.config = config if config is not None else FMConfig()
        self.rng = rng if rng is not None else random.Random(0)
        self.record_moves = record_moves
        # Kernel backend: the explicit argument wins over
        # ``config.backend``, which wins over the process default /
        # REPRO_BACKEND (resolved lazily on first refine so import
        # order cannot matter).  Resolution can only land on a backend
        # that passed the registry's bit-identity self-check, so every
        # choice here refines identically — the compiled path is also
        # gated per-partition on the integral regime it requires.
        self.backend = backend
        self._backend_name = "numpy"
        self._backend_note = ""
        self._kernels = None
        self._kernels_resolved = (False, -1)
        # Scratch cache for the interpreted loop, keyed on (hypergraph
        # identity, insertion order) — hypergraphs are immutable, so
        # identity is the whole key.  A dict (not a single slot) so one
        # engine serving a whole multilevel hierarchy — or a pooled
        # multistart run — keeps scratch for every level instead of
        # thrashing on each uncoarsening step.  Entries hold a strong
        # hypergraph reference, so an id() cannot be reused while its
        # entry lives.
        self._scratch_cache: dict = {}
        self._scratch: Optional[_PassScratch] = None
        self._scratch_for = None
        self._scratch_order = None

    # ------------------------------------------------------------------
    def refine(self, partition: Partition2) -> FMResult:
        """Run FM passes on ``partition`` until no pass improves the cut
        by more than ``config.min_pass_improvement`` (or ``max_passes``).
        """
        cfg = self.config
        start = time.perf_counter()
        ks = self._resolve_kernels()
        if (
            ks is not None
            and partition.hypergraph.integral_vertex_weights
            and partition.integral_nets
        ):
            result = self._refine_kernel(partition, ks, start)
            if result is not None:
                return result
            # Kernel declined (gain-bound guard or 32-bit working set):
            # the partition holds the state of the last completed pass,
            # so the interpreted loop below resumes exactly there.
        self._ensure_scratch(partition)
        perf = PerfCounters()
        perf.backend = "numpy"  # interpreted pass loop below
        work = ListPartition(partition)
        initial_cut = work.cut
        stats: List[PassStats] = []
        total_moves = 0
        stuck = 0
        for _ in range(cfg.max_passes):
            t0 = time.perf_counter()
            ps = self._run_pass(work, perf)
            ps.seconds = time.perf_counter() - t0
            perf.passes += 1
            perf.pass_seconds.append(ps.seconds)
            stats.append(ps)
            total_moves += ps.moves_kept
            if ps.stuck:
                stuck += 1
            if ps.cut_before - ps.cut_after <= cfg.min_pass_improvement:
                break
        work.store(partition)
        perf.total_seconds = time.perf_counter() - start
        return FMResult(
            initial_cut=initial_cut,
            final_cut=partition.cut,
            passes=len(stats),
            total_moves=total_moves,
            stuck_passes=stuck,
            runtime_seconds=time.perf_counter() - start,
            pass_stats=stats,
            perf=perf,
        )

    # ------------------------------------------------------------------
    def _ensure_scratch(self, partition: Partition2) -> None:
        """(Re)build the kernel scratch unless a cached one is valid."""
        hg = partition.hypergraph
        order = self.config.insertion_order
        if (
            self._scratch is not None
            and self._scratch_for is hg
            and self._scratch_order is order
        ):
            return
        key = (id(hg), order)
        entry = self._scratch_cache.get(key)
        if entry is not None and entry[0] is hg:
            sc = entry[1]
        else:
            sc = _PassScratch(hg, order, self.rng)
            if len(self._scratch_cache) >= self._SCRATCH_CACHE_LIMIT:
                self._scratch_cache.clear()
            self._scratch_cache[key] = (hg, sc)
        self._scratch = sc
        self._scratch_for = hg
        self._scratch_order = order

    def release(self, hypergraph) -> None:
        """Drop the scratch kept for ``hypergraph``, which the caller
        will not refine again (a multilevel start's own coarse levels),
        so the cache does not keep it alive."""
        self._scratch_cache.pop(
            (id(hypergraph), self.config.insertion_order), None)
        if self._scratch_for is hypergraph:
            self._scratch = self._scratch_for = None

    # ------------------------------------------------------------------
    def _resolve_kernels(self):
        """Resolve the backend request once per registry generation.

        Cached engines outlive execution contexts (the multilevel layer
        reuses its engine pair across every start), so the cache keys on
        :func:`repro.backends.resolution_generation` — a later
        ``set_default_backend`` (or registry reset) re-resolves instead
        of running on a stale choice.
        """
        from repro.backends import active_kernels, resolution_generation

        gen = resolution_generation()
        if self._kernels_resolved != (True, gen):
            requested = self.backend
            if requested is None:
                requested = self.config.backend
            (self._backend_name, self._kernels,
             self._backend_note) = active_kernels(requested)
            self._kernels_resolved = (True, gen)
        return self._kernels

    def _refine_kernel(
        self, partition: Partition2, ks, start: float
    ) -> Optional[FMResult]:
        """Run the refine loop through a backend's fused pass kernel.

        Bit-identical to the interpreted loop (the registry only hands
        out self-checked kernels, and this path is gated on the integral
        regime the kernels require).  The kernel updates the partition's
        own assignment and pin-count arrays in place; only the two part
        weights and the cut cross as scalars.  Returns ``None`` when the
        kernel declined a pass (gain-bound guard, or a size its 32-bit
        working set cannot index): that pass left the partition
        untouched, so the caller's interpreted loop resumes exactly
        there.
        """
        cfg = self.config
        bal = self.balance
        hg = partition.hypergraph
        k_net_ptr, k_net_pins, k_vtx_ptr, k_vtx_nets = hg.csr
        k_net_w = hg.int_net_weights()
        k_vwt = hg.int_vertex_weights()
        max_abs = 2 * hg.max_weighted_degree + 1
        n = hg.num_vertices

        assign = partition.assignment
        fixed = partition.fixed.astype(np.int64)
        pins0, pins1 = partition.pins_in_part
        pw_l = partition.part_weights
        pw = np.array([int(pw_l[0]), int(pw_l[1])], dtype=np.int64)
        cut_io = np.array([int(partition.cut)], dtype=np.int64)
        move_log = np.zeros(n, dtype=np.int64)
        out = np.zeros(8, dtype=np.int64)

        clip = 1 if cfg.clip else 0
        update_all = 1 if cfg.update_policy is UpdatePolicy.ALL else 0
        tie = (0 if cfg.tie_bias is TieBias.AWAY
               else 1 if cfg.tie_bias is TieBias.PART0 else 2)
        order_code = (0 if cfg.insertion_order is InsertionOrder.LIFO
                      else 1 if cfg.insertion_order is InsertionOrder.FIFO
                      else 2)
        best = (0 if cfg.best_choice is BestChoice.FIRST
                else 1 if cfg.best_choice is BestChoice.LAST else 2)
        illegal = (
            0 if cfg.illegal_head is IllegalHeadPolicy.SKIP_BUCKET
            else 1 if cfg.illegal_head is IllegalHeadPolicy.SKIP_PARTITION
            else 2
        )
        guard = 1 if cfg.guard_oversized else 0
        rnd = cfg.insertion_order is InsertionOrder.RANDOM
        if rnd:
            # Hand the kernel the live CPython MT19937 state; it
            # consumes exactly the draws the interpreted pass would.
            st = self.rng.getstate()
            mt = np.array(st[1][:624], dtype=np.int64)
            mti_io = np.array([st[1][624]], dtype=np.int64)
        else:
            st = None
            mt = np.zeros(624, dtype=np.int64)
            mti_io = np.zeros(1, dtype=np.int64)

        perf = PerfCounters()
        perf.backend = self._backend_name
        initial_cut = partition.cut
        stats: List[PassStats] = []
        total_moves = 0
        stuck_count = 0
        lo = bal.lower_bound
        hi = bal.upper_bound
        slack = bal.slack
        for _ in range(cfg.max_passes):
            t0 = time.perf_counter()
            pwf = (float(pw[0]), float(pw[1]))
            initial_legal = 1 if bal.is_legal(pwf) else 0
            initial_distance = bal.distance_from_bounds(pwf)
            if rnd:
                mt_bak = mt.copy()
                mti_bak = int(mti_io[0])
            cut_before = int(cut_io[0])
            ks.fm_pass(
                k_net_ptr, k_net_pins, k_vtx_ptr, k_vtx_nets,
                k_net_w, k_vwt,
                assign, fixed, pins0, pins1, pw, cut_io,
                lo, hi, slack, initial_legal, initial_distance,
                clip, update_all, tie, order_code, best, illegal,
                guard, max_abs,
                mt, mti_io, move_log, out,
            )
            if out[7] != 0:
                # Gain left the bounded window (the interpreted pass
                # raises there) or the kernel declined the sizes.  The
                # pass changed no partition state and consumed no
                # externally-visible randomness (we re-arm the pre-pass
                # MT state), so the interpreted loop replays this exact
                # pass.
                if rnd:
                    self.rng.setstate((
                        st[0],
                        tuple(int(x) for x in mt_bak) + (mti_bak,),
                        st[2],
                    ))
                self._store_scalars(partition, pw, cut_io)
                return None
            mcount = int(out[0])
            best_k = int(out[1])
            seconds = time.perf_counter() - t0
            perf.passes += 1
            perf.pass_seconds.append(seconds)
            perf.vertices_seeded += int(out[2])
            perf.selects += int(out[3])
            perf.gain_updates += int(out[4])
            perf.zero_delta_skips += int(out[5])
            perf.noncritical_net_skips += int(out[6])
            perf.moves_applied += mcount
            perf.moves_kept += best_k
            perf.moves_rolled_back += mcount - best_k
            cut_after = int(cut_io[0])
            stuck = int(out[2]) > 0 and mcount == 0
            stats.append(PassStats(
                moves_considered=mcount,
                moves_kept=best_k,
                cut_before=cut_before,
                cut_after=cut_after,
                stuck=stuck,
                seconds=seconds,
                move_log=(
                    move_log[:mcount].tolist() if self.record_moves else None
                ),
            ))
            total_moves += best_k
            if stuck:
                stuck_count += 1
            if cut_before - cut_after <= cfg.min_pass_improvement:
                break
        if rnd:
            self.rng.setstate((
                st[0],
                tuple(int(x) for x in mt) + (int(mti_io[0]),),
                st[2],
            ))
        self._store_scalars(partition, pw, cut_io)
        perf.total_seconds = time.perf_counter() - start
        return FMResult(
            initial_cut=initial_cut,
            final_cut=partition.cut,
            passes=len(stats),
            total_moves=total_moves,
            stuck_passes=stuck_count,
            runtime_seconds=time.perf_counter() - start,
            pass_stats=stats,
            perf=perf,
        )

    @staticmethod
    def _store_scalars(partition: Partition2, pw, cut_io) -> None:
        """Publish the kernel's part weights and cut, in the interpreted
        path's value types (float part weights carrying integral values,
        int cut ledger)."""
        pw_l = partition.part_weights
        pw_l[0] = float(pw[0])
        pw_l[1] = float(pw[1])
        partition.cut = int(cut_io[0])

    # ------------------------------------------------------------------
    def _run_pass(
        self, partition: ListPartition, perf: PerfCounters
    ) -> PassStats:
        cfg = self.config
        bal = self.balance
        hg = partition.hypergraph
        n = hg.num_vertices
        net_ptr, net_pins, vtx_ptr, vtx_nets = hg.raw_csr
        sc = self._scratch
        net_w = sc.net_w
        ledger_w = sc.ledger_w
        vwt = sc.vwt
        assign = partition.assignment
        fixed = partition.fixed
        pins0, pins1 = partition.pins_in_part
        pw = partition.part_weights

        # Snapshot the pre-pass partition state so the rollback can be a
        # restore-and-replay instead of an undo of (typically ~97% of)
        # the speculative moves.  Gated on integral vertex weights AND
        # an integral cut ledger: the replay re-derives part weights and
        # the cut in forward order, which for floats is not
        # bit-identical to undoing in reverse.
        snap = sc.vw_integral and partition.integral_nets
        if snap:
            sc.snap_assign[:] = assign
            sc.snap_pins0[:] = pins0
            sc.snap_pins1[:] = pins1
            snap_pw0 = pw[0]
            snap_pw1 = pw[1]

        # The kernel owns the bucket pair for the whole pass: all
        # insert/remove/select operations below run inline on the raw
        # intrusive arrays, and the max-bucket index of each side lives
        # in a local (``maxi0``/``maxi1``).  ``clear()`` restores the
        # object-level invariants at the start of every pass.
        b0, b1 = sc.buckets
        b0.clear()
        b1.clear()
        heads0, tails0, prev0, next0, key0, present0 = b0.raw_state()
        heads1, tails1, prev1, next1, key1, present1 = b1.raw_state()
        offset = sc.max_abs
        span = 2 * offset + 1
        maxi0 = -1
        maxi1 = -1

        order = cfg.insertion_order
        rnd_order = order is InsertionOrder.RANDOM
        head_order = order is InsertionOrder.LIFO
        rng_random = self.rng.random

        # ----- seed gains and populate the buckets --------------------
        guard = cfg.guard_oversized
        slack = bal.slack
        elig = sc.eligible
        gain_arr = sc.gain
        ecount = 0
        if n >= _VECTOR_SEED_MIN_VERTICES and partition.integral_nets:
            # Vectorized seeding: gains are integer sums over incident
            # nets, so numpy int arithmetic reproduces the loop below
            # bit for bit (the integral-ledger gate keeps the near-
            # integral float regime, where ledger and scratch weights
            # can differ, on the exact loop).  Per-net contributions for
            # a vertex on side 0 and side 1 are computed once, scattered
            # to pins, and summed per owning vertex by prefix sums.
            w_np = hg.int_net_weights()
            a_np = np.array(assign, dtype=np.int64)
            p0_np = np.array(pins0, dtype=np.int64)
            p1_np = np.array(pins1, dtype=np.int64)
            g0 = w_np * (p0_np == 1) - w_np * (p1_np == 0)
            g1 = w_np * (p1_np == 1) - w_np * (p0_np == 0)
            _, _, vp, vn = hg.csr
            pre = np.zeros(vn.shape[0] + 1, dtype=np.int64)
            np.cumsum(g0[vn], out=pre[1:])
            s0 = pre[vp[1:]] - pre[vp[:-1]]
            np.cumsum(g1[vn], out=pre[1:])
            s1 = pre[vp[1:]] - pre[vp[:-1]]
            g_list = np.where(a_np == 0, s0, s1).tolist()
            for v in range(n):
                if fixed[v]:
                    continue
                if guard and vwt[v] > slack:
                    continue  # corking guard: can never legally move
                gain_arr[v] = g_list[v]
                elig[ecount] = v
                ecount += 1
        else:
            for v in range(n):
                if fixed[v]:
                    continue
                if guard and vwt[v] > slack:
                    continue  # corking guard: can never legally move
                if assign[v] == 0:
                    ps_, pd_ = pins0, pins1
                else:
                    ps_, pd_ = pins1, pins0
                g = 0
                for i in range(vtx_ptr[v], vtx_ptr[v + 1]):
                    e = vtx_nets[i]
                    if ps_[e] == 1:
                        g += ledger_w[e]
                    if pd_[e] == 0:
                        g -= ledger_w[e]
                gain_arr[v] = int(g)
                elig[ecount] = v
                ecount += 1
        perf.vertices_seeded += ecount

        if cfg.clip:
            # All moves enter the zero bucket; CLIP orders them so the
            # highest *initial* gain sits at the head.  Pushing in
            # ascending-gain order with head insertion achieves that
            # (head insertion is CLIP's definition: it bypasses the
            # insertion-order policy and consumes no randomness).
            idx = offset  # key 0
            for v in sorted(elig[:ecount], key=gain_arr.__getitem__):
                if assign[v] == 0:
                    old = heads0[idx]
                    if old == -1:
                        heads0[idx] = v
                        tails0[idx] = v
                        prev0[v] = -1
                        next0[v] = -1
                    else:
                        next0[v] = old
                        prev0[v] = -1
                        prev0[old] = v
                        heads0[idx] = v
                    key0[v] = 0
                    present0[v] = True
                    maxi0 = idx
                else:
                    old = heads1[idx]
                    if old == -1:
                        heads1[idx] = v
                        tails1[idx] = v
                        prev1[v] = -1
                        next1[v] = -1
                    else:
                        next1[v] = old
                        prev1[v] = -1
                        prev1[old] = v
                        heads1[idx] = v
                    key1[v] = 0
                    present1[v] = True
                    maxi1 = idx
        else:
            for i in range(ecount):
                v = elig[i]
                k = gain_arr[v]
                idx = k + offset
                if idx < 0 or idx >= span:
                    raise ValueError(
                        f"key {k} outside [-{offset}, {offset}]"
                    )
                # The insertion-order coin flip is drawn before the
                # empty-bucket branch, exactly as GainBuckets.insert
                # does, so the RANDOM rng stream stays identical.
                if rnd_order:
                    at_head = rng_random() < 0.5
                else:
                    at_head = head_order
                if assign[v] == 0:
                    old = heads0[idx]
                    if old == -1:
                        heads0[idx] = v
                        tails0[idx] = v
                        prev0[v] = -1
                        next0[v] = -1
                    elif at_head:
                        next0[v] = old
                        prev0[v] = -1
                        prev0[old] = v
                        heads0[idx] = v
                    else:
                        tl = tails0[idx]
                        prev0[v] = tl
                        next0[v] = -1
                        next0[tl] = v
                        tails0[idx] = v
                    key0[v] = k
                    present0[v] = True
                    if idx > maxi0:
                        maxi0 = idx
                else:
                    old = heads1[idx]
                    if old == -1:
                        heads1[idx] = v
                        tails1[idx] = v
                        prev1[v] = -1
                        next1[v] = -1
                    elif at_head:
                        next1[v] = old
                        prev1[v] = -1
                        prev1[old] = v
                        heads1[idx] = v
                    else:
                        tl = tails1[idx]
                        prev1[v] = tl
                        next1[v] = -1
                        next1[tl] = v
                        tails1[idx] = v
                    key1[v] = k
                    present1[v] = True
                    if idx > maxi1:
                        maxi1 = idx

        movable = ecount
        update_all = cfg.update_policy is UpdatePolicy.ALL
        cut = partition.cut
        cut_before = cut
        initial_legal = bal.is_legal(pw)
        initial_distance = bal.distance_from_bounds(pw)
        lo = bal.lower_bound
        hi = bal.upper_bound

        move_log = sc.move_log
        cut_log = sc.cut_log
        dist_log = sc.dist_log
        mcount = 0
        last_src = -1  # no move yet

        illegal_head = cfg.illegal_head
        scan_bucket = illegal_head is IllegalHeadPolicy.SCAN_BUCKET
        skip_part = illegal_head is IllegalHeadPolicy.SKIP_PARTITION
        bias = cfg.tie_bias
        bias_part0 = bias is TieBias.PART0
        bias_away = bias is TieBias.AWAY

        n_selects = 0
        n_updates = 0
        n_zero_skips = 0
        n_net_skips = 0

        while True:
            # ----- select the best legal move (inlined, per side) -----
            # Mirrors GainBuckets.select: decay the max index past empty
            # buckets, then apply the illegal-head policy top-down.  A
            # move from side s is legal iff the destination stays under
            # the upper bound (the source lower bound is implied, see
            # BalanceConstraint.move_is_legal).
            n_selects += 1
            while maxi0 >= 0 and heads0[maxi0] == -1:
                maxi0 -= 1
            v0 = -1
            k0 = 0
            dw = pw[1]
            idx = maxi0
            if scan_bucket:
                while idx >= 0:
                    u = heads0[idx]
                    while u != -1:
                        if dw + vwt[u] <= hi:
                            v0 = u
                            k0 = idx - offset
                            break
                        u = next0[u]
                    if v0 >= 0:
                        break
                    idx -= 1
            else:
                while idx >= 0:
                    u = heads0[idx]
                    if u != -1:
                        if dw + vwt[u] <= hi:
                            v0 = u
                            k0 = idx - offset
                            break
                        if skip_part:
                            break
                    idx -= 1

            while maxi1 >= 0 and heads1[maxi1] == -1:
                maxi1 -= 1
            v1 = -1
            k1 = 0
            dw = pw[0]
            idx = maxi1
            if scan_bucket:
                while idx >= 0:
                    u = heads1[idx]
                    while u != -1:
                        if dw + vwt[u] <= hi:
                            v1 = u
                            k1 = idx - offset
                            break
                        u = next1[u]
                    if v1 >= 0:
                        break
                    idx -= 1
            else:
                while idx >= 0:
                    u = heads1[idx]
                    if u != -1:
                        if dw + vwt[u] <= hi:
                            v1 = u
                            k1 = idx - offset
                            break
                        if skip_part:
                            break
                    idx -= 1

            if v0 < 0:
                if v1 < 0:
                    break
                v = v1
            elif v1 < 0:
                v = v0
            else:
                if k0 > k1:
                    v = v0
                elif k1 > k0:
                    v = v1
                # Equal-gain tie: apply the configured bias.
                elif bias_part0:
                    v = v0
                elif last_src < 0:
                    v = v0  # first move of the pass: deterministic default
                elif bias_away:
                    v = v0 if last_src == 1 else v1
                else:  # TOWARD
                    v = v0 if last_src == 0 else v1

            src = assign[v]
            if src == 0:
                hs_s, ts_s, pv_s, nx_s = heads0, tails0, prev0, next0
                key_s, pres_s = key0, present0
                hs_d, ts_d, pv_d, nx_d = heads1, tails1, prev1, next1
                key_d, pres_d = key1, present1
                maxi_s, maxi_d = maxi0, maxi1
                pins_src, pins_dst = pins0, pins1
                dst = 1
            else:
                hs_s, ts_s, pv_s, nx_s = heads1, tails1, prev1, next1
                key_s, pres_s = key1, present1
                hs_d, ts_d, pv_d, nx_d = heads0, tails0, prev0, next0
                key_d, pres_d = key0, present0
                maxi_s, maxi_d = maxi1, maxi0
                pins_src, pins_dst = pins1, pins0
                dst = 0

            # Unlink the chosen vertex from its bucket (inline remove).
            idx = key_s[v] + offset
            p = pv_s[v]
            nn = nx_s[v]
            if p != -1:
                nx_s[p] = nn
            else:
                hs_s[idx] = nn
            if nn != -1:
                pv_s[nn] = p
            else:
                ts_s[idx] = p
            pres_s[v] = False
            last_src = src

            # ----- fused neighbour update + ledger update -------------
            # Delta gains use the *pre-move* pin counts of each net;
            # fusing is safe because each net appears once in the moved
            # vertex's incidence list and only its own counts matter.
            for i in range(vtx_ptr[v], vtx_ptr[v + 1]):
                e = vtx_nets[i]
                f = pins_src[e]  # includes v
                t = pins_dst[e]
                if not update_all and f > 2 and t > 1:
                    # Non-critical net: no pin can change gain (valid
                    # only under the Nonzero policy) and the net stays
                    # cut, so only the pin counts move.
                    n_net_skips += 1
                    pins_src[e] = f - 1
                    pins_dst[e] = t + 1
                    continue
                w = net_w[e]
                for j in range(net_ptr[e], net_ptr[e + 1]):
                    y = net_pins[j]
                    if y == v:
                        continue
                    if assign[y] == src:
                        if not pres_s[y]:
                            continue  # locked, fixed, or guarded out
                        # own: f -> f-1, other: t -> t+1
                        if f == 2:
                            delta = w
                        elif f == 1:
                            delta = -w
                        else:
                            delta = 0
                        if t == 0:
                            delta += w
                        if delta != 0 or update_all:
                            # Inline GainBuckets.update: unlink, relink
                            # at the new key per the insertion order.
                            # Under the All policy this runs even for
                            # zero deltas — the in-bucket position shift
                            # is the measured effect (Table 1).
                            n_updates += 1
                            ky = key_s[y]
                            nk = ky + delta
                            nidx = nk + offset
                            if nidx < 0 or nidx >= span:
                                raise ValueError(
                                    f"key {nk} outside "
                                    f"[-{offset}, {offset}]"
                                )
                            oidx = ky + offset
                            p = pv_s[y]
                            nn = nx_s[y]
                            if p != -1:
                                nx_s[p] = nn
                            else:
                                hs_s[oidx] = nn
                            if nn != -1:
                                pv_s[nn] = p
                            else:
                                ts_s[oidx] = p
                            if rnd_order:
                                at_head = rng_random() < 0.5
                            else:
                                at_head = head_order
                            old = hs_s[nidx]
                            if old == -1:
                                hs_s[nidx] = y
                                ts_s[nidx] = y
                                pv_s[y] = -1
                                nx_s[y] = -1
                            elif at_head:
                                nx_s[y] = old
                                pv_s[y] = -1
                                pv_s[old] = y
                                hs_s[nidx] = y
                            else:
                                tl = ts_s[nidx]
                                pv_s[y] = tl
                                nx_s[y] = -1
                                nx_s[tl] = y
                                ts_s[nidx] = y
                            key_s[y] = nk
                            if nidx > maxi_s:
                                maxi_s = nidx
                        else:
                            n_zero_skips += 1
                    else:
                        if not pres_d[y]:
                            continue
                        # own: t -> t+1, other: f -> f-1
                        if t == 0:
                            delta = w
                        elif t == 1:
                            delta = -w
                        else:
                            delta = 0
                        if f == 1:
                            delta -= w
                        if delta != 0 or update_all:
                            n_updates += 1
                            ky = key_d[y]
                            nk = ky + delta
                            nidx = nk + offset
                            if nidx < 0 or nidx >= span:
                                raise ValueError(
                                    f"key {nk} outside "
                                    f"[-{offset}, {offset}]"
                                )
                            oidx = ky + offset
                            p = pv_d[y]
                            nn = nx_d[y]
                            if p != -1:
                                nx_d[p] = nn
                            else:
                                hs_d[oidx] = nn
                            if nn != -1:
                                pv_d[nn] = p
                            else:
                                ts_d[oidx] = p
                            if rnd_order:
                                at_head = rng_random() < 0.5
                            else:
                                at_head = head_order
                            old = hs_d[nidx]
                            if old == -1:
                                hs_d[nidx] = y
                                ts_d[nidx] = y
                                pv_d[y] = -1
                                nx_d[y] = -1
                            elif at_head:
                                nx_d[y] = old
                                pv_d[y] = -1
                                pv_d[old] = y
                                hs_d[nidx] = y
                            else:
                                tl = ts_d[nidx]
                                pv_d[y] = tl
                                nx_d[y] = -1
                                nx_d[tl] = y
                                ts_d[nidx] = y
                            key_d[y] = nk
                            if nidx > maxi_d:
                                maxi_d = nidx
                        else:
                            n_zero_skips += 1
                # Apply the move to this net's pin counts and the exact
                # cut ledger (transitions mirror Partition2.move).
                pins_src[e] = f - 1
                pins_dst[e] = t + 1
                if t == 0:
                    if f >= 2:
                        cut += ledger_w[e]
                elif f == 1:
                    cut -= ledger_w[e]

            # Publish the per-side max indices back to the right locals.
            if src == 0:
                maxi0, maxi1 = maxi_s, maxi_d
            else:
                maxi1, maxi0 = maxi_s, maxi_d

            wv = vwt[v]
            assign[v] = dst
            pw[src] -= wv
            pw[dst] += wv
            move_log[mcount] = v
            cut_log[mcount] = cut
            # Inline distance_from_bounds: min margin to the window edge.
            pw0 = pw[0]
            pw1 = pw[1]
            d = pw0 - lo
            d2 = hi - pw0
            if d2 < d:
                d = d2
            d2 = pw1 - lo
            if d2 < d:
                d = d2
            d2 = hi - pw1
            if d2 < d:
                d = d2
            dist_log[mcount] = d
            mcount += 1

        # The fused loop maintained the ledger locally; publish it
        # before rollback so Partition2.move sees consistent state.
        partition.cut = cut

        # ----- choose the best prefix and roll back the rest ----------
        best_k = self._best_prefix(
            cfg.best_choice,
            cut_before,
            initial_distance,
            initial_legal,
            cut_log,
            dist_log,
            mcount,
        )
        if snap and mcount - best_k > best_k + sc.snap_break_even:
            # Restore the pre-pass state wholesale and replay only the
            # kept prefix.  Everything restored or replayed is integer
            # (assignment, pin counts, integral weights, exact cut
            # ledger), so the result is bit-identical to the reverse
            # rollback below — only cheaper when the suffix dominates.
            assign[:] = sc.snap_assign
            pins0[:] = sc.snap_pins0
            pins1[:] = sc.snap_pins1
            pw[0] = snap_pw0
            pw[1] = snap_pw1
            partition.cut = cut_before
            for i in range(best_k):
                partition.move(move_log[i])
        else:
            for i in range(mcount - 1, best_k - 1, -1):
                partition.move(move_log[i])

        perf.selects += n_selects
        perf.gain_updates += n_updates
        perf.zero_delta_skips += n_zero_skips
        perf.noncritical_net_skips += n_net_skips
        perf.moves_applied += mcount
        perf.moves_kept += best_k
        perf.moves_rolled_back += mcount - best_k

        stuck = movable > 0 and mcount == 0
        return PassStats(
            moves_considered=mcount,
            moves_kept=best_k,
            cut_before=cut_before,
            cut_after=partition.cut,
            stuck=stuck,
            move_log=move_log[:mcount] if self.record_moves else None,
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
        count: Optional[int] = None,
    ) -> int:
        """Index ``k`` of the best move prefix (0 = keep no moves).

        Only *legal* prefixes compete on cut (a prefix is legal when its
        logged balance margin is non-negative; prefix 0 when the initial
        solution was legal).  If no prefix is legal — possible only when
        the pass started from an illegal solution — the prefix closest
        to legality wins, so repeated passes converge into the balance
        window.  Ties on the minimum cut are broken per ``best_choice``
        (Section 2.2's fourth implicit decision).

        Tie detection compares logged cut values with ``==``; with the
        integer cut ledger these are exact integers, so mathematically
        tied prefixes always compare equal (float accumulation could —
        and in the non-integral fallback regime still can — split a
        genuine tie and silently change which tie-break policy ran).

        ``cut_log``/``dist_log`` may be preallocated scratch longer than
        the pass; ``count`` bounds the valid entries (default: all).
        """
        if count is None:
            count = len(cut_log)
        have = initial_legal
        best_cut = cut_before
        for k in range(count):
            if dist_log[k] >= 0:
                c = cut_log[k]
                if not have or c < best_cut:
                    best_cut = c
                    have = True
        if not have:
            # No legal prefix: minimize the balance violation instead.
            best_k, best_d = 0, initial_distance
            for k in range(count):
                if dist_log[k] > best_d:
                    best_d = dist_log[k]
                    best_k = k + 1
            return best_k
        if best_choice is BestChoice.FIRST:
            if initial_legal and cut_before == best_cut:
                return 0
            for k in range(count):
                if dist_log[k] >= 0 and cut_log[k] == best_cut:
                    return k + 1
            raise AssertionError("legal prefix vanished")  # pragma: no cover
        if best_choice is BestChoice.LAST:
            for k in range(count - 1, -1, -1):
                if dist_log[k] >= 0 and cut_log[k] == best_cut:
                    return k + 1
            return 0  # only the initial solution attains the best cut
        # BALANCE: among minimum-cut prefixes, keep the one furthest
        # from violating the balance constraint (earliest wins ties).
        best_k = -1
        best_d = -float("inf")
        if initial_legal and cut_before == best_cut:
            best_k = 0
            best_d = initial_distance
        for k in range(count):
            if dist_log[k] >= 0 and cut_log[k] == best_cut:
                if dist_log[k] > best_d:
                    best_d = dist_log[k]
                    best_k = k + 1
        return best_k

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

**Kernel architecture.**  The interpreted pass and the compiled
``fm_pass`` (``repro/backends/_kernels.c``) share one flat-array layout
in the style of modern FM codes (n-level KaHyPar, Mt-KaHyPar): one
record per vertex — bucket links, bucket index (the gain plus the gain
bound) and a free flag — serves both sides, because a vertex sits only
in its own side's buckets, and side ``s`` owns slots
``[s*span, (s+1)*span)`` of the bucket heads and tails.  So seeding,
selection and the neighbour relink each exist once.  The layout, the
per-hypergraph invariants (integer net weights, vertex weights, gain
bound) and the per-pass logs (moves, cuts, balance margins) live in a
preallocated :class:`_PassScratch` reused across passes and
``refine()`` calls.  Per move, the pass performs no Python-level
allocation: each net of the moved vertex yields one source-side and one
destination-side delta gain from its pre-move pin counts, exactly as
the classic gain-update rule requires, and the gain and cut-ledger
updates are fused into a single sweep over those nets.  The
move-for-move behavior of the seed engine (``SeedFMEngine`` in
``tests/oracles/_seed_engine.py``) is preserved exactly — the
equivalence suite asserts identical move sequences, kept prefixes and
final cuts for every configuration combination.

One ``refine`` loop drives both implementations under one pass budget:
a pass runs on the backend's kernel while the kernel accepts it, and
interpreted otherwise.  A pass the kernel declines leaves the partition
and the random state as it found them, so the interpreted pass that
replaces it continues the same refinement bit for bit.

Because :class:`~repro.core.partition.Partition2` maintains an exact
integer cut ledger for integral net weights, the logged cut values here
are exact integers, which makes the best-solution-of-pass tie detection
in :meth:`FMEngine._best_prefix` exact (the seed engine compared
float-accumulated cuts for equality — correct only because, and as long
as, all intermediate values stayed exactly representable).

Scratch is cached per hypergraph identity: hypergraphs are immutable,
so identity keys every per-hypergraph invariant, and the scratch holds
nothing that depends on the configuration.  The interpreted loop runs on a
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
from repro.core.gain_bucket import IllegalHeadPolicy, InsertionOrder
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
    """Preallocated per-hypergraph state of the interpreted pass.

    The weight views it reads are the hypergraph's shared lists: integer
    net weights for gain arithmetic, the partition-ledger net weights
    (identical in the integral regime; the float originals otherwise)
    and vertex weights, plus the cached gain bound.  What it owns is
    ``fm_pass``'s bucket layout and flat arrays backing the per-pass
    logs and the rollback snapshot (a vertex moves at most once per
    pass, so length ``n`` suffices).  The layout keeps one record per
    vertex for both sides — bucket links ``prev``/``next``, bucket index
    ``key`` (the gain plus ``max_abs``) and the free flag ``present`` —
    because a vertex sits only in its own side's buckets; side ``s``
    owns slots ``[s*span, (s+1)*span)`` of ``heads`` and ``tails``.
    Nothing here depends on the engine's configuration.
    """

    __slots__ = (
        "net_w",
        "ledger_w",
        "vwt",
        "vw_integral",
        "max_abs",
        "prev",
        "next",
        "key",
        "present",
        "heads",
        "tails",
        "blank_present",
        "blank_heads",
        "eligible",
        "move_log",
        "cut_log",
        "dist_log",
        "snap_assign",
        "snap_pins0",
        "snap_pins1",
        "snap_break_even",
    )

    def __init__(self, hg) -> None:
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
        self.prev = [-1] * n
        self.next = [-1] * n
        self.key = [0] * n
        self.present = [False] * n
        # Blank templates: each pass clears by slice copy.
        self.blank_present = [False] * n
        self.blank_heads = [-1] * (2 * (2 * self.max_abs + 1))
        self.heads = self.blank_heads.copy()
        self.tails = self.blank_heads.copy()
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


class _KernelRun:
    """One ``refine`` call's working state for a backend's ``fm_pass``.

    The kernel updates the partition's own assignment and pin-count
    arrays in place.  The part weights, the cut and (RANDOM insertion
    order only) the engine's Mersenne-Twister state cross as small int64
    arrays, set up once per refine and written back by :meth:`publish`.
    """

    __slots__ = ("fm_pass", "balance", "rng", "args", "codes", "pw",
                 "cut_io", "mt", "mti", "move_log", "out")

    def __init__(self, engine: "FMEngine", partition: Partition2,
                 ks) -> None:
        cfg = engine.config
        hg = partition.hypergraph
        self.fm_pass = ks.fm_pass
        self.balance = engine.balance
        self.pw = np.array([int(w) for w in partition.part_weights],
                           dtype=np.int64)
        self.cut_io = np.array([int(partition.cut)], dtype=np.int64)
        self.move_log = np.zeros(hg.num_vertices, dtype=np.int64)
        self.out = np.zeros(8, dtype=np.int64)
        self.args = (
            *hg.csr, hg.int_net_weights(), hg.int_vertex_weights(),
            partition.assignment, partition.fixed.astype(np.int64),
            *partition.pins_in_part, self.pw, self.cut_io,
        )
        # The kernel's codes (documented on the cnative wrapper).
        self.codes = (
            1 if cfg.clip else 0,
            1 if cfg.update_policy is UpdatePolicy.ALL else 0,
            0 if cfg.tie_bias is TieBias.AWAY
            else 1 if cfg.tie_bias is TieBias.PART0 else 2,
            0 if cfg.insertion_order is InsertionOrder.LIFO
            else 1 if cfg.insertion_order is InsertionOrder.FIFO else 2,
            0 if cfg.best_choice is BestChoice.FIRST
            else 1 if cfg.best_choice is BestChoice.LAST else 2,
            0 if cfg.illegal_head is IllegalHeadPolicy.SKIP_BUCKET
            else 1 if cfg.illegal_head is IllegalHeadPolicy.SKIP_PARTITION
            else 2,
            1 if cfg.guard_oversized else 0,
            2 * hg.max_weighted_degree + 1,
        )
        # Hand the kernel the live CPython MT19937 state; it consumes
        # exactly the draws the interpreted pass would.
        rnd = cfg.insertion_order is InsertionOrder.RANDOM
        self.rng = engine.rng if rnd else None
        words = engine.rng.getstate()[1] if rnd else (0,) * 625
        self.mt = np.array(words[:624], dtype=np.int64)
        self.mti = np.array(words[624:], dtype=np.int64)

    def run_pass(self, perf: PerfCounters,
                 record_moves: bool) -> Optional[PassStats]:
        """One pass on the kernel, or ``None`` when the kernel declined
        it: a gain left the bounded window (the interpreted pass raises
        there) or the sizes exceed its 32-bit working set.  A declined
        pass changed no partition state, and the MT state is re-armed to
        the pass's entry."""
        bal = self.balance
        pwf = (float(self.pw[0]), float(self.pw[1]))
        cut_before = int(self.cut_io[0])
        if self.rng is not None:
            mt_before = self.mt.copy()
            mti_before = int(self.mti[0])
        out = self.out
        self.fm_pass(
            *self.args, bal.lower_bound, bal.upper_bound, bal.slack,
            1 if bal.is_legal(pwf) else 0, bal.distance_from_bounds(pwf),
            *self.codes, self.mt, self.mti, self.move_log, out,
        )
        if out[7] != 0:
            if self.rng is not None:
                self.mt[:] = mt_before
                self.mti[0] = mti_before
            return None
        mcount = int(out[0])
        best_k = int(out[1])
        perf.vertices_seeded += int(out[2])
        perf.selects += int(out[3])
        perf.gain_updates += int(out[4])
        perf.zero_delta_skips += int(out[5])
        perf.noncritical_net_skips += int(out[6])
        perf.moves_applied += mcount
        perf.moves_kept += best_k
        perf.moves_rolled_back += mcount - best_k
        return PassStats(
            moves_considered=mcount,
            moves_kept=best_k,
            cut_before=cut_before,
            cut_after=int(self.cut_io[0]),
            stuck=int(out[2]) > 0 and mcount == 0,
            move_log=(self.move_log[:mcount].tolist() if record_moves
                      else None),
        )

    def publish(self, partition: Partition2) -> None:
        """Write the part weights, the cut and the MT state back, in the
        interpreted path's value types (float part weights carrying
        integral values, int cut ledger)."""
        pw_l = partition.part_weights
        pw_l[0] = float(self.pw[0])
        pw_l[1] = float(self.pw[1])
        partition.cut = int(self.cut_io[0])
        if self.rng is not None:
            version, _, gauss = self.rng.getstate()
            self.rng.setstate((
                version,
                tuple(self.mt.tolist()) + (int(self.mti[0]),),
                gauss,
            ))


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
        # Scratch cache for the interpreted pass, keyed on hypergraph
        # identity — hypergraphs are immutable and the scratch holds no
        # configuration, so identity is the whole key.  A dict (not a
        # single slot) so one engine serving a whole multilevel
        # hierarchy — or a pooled multistart run — keeps scratch for
        # every level instead of thrashing on each uncoarsening step.
        # Entries hold a strong hypergraph reference, so an id() cannot
        # be reused while its entry lives.
        self._scratch_cache: dict = {}
        self._scratch: Optional[_PassScratch] = None
        self._scratch_for = None

    # ------------------------------------------------------------------
    def refine(self, partition: Partition2) -> FMResult:
        """Run FM passes on ``partition`` until no pass improves the cut
        by more than ``config.min_pass_improvement`` (or ``max_passes``).

        In the integral regime a compiled backend requires, each pass
        runs on its ``fm_pass`` while the kernel accepts it; otherwise,
        and from a declined pass on, passes run interpreted under the
        same pass budget, and ``perf.backend`` reads ``numpy``.
        """
        cfg = self.config
        start = time.perf_counter()
        ks = self._resolve_kernels()
        kernel = None
        if (
            ks is not None
            and partition.hypergraph.integral_vertex_weights
            and partition.integral_nets
        ):
            kernel = _KernelRun(self, partition, ks)
        perf = PerfCounters()
        perf.backend = self._backend_name if kernel is not None else "numpy"
        initial_cut = partition.cut
        work = None
        stats: List[PassStats] = []
        for _ in range(cfg.max_passes):
            t0 = time.perf_counter()
            ps = None
            if kernel is not None:
                ps = kernel.run_pass(perf, self.record_moves)
                if ps is None:
                    # The partition holds the state of the last completed
                    # pass, so the interpreted pass replays this one.
                    kernel.publish(partition)
                    kernel = None
                    perf.backend = "numpy"
            if ps is None:
                if work is None:
                    self._ensure_scratch(partition)
                    work = ListPartition(partition)
                ps = self._run_pass(work, perf)
            ps.seconds = time.perf_counter() - t0
            perf.passes += 1
            perf.pass_seconds.append(ps.seconds)
            stats.append(ps)
            if ps.cut_before - ps.cut_after <= cfg.min_pass_improvement:
                break
        if kernel is not None:
            kernel.publish(partition)
        elif work is not None:
            work.store(partition)
        perf.total_seconds = time.perf_counter() - start
        return FMResult(
            initial_cut=initial_cut,
            final_cut=partition.cut,
            passes=len(stats),
            total_moves=sum(ps.moves_kept for ps in stats),
            stuck_passes=sum(ps.stuck for ps in stats),
            runtime_seconds=time.perf_counter() - start,
            pass_stats=stats,
            perf=perf,
        )

    # ------------------------------------------------------------------
    def _ensure_scratch(self, partition: Partition2) -> None:
        """(Re)build the pass scratch unless a cached one is valid."""
        hg = partition.hypergraph
        if self._scratch_for is hg:
            return
        entry = self._scratch_cache.get(id(hg))
        if entry is not None and entry[0] is hg:
            sc = entry[1]
        else:
            sc = _PassScratch(hg)
            if len(self._scratch_cache) >= self._SCRATCH_CACHE_LIMIT:
                self._scratch_cache.clear()
            self._scratch_cache[id(hg)] = (hg, sc)
        self._scratch = sc
        self._scratch_for = hg

    def release(self, hypergraph) -> None:
        """Drop the scratch kept for ``hypergraph``, which the caller
        will not refine again (a multilevel start's own coarse levels),
        so the cache does not keep it alive."""
        self._scratch_cache.pop(id(hypergraph), None)
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
        pins = partition.pins_in_part
        pins0, pins1 = pins
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

        # ``fm_pass``'s bucket layout (see _PassScratch), with every
        # insert/remove/select inlined.  ``maxi[s]`` bounds side s's
        # highest non-empty bucket index.  A tail is read only while its
        # bucket is non-empty, so only heads and free flags are cleared.
        prev = sc.prev
        nxt = sc.next
        key = sc.key
        present = sc.present
        heads = sc.heads
        tails = sc.tails
        heads[:] = sc.blank_heads
        present[:] = sc.blank_present
        offset = sc.max_abs
        span = 2 * offset + 1
        maxi = [-1, -1]

        order = cfg.insertion_order
        rnd_order = order is InsertionOrder.RANDOM
        head_order = order is InsertionOrder.LIFO
        rng_random = self.rng.random

        # ----- seed gains as bucket indices ---------------------------
        guard = cfg.guard_oversized
        slack = bal.slack
        elig = sc.eligible
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
            idx_list = (np.where(a_np == 0, s0, s1) + offset).tolist()
            for v in range(n):
                if fixed[v]:
                    continue
                if guard and vwt[v] > slack:
                    continue  # corking guard: can never legally move
                key[v] = idx_list[v]
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
                key[v] = int(g) + offset
                elig[ecount] = v
                ecount += 1
        perf.vertices_seeded += ecount

        # ----- fill the buckets ---------------------------------------
        # Plain FM inserts in eligible order per the insertion order.
        # CLIP puts every move in the zero bucket with the highest
        # *initial* gain at the head: head insertion in ascending-gain
        # order (CLIP's definition, so it bypasses the insertion order
        # and consumes no randomness).
        clip = cfg.clip
        if clip:
            seeded = sorted(elig[:ecount], key=key.__getitem__)
        else:
            seeded = elig[:ecount]
        at_head = True  # CLIP's head insertion
        for v in seeded:
            if clip:
                idx = key[v] = offset
            else:
                idx = key[v]
                if idx < 0 or idx >= span:
                    raise ValueError(
                        f"key {idx - offset} outside [-{offset}, {offset}]"
                    )
                # The insertion-order coin flip is drawn before the
                # empty-bucket branch, exactly as the seed engine's
                # bucket insert does, so the RANDOM rng stream stays
                # identical.
                if rnd_order:
                    at_head = rng_random() < 0.5
                else:
                    at_head = head_order
            s = assign[v]
            slot = s * span + idx
            old = heads[slot]
            if old == -1:
                heads[slot] = v
                tails[slot] = v
                prev[v] = -1
                nxt[v] = -1
            elif at_head:
                nxt[v] = old
                prev[v] = -1
                prev[old] = v
                heads[slot] = v
            else:
                tl = tails[slot]
                prev[v] = tl
                nxt[v] = -1
                nxt[tl] = v
                tails[slot] = v
            present[v] = True
            if idx > maxi[s]:
                maxi[s] = idx

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
        # Side 1 wins an equal-gain tie iff the last move came from
        # ``tie_side``: under AWAY from side 0, under TOWARD from side
        # 1, and never under PART0 or on a pass's first move.
        bias = cfg.tie_bias
        tie_side = (-2 if bias is TieBias.PART0
                    else 0 if bias is TieBias.AWAY else 1)

        n_selects = 0
        n_updates = 0
        n_zero_skips = 0
        n_net_skips = 0

        while True:
            # ----- select the best legal move -------------------------
            # Side 0, then side 1, as ``fm_select``: decay the side's
            # top index past empty buckets, then apply the illegal-head
            # policy top-down.  A move from side s is legal iff the
            # destination stays under the upper bound (the source lower
            # bound is implied, see BalanceConstraint.move_is_legal).
            n_selects += 1
            v = -1
            kv = -1
            for s in (0, 1):
                base = s * span
                idx = maxi[s]
                while idx >= 0 and heads[base + idx] == -1:
                    idx -= 1
                maxi[s] = idx
                dw = pw[1 - s]
                while idx >= 0:
                    u = heads[base + idx]
                    if scan_bucket:
                        while u != -1 and not dw + vwt[u] <= hi:
                            u = nxt[u]
                        if u != -1:
                            break
                    elif u != -1:
                        if dw + vwt[u] <= hi:
                            break
                        if skip_part:
                            idx = -1
                            break
                    idx -= 1
                if idx >= 0 and (
                    idx > kv or (idx == kv and last_src == tie_side)
                ):
                    v = u
                    kv = idx
            if v < 0:
                break

            src = assign[v]
            dst = 1 - src
            pins_src = pins[src]
            pins_dst = pins[dst]
            # Unlink the chosen vertex and lock it: a vertex that is not
            # free is also skipped among its own nets' pins below.
            slot = src * span + key[v]
            p = prev[v]
            nn = nxt[v]
            if p != -1:
                nxt[p] = nn
            else:
                heads[slot] = nn
            if nn != -1:
                prev[nn] = p
            else:
                tails[slot] = p
            present[v] = False
            last_src = src

            # ----- fused neighbour update + ledger update -------------
            # Delta gains use the *pre-move* pin counts of each net;
            # fusing is safe because each net appears once in the moved
            # vertex's incidence list and only its own counts matter.
            for i in range(vtx_ptr[v], vtx_ptr[v + 1]):
                e = vtx_nets[i]
                f = pins_src[e]  # includes v
                t = pins_dst[e]
                pins_src[e] = f - 1
                pins_dst[e] = t + 1
                if not update_all and f > 2 and t > 1:
                    # Non-critical net: no pin can change gain (valid
                    # only under the Nonzero policy) and the net stays
                    # cut, so only the pin counts move.
                    n_net_skips += 1
                    continue
                # The delta gain of a free pin on the source side (own
                # count f -> f-1, other t -> t+1) and on the destination
                # side, and the cut ledger's move (as in Partition2.move).
                w = net_w[e]
                if t == 0:
                    if f == 1:
                        continue  # one-pin net: no other pin, no cut change
                    cut += ledger_w[e]
                    d_src = w + w if f == 2 else w
                    d_dst = w
                elif f == 1:
                    cut -= ledger_w[e]
                    d_src = -w
                    d_dst = -w - w if t == 1 else -w
                else:
                    d_src = w if f == 2 else 0
                    d_dst = -w if t == 1 else 0
                for j in range(net_ptr[e], net_ptr[e + 1]):
                    y = net_pins[j]
                    if not present[y]:
                        continue  # locked, fixed, or guarded out
                    sy = assign[y]
                    delta = d_src if sy == src else d_dst
                    if delta == 0 and not update_all:
                        n_zero_skips += 1
                        continue
                    # Unlink, relink at the new index per the insertion
                    # order.  Under the All policy this runs even for
                    # zero deltas — the in-bucket position shift is the
                    # measured effect (Table 1).
                    n_updates += 1
                    ky = key[y]
                    nk = ky + delta
                    if nk < 0 or nk >= span:
                        raise ValueError(
                            f"key {nk - offset} outside [-{offset}, {offset}]"
                        )
                    base = sy * span
                    p = prev[y]
                    nn = nxt[y]
                    if p != -1:
                        nxt[p] = nn
                    else:
                        heads[base + ky] = nn
                    if nn != -1:
                        prev[nn] = p
                    else:
                        tails[base + ky] = p
                    if rnd_order:
                        at_head = rng_random() < 0.5
                    else:
                        at_head = head_order
                    slot = base + nk
                    old = heads[slot]
                    if old == -1:
                        heads[slot] = y
                        tails[slot] = y
                        prev[y] = -1
                        nxt[y] = -1
                    elif at_head:
                        nxt[y] = old
                        prev[y] = -1
                        prev[old] = y
                        heads[slot] = y
                    else:
                        tl = tails[slot]
                        prev[y] = tl
                        nxt[y] = -1
                        nxt[tl] = y
                        tails[slot] = y
                    key[y] = nk
                    if nk > maxi[sy]:
                        maxi[sy] = nk

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

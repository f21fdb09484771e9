"""Clustering/matching schemes for multilevel coarsening (kernel).

Two standard schemes:

* :func:`heavy_edge_matching` — pairwise matching maximizing hyperedge
  connectivity (each net of size ``s`` contributes ``w/(s-1)`` to each
  pin pair), the scheme popularized by METIS/hMetis.
* :func:`first_choice_clustering` — hMetis-style FC clustering: vertices
  may join already-formed clusters, giving stronger size reduction per
  level.

Both respect a cluster-weight cap so coarsening cannot manufacture
unbalanceable coarse vertices, and both skip very large nets (clock-like
nets carry no clustering signal and would make matching quadratic).

**Kernel engineering.**  The original (seed) implementation built a
fresh ``dict`` of neighbour connectivities for every vertex — one hash
insert per (vertex, net, other-pin) triple, the dominant coarsening
cost.  This module is the allocation-free rewrite: neighbour
connectivities accumulate into flat *epoch-stamped* scratch arrays
(:class:`_Workspace`) that are reused across vertices, levels, and
hypergraphs, with per-net connectivity scores precomputed once per call.
The scratch is a module-level singleton sized to the largest instance
seen, so repeated coarsening (multistart pools, V-cycles) touches no
allocator at all.

The rewrite is *behaviourally identical* to the frozen seed oracle
(``tests/oracles/_seed_coarsen.py``): identical cluster maps, identical
RNG stream consumption (one ``rng.shuffle`` per call), identical float
accumulation order, and identical tie-breaking — including the subtle
invariant that a zero-weight eligible net still inserts its pins into
the neighbour set (the insertion *order* side effect the seed dict had).
``tests/test_coarsen_equivalence.py`` enforces all of this.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

import numpy as _np

from repro.core.perf import PerfCounters
from repro.hypergraph.hypergraph import Hypergraph


def _kernels(backend: Optional[str]):
    """Resolve a backend request to a KernelSet (None = interpreted)."""
    from repro.backends import active_kernels

    return active_kernels(backend)[1]


def _kernel_prep(hypergraph: Hypergraph, max_net_size: int, ks):
    """The hypergraph's CSR arrays plus per-net scores for the matching
    kernels."""
    net_ptr, net_pins, vtx_ptr, vtx_nets = hypergraph.csr
    score = _np.empty(hypergraph.num_nets, dtype=_np.float64)
    ks.net_scores(net_ptr, hypergraph.net_weight_array, max_net_size, score)
    return (net_ptr, net_pins, vtx_ptr, vtx_nets,
            hypergraph.vertex_weight_array, score)


def _encode_fixed(fixed_parts, n: int) -> _np.ndarray:
    """Fixed-side map as int64, -1 for unconstrained vertices (an empty
    array when there is no map)."""
    if fixed_parts is None:
        return _np.empty(0, dtype=_np.int64)
    return _np.array([-1 if p is None else p for p in fixed_parts],
                     dtype=_np.int64)


def _shuffled_order(n: int, rng: random.Random, ks) -> _np.ndarray:
    """``range(n)`` after ``rng.shuffle``, as int64, shuffled by the
    kernel set's Mersenne-Twister replay of CPython's shuffle: the same
    draws, and ``rng`` is left in the state ``rng.shuffle`` leaves."""
    version, state, gauss_next = rng.getstate()
    mt = _np.array(state[:-1], dtype=_np.int64)
    mti_io = _np.array(state[-1:], dtype=_np.int64)
    perm = _np.empty((1, n), dtype=_np.int64)
    ks.shuffle_rows(mt, mti_io, _np.arange(n, dtype=_np.int64), perm)
    rng.setstate(
        (version, tuple(mt.tolist()) + (int(mti_io[0]),), gauss_next)
    )
    return perm[0]


class _Workspace:
    """Flat epoch-stamped scratch shared by the matching/contraction kernels.

    One module-level instance backs every call: arrays grow monotonically
    to the largest (vertices, nets) seen and are never cleared — validity
    of an entry is ``stamp[i] == epoch``, and :meth:`bump` starting a new
    epoch invalidates everything in O(1).  Newly grown regions carry
    stamp 0, which is always stale because the epoch counter starts at 1
    and only increases.

    The arrays:

    * ``conn`` / ``stamp`` / ``nbrs`` — neighbour-connectivity
      accumulator: ``conn[u]`` is valid iff ``stamp[u] == epoch``;
      ``nbrs[:k]`` lists the stamped neighbours in first-encounter order
      (the seed dict's iteration order).
    * ``score`` — per-net connectivity score ``w/(size-1)``, with -1.0
      marking nets ineligible for matching (size < 2 or > max_net_size).
      Recomputed per call: eligibility depends on ``max_net_size``.
    * ``remap`` (with ``stamp2``) — cluster-id renumbering scratch for
      :func:`repro.multilevel.coarsen.coarsen`.
    * ``pin_buf`` — per-net projected-pin dedup buffer (size ≥ the
      largest net).
    """

    __slots__ = (
        "conn",
        "stamp",
        "nbrs",
        "score",
        "remap",
        "stamp2",
        "pin_buf",
        "epoch",
        "epoch2",
    )

    def __init__(self) -> None:
        self.conn: List[float] = []
        self.stamp: List[int] = []
        self.nbrs: List[int] = []
        self.score: List[float] = []
        self.remap: List[int] = []
        self.stamp2: List[int] = []
        self.pin_buf: List[int] = []
        self.epoch = 0
        self.epoch2 = 0

    def ensure(self, num_vertices: int, num_nets: int) -> None:
        """Grow the per-vertex / per-net arrays to the required size."""
        short = num_vertices - len(self.conn)
        if short > 0:
            self.conn.extend([0.0] * short)
            self.stamp.extend([0] * short)
            self.nbrs.extend([0] * short)
        short = num_nets - len(self.score)
        if short > 0:
            self.score.extend([0.0] * short)

    def ensure_remap(self, size: int) -> None:
        """Grow the cluster-renumbering arrays to ``size`` entries."""
        short = size - len(self.remap)
        if short > 0:
            self.remap.extend([0] * short)
            self.stamp2.extend([0] * short)

    def ensure_pin_buf(self, size: int) -> None:
        """Grow the projected-pin buffer to ``size`` entries."""
        short = size - len(self.pin_buf)
        if short > 0:
            self.pin_buf.extend([0] * short)

    def bump(self) -> int:
        """Start a new neighbour-accumulator epoch; returns it."""
        self.epoch += 1
        return self.epoch

    def bump2(self) -> int:
        """Start a new renumbering epoch; returns it."""
        self.epoch2 += 1
        return self.epoch2


#: The shared kernel scratch.  Module-level rather than per-hypergraph:
#: capacity-keyed reuse needs no invalidation (no stale identity/weight
#: hazards), survives across hierarchy levels and pooled multistart
#: hierarchies, and keeps ``Hypergraph`` free of unpicklable extras (the
#: orchestrator ships hypergraphs to worker processes).
_WS = _Workspace()


def _net_scores(
    hypergraph: Hypergraph, max_net_size: int, ws: _Workspace
) -> List[float]:
    """Fill ``ws.score`` with per-net connectivity scores.

    ``w/(size-1)`` for matchable nets, -1.0 for ineligible ones.  A
    zero-weight eligible net scores 0.0 — it cannot win a comparison but
    must still enter its pins into the neighbour set, because the seed
    semantics let such nets extend the candidate order.
    """
    net_ptr = hypergraph.raw_csr[0]
    net_weights = hypergraph.net_weight_list
    score = ws.score
    for e in range(hypergraph.num_nets):
        size = net_ptr[e + 1] - net_ptr[e]
        if size < 2 or size > max_net_size:
            score[e] = -1.0
        else:
            score[e] = net_weights[e] / (size - 1)
    return score


def heavy_edge_matching(
    hypergraph: Hypergraph,
    rng: random.Random,
    max_cluster_weight: Optional[float] = None,
    max_net_size: int = 40,
    fixed_parts: Optional[List[Optional[int]]] = None,
    perf: Optional[PerfCounters] = None,
    backend: Optional[str] = None,
) -> _np.ndarray:
    """Heavy-edge matching; returns a cluster id per vertex.

    Vertices are visited in random order; each unmatched vertex picks
    its unmatched neighbour with maximum connectivity whose combined
    weight stays below ``max_cluster_weight``.  Unmatchable vertices
    become singleton clusters.  When ``fixed_parts`` is given, vertices
    fixed to different sides are never merged (a merged cluster could
    not respect both constraints).
    """
    n = hypergraph.num_vertices
    if max_cluster_weight is None:
        max_cluster_weight = _default_cluster_cap(hypergraph)
    ks = _kernels(backend)
    if ks is not None:
        # The kernel replays the one ``rng.shuffle`` below draw for draw,
        # so every backend consumes the same stream, then the selection
        # loop over the shuffled order.
        k_np, k_pins, k_vp, k_vn, k_vwt, score = _kernel_prep(
            hypergraph, max_net_size, ks
        )
        order_np = _shuffled_order(n, rng, ks)
        use_fixed = 1 if fixed_parts is not None else 0
        fixed = _encode_fixed(fixed_parts, n)
        cluster_np = _np.full(n, -1, dtype=_np.int64)
        out = _np.zeros(2, dtype=_np.int64)
        ks.hem_match(
            k_np, k_pins, k_vp, k_vn, k_vwt, score, order_np,
            fixed, use_fixed, 0, _np.empty(0, dtype=_np.int64),
            float(max_cluster_weight), cluster_np, out,
        )
        if perf is not None:
            perf.coarsen_neighbors_touched += int(out[1])
        return cluster_np
    net_ptr, net_pins, vtx_ptr, vtx_nets = hypergraph.raw_csr
    vwt = hypergraph.vertex_weight_list
    ws = _WS
    ws.ensure(n, hypergraph.num_nets)
    score = _net_scores(hypergraph, max_net_size, ws)
    conn, stamp, nbrs = ws.conn, ws.stamp, ws.nbrs

    cluster = [-1] * n
    order = list(range(n))
    rng.shuffle(order)
    next_id = 0
    touched = 0
    for v in order:
        if cluster[v] != -1:
            continue
        epoch = ws.bump()
        ncount = 0
        for i in range(vtx_ptr[v], vtx_ptr[v + 1]):
            e = vtx_nets[i]
            w = score[e]
            if w < 0.0:
                continue
            lo = net_ptr[e]
            hi = net_ptr[e + 1]
            touched += hi - lo - 1
            for j in range(lo, hi):
                u = net_pins[j]
                if u == v:
                    continue
                if stamp[u] == epoch:
                    conn[u] += w
                else:
                    stamp[u] = epoch
                    conn[u] = w
                    nbrs[ncount] = u
                    ncount += 1
        best_u = -1
        best_c = 0.0
        wv = vwt[v]
        for t in range(ncount):
            u = nbrs[t]
            if cluster[u] != -1:
                continue
            if wv + vwt[u] > max_cluster_weight:
                continue
            if fixed_parts is not None and _fixed_conflict(fixed_parts, v, u):
                continue
            c = conn[u]
            if c > best_c:
                best_c = c
                best_u = u
        cluster[v] = next_id
        if best_u != -1:
            cluster[best_u] = next_id
        next_id += 1
    if perf is not None:
        perf.coarsen_neighbors_touched += touched
    return _np.array(cluster, dtype=_np.int64)


def first_choice_clustering(
    hypergraph: Hypergraph,
    rng: random.Random,
    max_cluster_weight: Optional[float] = None,
    max_net_size: int = 40,
    fixed_parts: Optional[List[Optional[int]]] = None,
    perf: Optional[PerfCounters] = None,
    backend: Optional[str] = None,
) -> _np.ndarray:
    """First-choice clustering; returns a cluster id per vertex.

    Like heavy-edge matching, but a vertex may join the cluster of an
    already-clustered neighbour, so clusters can exceed size two.  This
    is the scheme hMetis 1.5 uses by default.
    """
    n = hypergraph.num_vertices
    if max_cluster_weight is None:
        max_cluster_weight = _default_cluster_cap(hypergraph)
    ks = _kernels(backend)
    if ks is not None:
        k_np, k_pins, k_vp, k_vn, k_vwt, score = _kernel_prep(
            hypergraph, max_net_size, ks
        )
        order_np = _shuffled_order(n, rng, ks)
        use_fixed = 1 if fixed_parts is not None else 0
        fixed = _encode_fixed(fixed_parts, n)
        cluster_np = _np.full(n, -1, dtype=_np.int64)
        out = _np.zeros(2, dtype=_np.int64)
        ks.fc_cluster(
            k_np, k_pins, k_vp, k_vn, k_vwt, score, order_np,
            fixed, use_fixed, float(max_cluster_weight), cluster_np, out,
        )
        if perf is not None:
            perf.coarsen_neighbors_touched += int(out[1])
        return cluster_np
    net_ptr, net_pins, vtx_ptr, vtx_nets = hypergraph.raw_csr
    vwt = hypergraph.vertex_weight_list
    ws = _WS
    ws.ensure(n, hypergraph.num_nets)
    score = _net_scores(hypergraph, max_net_size, ws)
    conn, stamp, nbrs = ws.conn, ws.stamp, ws.nbrs

    cluster = [-1] * n
    cluster_weight: List[float] = []
    cluster_fixed: List[Optional[int]] = []
    order = list(range(n))
    rng.shuffle(order)
    touched = 0
    for v in order:
        if cluster[v] != -1:
            continue
        epoch = ws.bump()
        ncount = 0
        for i in range(vtx_ptr[v], vtx_ptr[v + 1]):
            e = vtx_nets[i]
            w = score[e]
            if w < 0.0:
                continue
            lo = net_ptr[e]
            hi = net_ptr[e + 1]
            touched += hi - lo - 1
            for j in range(lo, hi):
                u = net_pins[j]
                if u == v:
                    continue
                if stamp[u] == epoch:
                    conn[u] += w
                else:
                    stamp[u] = epoch
                    conn[u] = w
                    nbrs[ncount] = u
                    ncount += 1
        wv = vwt[v]
        fv = fixed_parts[v] if fixed_parts is not None else None
        best_cluster = -1
        best_c = 0.0
        for t in range(ncount):
            u = nbrs[t]
            cu = cluster[u]
            if cu == -1:
                continue
            if cluster_weight[cu] + wv > max_cluster_weight:
                continue
            cf = cluster_fixed[cu]
            if fv is not None and cf is not None and fv != cf:
                continue
            c = conn[u]
            if c > best_c:
                best_c = c
                best_cluster = cu
        if best_cluster == -1:
            cluster[v] = len(cluster_weight)
            cluster_weight.append(wv)
            cluster_fixed.append(fv)
        else:
            cluster[v] = best_cluster
            cluster_weight[best_cluster] += wv
            if fv is not None:
                cluster_fixed[best_cluster] = fv
    if perf is not None:
        perf.coarsen_neighbors_touched += touched
    return _np.array(cluster, dtype=_np.int64)


def hyperedge_coarsening(
    hypergraph: Hypergraph,
    rng: random.Random,
    max_cluster_weight: Optional[float] = None,
    max_net_size: int = 40,
    fixed_parts: Optional[List[Optional[int]]] = None,
    perf: Optional[PerfCounters] = None,
    backend: Optional[str] = None,
) -> _np.ndarray:
    """hMetis-style hyperedge coarsening (HEC); returns cluster ids.

    Nets are visited heaviest-first (ties: smaller first, then random
    order); a net all of whose pins are still unclustered is contracted
    into a single cluster, provided the merged weight respects the cap
    and no two pins are fixed to different sides.  Leftover vertices
    become singletons.  Entire small nets vanish at once, which is HEC's
    advantage over pairwise matching on netlists dominated by 2-3 pin
    nets.
    """
    n = hypergraph.num_vertices
    if max_cluster_weight is None:
        max_cluster_weight = _default_cluster_cap(hypergraph)
    ks = _kernels(backend)
    if ks is not None:
        # Same shuffle draws as below; the heaviest-first order is the
        # same stable sort, done by lexsort (stable too), and the kernel
        # replays the contraction loop over the resulting net order.
        k_np, k_pins, _, _ = hypergraph.csr
        shuffled = _shuffled_order(hypergraph.num_nets, rng, ks)
        order_np = shuffled[_np.lexsort((
            _np.diff(k_np)[shuffled],
            -hypergraph.net_weight_array[shuffled],
        ))]
        use_fixed = 1 if fixed_parts is not None else 0
        fixed = _encode_fixed(fixed_parts, n)
        cluster_np = _np.full(n, -1, dtype=_np.int64)
        out = _np.zeros(2, dtype=_np.int64)
        ks.hec_contract(
            k_np, k_pins, hypergraph.vertex_weight_array, order_np,
            fixed, use_fixed,
            float(max_cluster_weight), max_net_size, cluster_np, out,
        )
        if perf is not None:
            perf.coarsen_neighbors_touched += int(out[1])
        return cluster_np
    net_ptr, net_pins, _, _ = hypergraph.raw_csr
    vwt = hypergraph.vertex_weight_list
    net_weights = hypergraph.net_weight_list
    cluster = [-1] * n
    order = list(hypergraph.nets())
    rng.shuffle(order)
    order.sort(key=lambda e: (-net_weights[e], net_ptr[e + 1] - net_ptr[e]))
    next_id = 0
    touched = 0
    for e in order:
        lo = net_ptr[e]
        hi = net_ptr[e + 1]
        size = hi - lo
        if size < 2 or size > max_net_size:
            continue
        touched += size
        free = True
        for i in range(lo, hi):
            if cluster[net_pins[i]] != -1:
                free = False
                break
        if not free:
            continue
        total = 0.0
        for i in range(lo, hi):
            total += vwt[net_pins[i]]
        if total > max_cluster_weight:
            continue
        if fixed_parts is not None:
            side = None
            conflict = False
            for i in range(lo, hi):
                fp = fixed_parts[net_pins[i]]
                if fp is not None:
                    if side is None:
                        side = fp
                    elif side != fp:
                        conflict = True
                        break
            if conflict:
                continue
        for i in range(lo, hi):
            cluster[net_pins[i]] = next_id
        next_id += 1
    for v in range(n):
        if cluster[v] == -1:
            cluster[v] = next_id
            next_id += 1
    if perf is not None:
        perf.coarsen_neighbors_touched += touched
    return _np.array(cluster, dtype=_np.int64)


def restricted_matching(
    hypergraph: Hypergraph,
    assignment: Sequence[int],
    rng: random.Random,
    max_cluster_weight: Optional[float] = None,
    max_net_size: int = 40,
    perf: Optional[PerfCounters] = None,
    backend: Optional[str] = None,
) -> _np.ndarray:
    """Partition-respecting matching for V-cycling (Karypis et al.).

    Identical to heavy-edge matching except that only vertices on the
    *same side* of ``assignment`` may merge, so the current solution
    projects exactly onto the coarse hypergraph.
    """
    n = hypergraph.num_vertices
    if max_cluster_weight is None:
        max_cluster_weight = _default_cluster_cap(hypergraph)
    ks = _kernels(backend)
    if ks is not None:
        k_np, k_pins, k_vp, k_vn, k_vwt, score = _kernel_prep(
            hypergraph, max_net_size, ks
        )
        order_np = _shuffled_order(n, rng, ks)
        assign_np = _np.ascontiguousarray(assignment, dtype=_np.int64)
        cluster_np = _np.full(n, -1, dtype=_np.int64)
        out = _np.zeros(2, dtype=_np.int64)
        ks.hem_match(
            k_np, k_pins, k_vp, k_vn, k_vwt, score, order_np,
            _np.empty(0, dtype=_np.int64), 0, 1, assign_np,
            float(max_cluster_weight), cluster_np, out,
        )
        if perf is not None:
            perf.coarsen_neighbors_touched += int(out[1])
        return cluster_np
    if isinstance(assignment, _np.ndarray):
        assignment = assignment.tolist()
    net_ptr, net_pins, vtx_ptr, vtx_nets = hypergraph.raw_csr
    vwt = hypergraph.vertex_weight_list
    ws = _WS
    ws.ensure(n, hypergraph.num_nets)
    score = _net_scores(hypergraph, max_net_size, ws)
    conn, stamp, nbrs = ws.conn, ws.stamp, ws.nbrs

    cluster = [-1] * n
    order = list(range(n))
    rng.shuffle(order)
    next_id = 0
    touched = 0
    for v in order:
        if cluster[v] != -1:
            continue
        epoch = ws.bump()
        ncount = 0
        for i in range(vtx_ptr[v], vtx_ptr[v + 1]):
            e = vtx_nets[i]
            w = score[e]
            if w < 0.0:
                continue
            lo = net_ptr[e]
            hi = net_ptr[e + 1]
            touched += hi - lo - 1
            for j in range(lo, hi):
                u = net_pins[j]
                if u == v:
                    continue
                if stamp[u] == epoch:
                    conn[u] += w
                else:
                    stamp[u] = epoch
                    conn[u] = w
                    nbrs[ncount] = u
                    ncount += 1
        best_u = -1
        best_c = 0.0
        wv = vwt[v]
        side = assignment[v]
        for t in range(ncount):
            u = nbrs[t]
            if cluster[u] != -1 or assignment[u] != side:
                continue
            if wv + vwt[u] > max_cluster_weight:
                continue
            c = conn[u]
            if c > best_c:
                best_c = c
                best_u = u
        cluster[v] = next_id
        if best_u != -1:
            cluster[best_u] = next_id
        next_id += 1
    if perf is not None:
        perf.coarsen_neighbors_touched += touched
    return _np.array(cluster, dtype=_np.int64)


def _default_cluster_cap(hypergraph: Hypergraph) -> float:
    """Default cluster-weight cap: 4x the average vertex weight, but at
    least the largest existing vertex (macros must stay placeable)."""
    n = max(hypergraph.num_vertices, 1)
    avg = hypergraph.total_vertex_weight / n
    weights = hypergraph.vertex_weight_array
    biggest = float(weights.max()) if weights.size else 1.0
    return max(4.0 * avg, biggest)


def _fixed_conflict(
    fixed_parts: List[Optional[int]], v: int, u: int
) -> bool:
    fv, fu = fixed_parts[v], fixed_parts[u]
    return fv is not None and fu is not None and fv != fu

"""Hypergraph coarsening: contract a clustering into a coarse level.

Given a cluster map (one cluster id per fine vertex), the coarse
hypergraph has one vertex per cluster whose weight is the cluster's total
area.  Nets project onto clusters with duplicate pins merged; nets that
collapse to fewer than two pins disappear, and *identical* coarse nets
are merged with their weights summed (the standard hMetis optimization —
it keeps gain magnitudes honest across levels).

**Kernel engineering.**  The seed implementation renumbered clusters
through a dict, deduped each net's projected pins through a set, and
merged identical nets through a dict of pin tuples.  This rewrite keeps
the exact same output — same coarse vertex numbering (first-encounter
order), same net order (first occurrence of each distinct coarse net),
same float weight accumulation order — but computes it on flat arrays:

* cluster renumbering in one first-encounter pass through a dict,
* per-net pin dedup via a per-call list stamped by net id (no set
  allocation),
* identical-net merging via one stable sort of the projected nets by
  pin-tuple key: stability makes the group representative the smallest
  original net id, which is precisely the seed dict's first-occurrence
  order, and ascending original ids within a group reproduce the seed's
  weight accumulation order bit for bit,
* coarse CSR assembled flat and adopted by the trusted
  :meth:`Hypergraph.from_csr` fast path — no re-validation of pins the
  kernel just constructed.  The compiled backends write the coarse CSR
  as int32, the dtype every hypergraph holds, and its transpose by
  counting sort (the ``transpose`` kernel), and hand both over as they
  are, so a coarse level is never sorted again, and never exists as
  Python lists (or as an int64 copy) unless an interpreted loop asks
  for the lists.

Cluster maps are int64 arrays: :attr:`CoarseLevel.cluster_of` is the
contraction kernel's own ``mapped`` output, and projecting an
assignment through a level is one ``np.take``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.perf import PerfCounters
from repro.hypergraph.hypergraph import Hypergraph
from repro.multilevel.matching import _kernels


@dataclass
class CoarseLevel:
    """One level of the coarsening hierarchy.

    Attributes
    ----------
    fine:
        The finer hypergraph this level was built from.
    coarse:
        The contracted hypergraph.
    cluster_of:
        Fine vertex -> coarse vertex map (length ``fine.num_vertices``).
    """

    fine: Hypergraph
    coarse: Hypergraph
    cluster_of: np.ndarray

    def project_assignment(self, coarse_assignment) -> List[int]:
        """Lift a coarse assignment to the fine hypergraph (fresh list)."""
        return np.take(coarse_assignment, self.cluster_of).tolist()

    def project_assignment_into(
        self, coarse_assignment, out: np.ndarray
    ) -> np.ndarray:
        """Lift a coarse assignment into the int64 array ``out``.

        ``out`` must have length ``fine.num_vertices``; it is returned
        for convenience.  Uncoarsening projects once per level per
        start, so the multilevel refiner reuses one buffer per level
        size instead of allocating a fresh array each time.
        """
        if len(out) != len(self.cluster_of):
            raise ValueError("projection buffer length mismatch")
        return np.take(coarse_assignment, self.cluster_of, out=out)


def coarsen(
    hypergraph: Hypergraph,
    cluster_of: Sequence[int],
    perf: Optional[PerfCounters] = None,
    backend: Optional[str] = None,
) -> CoarseLevel:
    """Contract ``hypergraph`` according to ``cluster_of``.

    Cluster ids may be arbitrary non-negative integers; they are
    renumbered densely.  Raises ``ValueError`` on negative ids or a map
    of the wrong length.
    """
    t0 = time.perf_counter() if perf is not None else 0.0
    n = hypergraph.num_vertices
    if len(cluster_of) != n:
        raise ValueError("cluster_of length mismatch")
    ks = _kernels(backend)
    if ks is not None and n > 0:
        cluster_np = np.ascontiguousarray(cluster_of, dtype=np.int64)
        if cluster_np.max() < 2 * n:
            # Dense-ish ids only: the kernel's remap table is sized by
            # the largest id, so sparse ids take the renumbering loop
            # below.  Negative ids are detected inside the kernel, which
            # reports the first offending vertex so the error is
            # identical to the interpreted path's.
            return _coarsen_kernel(hypergraph, cluster_np, ks, perf, t0)
    if isinstance(cluster_of, np.ndarray):
        cluster_of = cluster_of.tolist()
    net_ptr, net_pins, _, _ = hypergraph.raw_csr
    vwt = hypergraph.vertex_weight_list
    net_weights = hypergraph.net_weight_list

    # ----- dense renumbering in first-encounter order -----------------
    dense: Dict[int, int] = {}
    mapped: List[int] = []
    for v, c in enumerate(cluster_of):
        if c < 0:
            raise ValueError(f"vertex {v} has negative cluster id {c}")
        mapped.append(dense.setdefault(c, len(dense)))
    num_coarse = len(dense)

    weights = [0.0] * num_coarse
    for v in range(n):
        weights[mapped[v]] += vwt[v]

    # ----- project nets, dedup pins, merge identical nets -------------
    # Stage 1: project every net through the cluster map, deduping pins
    # with a buffer stamped by net id; keep (sorted pin tuple, original
    # net id).
    m = hypergraph.num_nets
    stamp = [-1] * num_coarse
    keys: List[Tuple[int, ...]] = []
    orig: List[int] = []
    dropped = 0
    for e in range(m):
        pins = []
        for i in range(net_ptr[e], net_ptr[e + 1]):
            c = mapped[net_pins[i]]
            if stamp[c] != e:
                stamp[c] = e
                pins.append(c)
        if len(pins) < 2:
            dropped += 1
            continue
        pins.sort()
        keys.append(tuple(pins))
        orig.append(e)

    # Stage 2: one stable sort groups identical nets.  Stability means
    # equal keys keep ascending original net order, so the group head is
    # the seed dict's first occurrence and weights accumulate in the
    # seed's order.  Groups are emitted in order of their head's
    # original net id — the seed's coarse net order.
    kept = len(keys)
    by_key = sorted(range(kept), key=keys.__getitem__)
    groups: List[Tuple[int, List[int]]] = []  # (head orig id, member idxs)
    i = 0
    while i < kept:
        j = i + 1
        k = keys[by_key[i]]
        while j < kept and keys[by_key[j]] == k:
            j += 1
        groups.append((orig[by_key[i]], by_key[i:j]))
        i = j
    groups.sort()

    coarse_net_ptr = [0] * (len(groups) + 1)
    coarse_pins: List[int] = []
    coarse_net_weights: List[float] = []
    merged = 0
    for g, (_, members) in enumerate(groups):
        coarse_pins.extend(keys[members[0]])
        coarse_net_ptr[g + 1] = len(coarse_pins)
        w = net_weights[orig[members[0]]]
        for t in range(1, len(members)):
            w += net_weights[orig[members[t]]]
            merged += 1
        coarse_net_weights.append(w)

    coarse = Hypergraph.from_csr(
        coarse_net_ptr,
        coarse_pins,
        num_vertices=num_coarse,
        vertex_weights=weights,
        net_weights=coarse_net_weights,
    )
    if perf is not None:
        perf.coarsen_nets_projected += m
        perf.coarsen_nets_merged += merged
        perf.coarsen_nets_dropped += dropped
        perf.coarsen_seconds += time.perf_counter() - t0
    return CoarseLevel(
        fine=hypergraph,
        coarse=coarse,
        cluster_of=np.array(mapped, dtype=np.int64),
    )


def _coarsen_kernel(
    hypergraph: Hypergraph,
    cluster_np: np.ndarray,
    ks,
    perf: Optional[PerfCounters],
    t0: float,
) -> CoarseLevel:
    """Contract through a compiled backend kernel (bit-identical)."""
    net_ptr, net_pins, _, _ = hypergraph.csr
    vwt = hypergraph.vertex_weight_array
    net_w = hypergraph.net_weight_array
    n = hypergraph.num_vertices
    m = hypergraph.num_nets
    mapped = np.zeros(n, dtype=np.int64)
    weights = np.zeros(n, dtype=np.float64)
    coarse_net_ptr = np.zeros(m + 1, dtype=np.int32)
    coarse_pins = np.zeros(net_pins.shape[0], dtype=np.int32)
    coarse_net_w = np.zeros(m, dtype=np.float64)
    out = np.zeros(6, dtype=np.int64)
    ks.contract(
        net_ptr, net_pins, cluster_np, vwt, net_w,
        mapped, weights, coarse_net_ptr, coarse_pins, coarse_net_w, out,
    )
    if out[5]:
        v = int(out[0])
        raise ValueError(
            f"vertex {v} has negative cluster id {int(cluster_np[v])}"
        )
    num_coarse = int(out[0])
    num_groups = int(out[1])
    cpos = int(out[2])
    # Copies, so the level does not pin the fine-sized output buffers.
    coarse_net_ptr = coarse_net_ptr[: num_groups + 1].copy()
    coarse_pins = coarse_pins[:cpos].copy()
    vtx_ptr = np.empty(num_coarse + 1, dtype=np.int32)
    vtx_nets = np.empty(cpos, dtype=np.int32)
    ks.transpose(coarse_net_ptr, coarse_pins, vtx_ptr, vtx_nets)
    coarse = Hypergraph.from_csr(
        coarse_net_ptr,
        coarse_pins,
        num_vertices=num_coarse,
        vertex_weights=weights[:num_coarse].copy(),
        net_weights=coarse_net_w[:num_groups].copy(),
        transpose=(vtx_ptr, vtx_nets),
    )
    if perf is not None:
        perf.coarsen_nets_projected += m
        perf.coarsen_nets_merged += int(out[3])
        perf.coarsen_nets_dropped += int(out[4])
        perf.coarsen_seconds += time.perf_counter() - t0
    return CoarseLevel(fine=hypergraph, coarse=coarse, cluster_of=mapped)

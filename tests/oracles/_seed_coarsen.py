"""Frozen seed implementation of matching + contraction (test oracle).

This module is a verbatim copy of ``repro.multilevel.matching`` and
``repro.multilevel.coarsen`` as they stood before the allocation-free
coarsening kernel rewrite.  It exists for the same reason
``tests.oracles._seed_engine`` does: the kernel's correctness claim is
*exact behavioural equivalence* — identical cluster maps, identical
coarse hypergraphs (same net order, same pin order, same float weight
accumulation), identical RNG stream consumption — and that claim is only
testable against an implementation that is guaranteed never to change.

Do not "improve" this module — its value is that it does not change.
The dict-based connectivity accumulation, the dict-of-tuples net dedup,
and the first-encounter cluster renumbering are the reference semantics
the kernel must reproduce bit for bit.

``tests/test_coarsen_equivalence.py`` runs the kernel against these
functions across every clustering scheme, cap/net-size setting, fixed
vertex layout, and hypothesis-fuzzed instance;
:mod:`tests.oracles.seed_ml` drives whole multilevel runs on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.hypergraph.hypergraph import Hypergraph


def _connectivity_to_neighbors(
    hypergraph: Hypergraph,
    v: int,
    max_net_size: int,
) -> Dict[int, float]:
    """Map of neighbour -> summed connectivity weight for vertex ``v``."""
    conn: Dict[int, float] = {}
    for e in hypergraph.nets_of(v):
        size = hypergraph.net_size(e)
        if size < 2 or size > max_net_size:
            continue
        w = hypergraph.net_weight(e) / (size - 1)
        for u in hypergraph.pins_of(e):
            if u != v:
                conn[u] = conn.get(u, 0.0) + w
    return conn


def seed_heavy_edge_matching(
    hypergraph: Hypergraph,
    rng: random.Random,
    max_cluster_weight: Optional[float] = None,
    max_net_size: int = 40,
    fixed_parts: Optional[List[Optional[int]]] = None,
) -> List[int]:
    """Heavy-edge matching; returns a cluster id per vertex."""
    n = hypergraph.num_vertices
    if max_cluster_weight is None:
        max_cluster_weight = _default_cluster_cap(hypergraph)
    cluster = [-1] * n
    order = list(range(n))
    rng.shuffle(order)
    next_id = 0
    for v in order:
        if cluster[v] != -1:
            continue
        best_u = -1
        best_c = 0.0
        wv = hypergraph.vertex_weight(v)
        for u, c in _connectivity_to_neighbors(hypergraph, v, max_net_size).items():
            if cluster[u] != -1:
                continue
            if wv + hypergraph.vertex_weight(u) > max_cluster_weight:
                continue
            if fixed_parts is not None and _fixed_conflict(fixed_parts, v, u):
                continue
            if c > best_c:
                best_c = c
                best_u = u
        cluster[v] = next_id
        if best_u != -1:
            cluster[best_u] = next_id
        next_id += 1
    return cluster


def seed_first_choice_clustering(
    hypergraph: Hypergraph,
    rng: random.Random,
    max_cluster_weight: Optional[float] = None,
    max_net_size: int = 40,
    fixed_parts: Optional[List[Optional[int]]] = None,
) -> List[int]:
    """First-choice clustering; returns a cluster id per vertex."""
    n = hypergraph.num_vertices
    if max_cluster_weight is None:
        max_cluster_weight = _default_cluster_cap(hypergraph)
    cluster = [-1] * n
    cluster_weight: List[float] = []
    cluster_fixed: List[Optional[int]] = []
    order = list(range(n))
    rng.shuffle(order)
    for v in order:
        if cluster[v] != -1:
            continue
        wv = hypergraph.vertex_weight(v)
        fv = fixed_parts[v] if fixed_parts is not None else None
        best_cluster = -1
        best_c = 0.0
        for u, c in _connectivity_to_neighbors(hypergraph, v, max_net_size).items():
            cu = cluster[u]
            if cu == -1:
                continue
            if cluster_weight[cu] + wv > max_cluster_weight:
                continue
            cf = cluster_fixed[cu]
            if fv is not None and cf is not None and fv != cf:
                continue
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
    return cluster


def seed_hyperedge_coarsening(
    hypergraph: Hypergraph,
    rng: random.Random,
    max_cluster_weight: Optional[float] = None,
    max_net_size: int = 40,
    fixed_parts: Optional[List[Optional[int]]] = None,
) -> List[int]:
    """hMetis-style hyperedge coarsening (HEC); returns cluster ids."""
    n = hypergraph.num_vertices
    if max_cluster_weight is None:
        max_cluster_weight = _default_cluster_cap(hypergraph)
    cluster = [-1] * n
    order = list(hypergraph.nets())
    rng.shuffle(order)
    order.sort(
        key=lambda e: (-hypergraph.net_weight(e), hypergraph.net_size(e))
    )
    next_id = 0
    for e in order:
        size = hypergraph.net_size(e)
        if size < 2 or size > max_net_size:
            continue
        pins = hypergraph.pins_of(e)
        if any(cluster[v] != -1 for v in pins):
            continue
        total = sum(hypergraph.vertex_weight(v) for v in pins)
        if total > max_cluster_weight:
            continue
        if fixed_parts is not None:
            sides = {
                fixed_parts[v] for v in pins if fixed_parts[v] is not None
            }
            if len(sides) > 1:
                continue
        for v in pins:
            cluster[v] = next_id
        next_id += 1
    for v in range(n):
        if cluster[v] == -1:
            cluster[v] = next_id
            next_id += 1
    return cluster


def seed_restricted_matching(
    hypergraph: Hypergraph,
    assignment: List[int],
    rng: random.Random,
    max_cluster_weight: Optional[float] = None,
    max_net_size: int = 40,
) -> List[int]:
    """Partition-respecting matching for V-cycling (Karypis et al.)."""
    n = hypergraph.num_vertices
    if max_cluster_weight is None:
        max_cluster_weight = _default_cluster_cap(hypergraph)
    cluster = [-1] * n
    order = list(range(n))
    rng.shuffle(order)
    next_id = 0
    for v in order:
        if cluster[v] != -1:
            continue
        best_u = -1
        best_c = 0.0
        wv = hypergraph.vertex_weight(v)
        for u, c in _connectivity_to_neighbors(hypergraph, v, max_net_size).items():
            if cluster[u] != -1 or assignment[u] != assignment[v]:
                continue
            if wv + hypergraph.vertex_weight(u) > max_cluster_weight:
                continue
            if c > best_c:
                best_c = c
                best_u = u
        cluster[v] = next_id
        if best_u != -1:
            cluster[best_u] = next_id
        next_id += 1
    return cluster


def _default_cluster_cap(hypergraph: Hypergraph) -> float:
    """Default cluster-weight cap: 4x the average vertex weight, but at
    least the largest existing vertex (macros must stay placeable)."""
    n = max(hypergraph.num_vertices, 1)
    avg = hypergraph.total_vertex_weight / n
    biggest = max(
        (hypergraph.vertex_weight(v) for v in hypergraph.vertices()),
        default=1.0,
    )
    return max(4.0 * avg, biggest)


def _fixed_conflict(
    fixed_parts: List[Optional[int]], v: int, u: int
) -> bool:
    fv, fu = fixed_parts[v], fixed_parts[u]
    return fv is not None and fu is not None and fv != fu


# ----------------------------------------------------------------------
# Frozen contraction (the pre-kernel ``coarsen``).
# ----------------------------------------------------------------------


@dataclass
class SeedCoarseLevel:
    """One level of the coarsening hierarchy (frozen layout)."""

    fine: Hypergraph
    coarse: Hypergraph
    cluster_of: List[int]

    def project_assignment(self, coarse_assignment: List[int]) -> List[int]:
        """Lift a coarse assignment to the fine hypergraph."""
        return [coarse_assignment[self.cluster_of[v]] for v in
                range(self.fine.num_vertices)]


def seed_coarsen(hypergraph: Hypergraph, cluster_of: List[int]) -> SeedCoarseLevel:
    """Contract ``hypergraph`` according to ``cluster_of`` (frozen)."""
    n = hypergraph.num_vertices
    if len(cluster_of) != n:
        raise ValueError("cluster_of length mismatch")

    dense: Dict[int, int] = {}
    mapped = [0] * n
    for v in range(n):
        c = cluster_of[v]
        if c < 0:
            raise ValueError(f"vertex {v} has negative cluster id {c}")
        d = dense.get(c)
        if d is None:
            d = len(dense)
            dense[c] = d
        mapped[v] = d
    num_coarse = len(dense)

    weights = [0.0] * num_coarse
    for v in range(n):
        weights[mapped[v]] += hypergraph.vertex_weight(v)

    # Project nets; merge identical coarse nets by pin-tuple key.
    net_index: Dict[Tuple[int, ...], int] = {}
    coarse_nets: List[List[int]] = []
    coarse_net_weights: List[float] = []
    for e in range(hypergraph.num_nets):
        pins = sorted({mapped[v] for v in hypergraph.pins_of(e)})
        if len(pins) < 2:
            continue
        key = tuple(pins)
        idx = net_index.get(key)
        if idx is None:
            net_index[key] = len(coarse_nets)
            coarse_nets.append(pins)
            coarse_net_weights.append(hypergraph.net_weight(e))
        else:
            coarse_net_weights[idx] += hypergraph.net_weight(e)

    coarse = Hypergraph(
        coarse_nets,
        num_vertices=num_coarse,
        vertex_weights=weights,
        net_weights=coarse_net_weights,
    )
    return SeedCoarseLevel(fine=hypergraph, coarse=coarse, cluster_of=mapped)

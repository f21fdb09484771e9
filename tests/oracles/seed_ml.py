"""Multilevel driver on the frozen seed components.

The pre-kernel multilevel code path, reassembled from the oracles:
hierarchies are coarsened with the seed matching and contraction
(:mod:`._seed_coarsen`), and every start is refined by a freshly built
:class:`~._seed_engine.SeedFMEngine` pair with freshly allocated
projections.  Per start it consumes the RNG exactly as
:meth:`repro.multilevel.mlpart.MLPartitioner.partition` does on a
supplied hierarchy, so the two must agree cut for cut.  V-cycles are not
replayed.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Optional, Sequence

from repro.core.balance import BalanceConstraint
from repro.core.initial import generate_initial
from repro.core.partition import Partition2
from repro.multilevel.pool import Hierarchy, project_fixed
from tests.oracles import _seed_coarsen
from tests.oracles._seed_engine import SeedFMEngine

_CLUSTERING = {
    "heavy_edge": _seed_coarsen.seed_heavy_edge_matching,
    "first_choice": _seed_coarsen.seed_first_choice_clustering,
    "hyperedge": _seed_coarsen.seed_hyperedge_coarsening,
}


def seed_build_hierarchy(
    hypergraph,
    config,
    rng: random.Random,
    fixed_parts: Optional[Sequence[Optional[int]]] = None,
) -> Hierarchy:
    """The level loop of :func:`repro.multilevel.pool.build_hierarchy`,
    with its guards, on the frozen matching and contraction."""
    cluster_fn = _CLUSTERING[config.clustering]
    levels = []
    hg = hypergraph
    fixed = list(fixed_parts) if fixed_parts else None
    while hg.num_vertices > config.coarsest_size:
        level = _seed_coarsen.seed_coarsen(
            hg, cluster_fn(hg, rng, fixed_parts=fixed)
        )
        if level.coarse.num_vertices >= hg.num_vertices:
            break
        if level.coarse.num_vertices > hg.num_vertices / config.min_reduction:
            break
        levels.append((level, fixed))
        fixed = project_fixed(level, fixed)
        hg = level.coarse
    return Hierarchy(
        hypergraph=hypergraph,
        levels=levels,
        coarsest=hg,
        coarsest_fixed=fixed,
        fixed_signature=tuple(fixed_parts) if fixed_parts else None,
    )


def seed_ml_partition(
    hierarchy: Hierarchy, config, tolerance: float, seed: int
) -> Partition2:
    """One multilevel start on ``hierarchy``: initial partitioning at the
    coarsest level, then projection and refinement level by level."""
    hypergraph = hierarchy.hypergraph
    rng = random.Random(seed)
    balance = BalanceConstraint(hypergraph.total_vertex_weight, tolerance)
    init_engine = SeedFMEngine(balance, config.fm_config, rng)
    refine_engine = SeedFMEngine(
        balance, replace(config.fm_config, max_passes=config.refine_passes), rng
    )
    best = None
    for _ in range(max(1, config.initial_starts)):
        part = generate_initial(
            hierarchy.coarsest,
            balance,
            config.fm_config.initial_solution,
            rng,
            hierarchy.coarsest_fixed,
        )
        init_engine.refine(part)
        if best is None or part.cut < best.cut:
            best = part
    assignment = best.assignment
    for level, level_fixed in reversed(hierarchy.levels):
        fine = Partition2(
            level.fine,
            level.project_assignment(assignment),
            [p is not None for p in level_fixed] if level_fixed else None,
        )
        refine_engine.refine(fine)
        assignment = fine.assignment
    return Partition2(hypergraph, assignment)

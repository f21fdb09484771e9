"""Multilevel partitioning: coarsening, initial partitioning, refinement,
V-cycling — the "leading edge" engine class (ML LIFO / ML CLIP) of the
paper's Tables 1, 4 and 5.
"""

from repro.multilevel.coarsen import CoarseLevel, coarsen
from repro.multilevel.matching import (
    first_choice_clustering,
    heavy_edge_matching,
    hyperedge_coarsening,
    restricted_matching,
)
from repro.multilevel.mlpart import MLConfig, MLPartitioner
from repro.multilevel.parallel import (
    InRunPool,
    clamp_inrun_workers,
    close_inrun_pools,
    get_inrun_pool,
    parallel_clustering,
)
from repro.multilevel.pool import (
    Hierarchy,
    HierarchyPool,
    build_hierarchy,
    hierarchy_seed,
    run_multistart_pooled,
)
from repro.multilevel.shmetis import ShmetisResult, shmetis, ubfactor_to_tolerance

__all__ = [
    "CoarseLevel",
    "Hierarchy",
    "HierarchyPool",
    "InRunPool",
    "MLConfig",
    "MLPartitioner",
    "build_hierarchy",
    "clamp_inrun_workers",
    "close_inrun_pools",
    "coarsen",
    "get_inrun_pool",
    "parallel_clustering",
    "first_choice_clustering",
    "heavy_edge_matching",
    "hierarchy_seed",
    "hyperedge_coarsening",
    "restricted_matching",
    "run_multistart_pooled",
    "ShmetisResult",
    "shmetis",
    "ubfactor_to_tolerance",
]

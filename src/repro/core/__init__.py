"""Core FM-based 2-way partitioning engines — the paper's subject matter.

The package exposes:

* :class:`FMConfig` and its option enums — every *implicit implementation
  decision* of Section 2.2 as an explicit knob;
* :class:`FMPartitioner` — flat LIFO FM and CLIP FM single-start runs;
* :class:`FMEngine` — the pass-level refinement engine (reused by the
  multilevel partitioner);
* :class:`Partition2` / :class:`BalanceConstraint` — incremental
  partition state and the paper's percentage balance semantics;
* :class:`PerfCounters` — kernel event counters attached to every
  :class:`FMResult`;
* :func:`run_multistart` — independent-start experiment driver.
"""

from repro.core.balance import BalanceConstraint
from repro.core.config import (
    STRONG_CLIP,
    STRONG_LIFO,
    WORST_FLAT,
    BestChoice,
    FMConfig,
    InitialSolution,
    TieBias,
    UpdatePolicy,
)
from repro.core.engine import FMEngine, FMResult, PassStats
from repro.core.gain_bucket import GainBuckets, IllegalHeadPolicy, InsertionOrder
from repro.core.kway import KWayResult, RecursiveBisection
from repro.core.kway_fm import KWayBalance, KWayFM, PartitionK
from repro.core.lookahead import LookaheadFM, LookaheadResult, gain_vector
from repro.core.multistart import MultistartResult, StartRecord, run_multistart
from repro.core.objectives import (
    OBJECTIVES,
    absorption_cost,
    cut_cost,
    ratio_cut_cost,
    scaled_cost,
)
from repro.core.partition import Partition2
from repro.core.partitioner import FMPartitioner, PartitionResult
from repro.core.perf import PerfCounters
from repro.core.pruning import PrunedMultistart, PrunedRunStats

__all__ = [
    "BalanceConstraint",
    "BestChoice",
    "FMConfig",
    "FMEngine",
    "FMPartitioner",
    "FMResult",
    "GainBuckets",
    "IllegalHeadPolicy",
    "InitialSolution",
    "InsertionOrder",
    "KWayBalance",
    "KWayFM",
    "KWayResult",
    "LookaheadFM",
    "LookaheadResult",
    "MultistartResult",
    "OBJECTIVES",
    "Partition2",
    "PartitionK",
    "PartitionResult",
    "PassStats",
    "PerfCounters",
    "PrunedMultistart",
    "PrunedRunStats",
    "RecursiveBisection",
    "StartRecord",
    "STRONG_CLIP",
    "STRONG_LIFO",
    "TieBias",
    "UpdatePolicy",
    "WORST_FLAT",
    "absorption_cost",
    "cut_cost",
    "gain_vector",
    "ratio_cut_cost",
    "run_multistart",
    "scaled_cost",
]

"""Trivial baselines: random legal assignment and greedy BFS growth.

These anchor the bottom of every comparison ("Do measure with many
instruments"): a heuristic that cannot clearly beat a random legal
solution, or plain BFS region growth, is not contributing.
"""

from __future__ import annotations

import random
import time
from typing import Optional, Sequence

from repro.core.balance import BalanceConstraint
from repro.core.config import InitialSolution
from repro.core.initial import generate_initial
from repro.core.partition import Partition2
from repro.core.partitioner import PartitionResult
from repro.hypergraph.hypergraph import Hypergraph


class RandomPartitioner:
    """Random balanced assignment; no optimization at all."""

    def __init__(self, tolerance: float = 0.02) -> None:
        self.tolerance = tolerance
        self.name = "Random (legal)"

    def partition(
        self,
        hypergraph: Hypergraph,
        seed: int = 0,
        fixed_parts: Optional[Sequence[Optional[int]]] = None,
    ) -> PartitionResult:
        start_time = time.perf_counter()
        balance = BalanceConstraint(hypergraph.total_vertex_weight, self.tolerance)
        part = Partition2.random_balanced(
            hypergraph, balance, random.Random(seed), fixed_parts
        )
        return _result(part, balance, start_time)


class BFSGrowthPartitioner:
    """Breadth-first region growth from a random seed; no refinement."""

    def __init__(self, tolerance: float = 0.02) -> None:
        self.tolerance = tolerance
        self.name = "BFS growth"

    def partition(
        self,
        hypergraph: Hypergraph,
        seed: int = 0,
        fixed_parts: Optional[Sequence[Optional[int]]] = None,
    ) -> PartitionResult:
        start_time = time.perf_counter()
        balance = BalanceConstraint(hypergraph.total_vertex_weight, self.tolerance)
        part = generate_initial(
            hypergraph, balance, InitialSolution.BFS, random.Random(seed), fixed_parts
        )
        return _result(part, balance, start_time)


def _result(
    part: Partition2, balance: BalanceConstraint, start_time: float
) -> PartitionResult:
    return PartitionResult(
        assignment=part.assignment.tolist(),
        cut=part.cut,
        part_weights=list(part.part_weights),
        legal=balance.is_legal(part.part_weights),
        runtime_seconds=time.perf_counter() - start_time,
    )

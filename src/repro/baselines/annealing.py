"""Simulated-annealing bipartitioner.

The paper's use model mentions "stochastic hill-climbing search" as the
detailed-placement refiner, and SA is the classic metaheuristic whose
quality/runtime profile differs enough from FM to make BSF-curve and
ranking-diagram comparisons interesting: SA is far slower per start but
keeps improving with budget, so the speed-dependent ranking flips — the
exact phenomenon Section 3.2's reporting style exists to expose.

The implementation is a standard Metropolis scheme over single-vertex
moves with the incremental gain evaluation shared with FM
(:meth:`Partition2.gain`), a geometric cooling schedule, and rejection
of balance-violating moves.
"""

from __future__ import annotations

import math
import random
import time
from typing import Optional, Sequence

from repro.core.balance import BalanceConstraint
from repro.core.partition import ListPartition, Partition2
from repro.core.partitioner import PartitionResult
from repro.hypergraph.hypergraph import Hypergraph


class AnnealingPartitioner:
    """Metropolis simulated annealing over single-vertex moves.

    Parameters
    ----------
    moves_per_temperature:
        Proposed moves per temperature step, as a multiple of the vertex
        count.
    initial_acceptance:
        Target acceptance ratio used to auto-tune the starting
        temperature from sampled uphill moves.
    cooling:
        Geometric cooling factor per temperature step.
    min_temperature_factor:
        Stop when the temperature falls below this fraction of the
        starting temperature.
    """

    def __init__(
        self,
        tolerance: float = 0.02,
        moves_per_temperature: float = 4.0,
        initial_acceptance: float = 0.8,
        cooling: float = 0.9,
        min_temperature_factor: float = 1e-3,
        name: Optional[str] = None,
    ) -> None:
        if not 0 < cooling < 1:
            raise ValueError("cooling must be in (0, 1)")
        if not 0 < initial_acceptance < 1:
            raise ValueError("initial_acceptance must be in (0, 1)")
        self.tolerance = tolerance
        self.moves_per_temperature = moves_per_temperature
        self.initial_acceptance = initial_acceptance
        self.cooling = cooling
        self.min_temperature_factor = min_temperature_factor
        self.name = name if name is not None else "Simulated annealing"

    # ------------------------------------------------------------------
    def partition(
        self,
        hypergraph: Hypergraph,
        seed: int = 0,
        fixed_parts: Optional[Sequence[Optional[int]]] = None,
    ) -> PartitionResult:
        """One SA run from a random balanced start."""
        t0 = time.perf_counter()
        rng = random.Random(seed)
        balance = BalanceConstraint(
            hypergraph.total_vertex_weight, self.tolerance
        )
        start = Partition2.random_balanced(
            hypergraph, balance, rng, fixed_parts
        )
        # The Metropolis loop indexes the state per proposal: lists.
        part = ListPartition(start)
        movable = [
            v for v in range(hypergraph.num_vertices) if not part.fixed[v]
        ]
        if not movable:
            return self._result(start, balance, t0)

        temperature = self._initial_temperature(part, movable, rng)
        floor = temperature * self.min_temperature_factor
        moves_per_step = max(16, int(self.moves_per_temperature * len(movable)))
        hi = balance.upper_bound

        best_cut = part.cut
        best_assignment = list(part.assignment)
        while temperature > floor:
            accepted = 0
            for _ in range(moves_per_step):
                v = movable[rng.randrange(len(movable))]
                dest = 1 - part.assignment[v]
                if (
                    part.part_weights[dest] + hypergraph.vertex_weight(v)
                    > hi
                ):
                    continue
                gain = part.gain(v)
                if gain >= 0 or rng.random() < math.exp(gain / temperature):
                    part.move(v)
                    accepted += 1
                    if part.cut < best_cut and balance.is_legal(
                        part.part_weights
                    ):
                        best_cut = part.cut
                        best_assignment = list(part.assignment)
            temperature *= self.cooling
            if accepted == 0:
                break  # frozen

        final = Partition2(hypergraph, best_assignment, start.fixed)
        return self._result(final, balance, t0)

    # ------------------------------------------------------------------
    def _initial_temperature(
        self, part: ListPartition, movable, rng: random.Random
    ) -> float:
        """Temperature at which ``initial_acceptance`` of sampled uphill
        moves would be accepted (standard auto-tuning)."""
        uphill = []
        for _ in range(min(200, 4 * len(movable))):
            v = movable[rng.randrange(len(movable))]
            g = part.gain(v)
            if g < 0:
                uphill.append(-g)
        if not uphill:
            return 1.0
        avg_uphill = sum(uphill) / len(uphill)
        return -avg_uphill / math.log(self.initial_acceptance)

    @staticmethod
    def _result(
        part: Partition2, balance: BalanceConstraint, t0: float
    ) -> PartitionResult:
        return PartitionResult(
            assignment=part.assignment.tolist(),
            cut=part.cut,
            part_weights=list(part.part_weights),
            legal=balance.is_legal(part.part_weights),
            runtime_seconds=time.perf_counter() - t0,
        )

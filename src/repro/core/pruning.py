"""Pruned multistart (Section 3.2).

The paper notes that advanced metaheuristics "do not necessarily use
independent starts.  For example, pruning (early termination of starts
that appear unpromising relative to previous starts) can be applied" —
and that this is precisely why CPU time, not start counts, must be the
comparison axis (sampling-based rankings become invalid).

``PrunedMultistart`` wraps a flat FM configuration: each start runs one
probe pass first; if the post-probe cut exceeds ``prune_factor`` times
the best *final* cut seen so far, the start is abandoned.  The class
satisfies the standard bipartitioner protocol, so it drops into every
evaluation harness — where its BSF curve demonstrably dominates
independent multistart's at equal CPU.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.balance import BalanceConstraint
from repro.core.config import FMConfig
from repro.core.engine import FMEngine
from repro.core.initial import generate_initial
from repro.core.partitioner import PartitionResult
from repro.hypergraph.hypergraph import Hypergraph


@dataclass
class PrunedRunStats:
    """Bookkeeping of one pruned-multistart invocation."""

    starts_attempted: int = 0
    starts_pruned: int = 0
    probe_cuts: List[float] = field(default_factory=list)


class PrunedMultistart:
    """Multistart flat FM with probe-pass pruning.

    Parameters
    ----------
    num_starts:
        Starts attempted per ``partition()`` call.
    prune_factor:
        A start is abandoned after its probe pass when its probe cut
        exceeds ``prune_factor`` times the best *probe* cut seen so far
        (like compares with like: one-pass cuts sit well above final
        cuts).  Factors near 1 prune aggressively; large factors
        degenerate to independent multistart.
    config:
        Flat-engine configuration for both probe and full runs.
    """

    def __init__(
        self,
        num_starts: int = 8,
        prune_factor: float = 1.5,
        config: Optional[FMConfig] = None,
        tolerance: float = 0.02,
        name: Optional[str] = None,
    ) -> None:
        if num_starts < 1:
            raise ValueError("num_starts must be >= 1")
        if prune_factor <= 0:
            raise ValueError("prune_factor must be positive")
        self.num_starts = num_starts
        self.prune_factor = prune_factor
        self.config = config if config is not None else FMConfig()
        self.tolerance = tolerance
        self.name = (
            name
            if name is not None
            else f"Pruned multistart x{num_starts} (factor {prune_factor:g})"
        )
        self.last_stats: Optional[PrunedRunStats] = None

    def partition(
        self,
        hypergraph: Hypergraph,
        seed: int = 0,
        fixed_parts: Optional[Sequence[Optional[int]]] = None,
    ) -> PartitionResult:
        """Run the pruned multistart bundle; returns the best solution."""
        t0 = time.perf_counter()
        balance = BalanceConstraint(
            hypergraph.total_vertex_weight, self.tolerance
        )
        probe_cfg = self.config.with_options(max_passes=1)
        stats = PrunedRunStats()
        best_cut = float("inf")
        best_probe = float("inf")
        best_assignment: Optional[List[int]] = None
        best_weights: Optional[List[float]] = None

        for i in range(self.num_starts):
            rng = random.Random(seed + i)
            part = generate_initial(
                hypergraph,
                balance,
                self.config.initial_solution,
                rng,
                fixed_parts,
            )
            stats.starts_attempted += 1
            FMEngine(balance, probe_cfg, rng).refine(part)
            stats.probe_cuts.append(part.cut)
            if part.cut < best_probe:
                best_probe = part.cut
            elif part.cut > self.prune_factor * best_probe:
                stats.starts_pruned += 1
                continue
            FMEngine(balance, self.config, rng).refine(part)
            if part.cut < best_cut:
                best_cut = part.cut
                best_assignment = part.assignment.tolist()
                best_weights = list(part.part_weights)

        assert best_assignment is not None and best_weights is not None
        self.last_stats = stats
        return PartitionResult(
            assignment=best_assignment,
            cut=best_cut,
            part_weights=best_weights,
            legal=balance.is_legal(best_weights),
            runtime_seconds=time.perf_counter() - t0,
        )

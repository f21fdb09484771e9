"""High-level flat FM bipartitioner facade.

``FMPartitioner`` wires together initial-solution generation, the FM/CLIP
engine, and balance constraints behind a single ``partition()`` call; it
is the object experiments configure and run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.balance import BalanceConstraint
from repro.core.config import FMConfig
from repro.core.engine import FMEngine, FMResult
from repro.core.initial import generate_initial
from repro.core.partition import Partition2
from repro.hypergraph.hypergraph import Hypergraph


@dataclass
class PartitionResult:
    """Result of one partitioner start."""

    assignment: List[int]
    cut: float
    part_weights: List[float]
    legal: bool
    runtime_seconds: float
    engine_result: Optional[FMResult] = None

    def __post_init__(self) -> None:
        self.assignment = list(self.assignment)


class FMPartitioner:
    """Flat FM / CLIP FM bipartitioner.

    Parameters
    ----------
    config:
        Implicit-decision configuration (defaults to the strong choices).
    tolerance:
        Balance tolerance in the paper's convention (0.02 → 49/51 split).

    Example
    -------
    >>> from repro.instances import suite_instance
    >>> hg = suite_instance("ibm01s")
    >>> result = FMPartitioner(tolerance=0.02).partition(hg, seed=1)
    >>> result.legal
    True
    """

    def __init__(
        self,
        config: Optional[FMConfig] = None,
        tolerance: float = 0.02,
        name: Optional[str] = None,
    ) -> None:
        self.config = config if config is not None else FMConfig()
        self.tolerance = tolerance
        #: Display name in experiment reports; override to label
        #: configurations distinctly (e.g. "Flat FM @2%").
        self.name = (
            name if name is not None else f"Flat {self.config.describe()}"
        )

    def balance_for(self, hypergraph: Hypergraph) -> BalanceConstraint:
        """The balance constraint this partitioner applies to ``hypergraph``."""
        return BalanceConstraint(hypergraph.total_vertex_weight, self.tolerance)

    def partition(
        self,
        hypergraph: Hypergraph,
        seed: int = 0,
        fixed_parts: Optional[Sequence[Optional[int]]] = None,
        initial: Optional[Partition2] = None,
    ) -> PartitionResult:
        """Run one start: generate (or take) an initial solution, refine.

        Parameters
        ----------
        seed:
            Seeds both the initial solution and any randomized engine
            policies; identical seeds reproduce identical runs.
        fixed_parts:
            Optional per-vertex fixed side (``None`` = free) — the fixed
            terminals of top-down placement.
        initial:
            Pre-built initial partition (overrides generation); it is
            refined in place on a copy.
        """
        start = time.perf_counter()
        rng = random.Random(seed)
        balance = self.balance_for(hypergraph)
        if initial is None:
            part = generate_initial(
                hypergraph,
                balance,
                self.config.initial_solution,
                rng,
                fixed_parts,
            )
        else:
            part = initial.copy()
        engine = FMEngine(balance, self.config, rng)
        engine_result = engine.refine(part)
        return PartitionResult(
            assignment=part.assignment.tolist(),
            cut=part.cut,
            part_weights=list(part.part_weights),
            legal=balance.is_legal(part.part_weights),
            runtime_seconds=time.perf_counter() - start,
            engine_result=engine_result,
        )

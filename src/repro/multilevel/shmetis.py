"""An ``shmetis``-compatible convenience entry point.

The paper evaluates hMetis-1.5 "using precisely its default
configurations (cf. the description of 'shmetis')".  This module
reproduces that interface on top of our multilevel engine so the
Tables 4-5 protocol can be driven exactly the way the paper drove the
original binary:

``shmetis(hypergraph, k, ubfactor, nruns)``
    - runs ``nruns`` independent multilevel starts,
    - keeps the best,
    - V-cycles the best result (hMetis's default final refinement),
    - for ``k > 2`` recursively bisects with the same engine.

``UBfactor`` follows the hMetis user manual: for a bisection, a factor
``b`` constrains each part to between ``(50 - b)%`` and ``(50 + b)%``
of total weight — so ``b = 1`` is the paper's "2%" constraint
(49/51) and ``b = 5`` its "10%" constraint (45/55).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.config import FMConfig
from repro.core.kway import RecursiveBisection
from repro.core.multistart import run_multistart
from repro.hypergraph.hypergraph import Hypergraph
from repro.multilevel.mlpart import MLConfig, MLPartitioner
from repro.multilevel.pool import HierarchyPool


@dataclass
class ShmetisResult:
    """Result of an :func:`shmetis` invocation."""

    assignment: List[int]
    k: int
    cut: float
    part_weights: List[float]
    nruns: int
    runtime_seconds: float

    @property
    def legal(self) -> bool:
        """Legality under the UBfactor window implied at construction
        is recorded by the caller; exposed weights allow re-checking."""
        return all(w > 0 for w in self.part_weights)


def ubfactor_to_tolerance(ubfactor: float) -> float:
    """hMetis UBfactor -> the paper's fractional tolerance.

    ``b`` percent of slack on each side of 50% equals tolerance
    ``2b/100``: UBfactor 1 → 0.02 (49/51), UBfactor 5 → 0.10 (45/55).
    """
    if ubfactor <= 0 or ubfactor >= 50:
        raise ValueError("UBfactor must lie in (0, 50)")
    return 2.0 * ubfactor / 100.0


def shmetis(
    hypergraph: Hypergraph,
    k: int = 2,
    ubfactor: float = 5.0,
    nruns: int = 10,
    seed: int = 0,
    clip: bool = False,
    fixed_parts: Optional[Sequence[Optional[int]]] = None,
) -> ShmetisResult:
    """Partition with shmetis-default behaviour (see module docstring).

    Parameters mirror the hMetis command line: ``k`` parts, ``UBfactor``
    balance, ``nruns`` starts.  ``clip`` selects CLIP refinement.
    """
    if nruns < 1:
        raise ValueError("nruns must be >= 1")
    t0 = time.perf_counter()
    tolerance = ubfactor_to_tolerance(ubfactor)
    config = MLConfig(fm_config=FMConfig(clip=clip))
    engine = MLPartitioner(config, tolerance=tolerance)

    if k == 2:
        # Starts draw coarsening hierarchies from a small seeded pool
        # instead of re-coarsening per start (hierarchy j is built with
        # hierarchy_seed(seed, j), so results do not depend on nruns for
        # any common prefix of starts: start i always uses hierarchy
        # i % min(nruns, 4)).
        pool = HierarchyPool(
            hypergraph,
            config,
            min(nruns, 4),
            base_seed=seed,
            fixed_parts=fixed_parts,
            backend=engine.backend,
        )
        starts = run_multistart(
            engine, hypergraph, nruns, base_seed=seed,
            fixed_parts=fixed_parts, pool=pool,
        )
        assignment, cut = starts.best_assignment, starts.min_cut
        # hMetis V-cycles the best of the starts.
        improved = engine.vcycle(hypergraph, assignment, seed=seed + nruns)
        if improved.cut < cut:
            assignment, cut = improved.assignment, improved.cut
        weights = hypergraph.part_weights(assignment, 2)
    else:
        if fixed_parts is not None:
            raise NotImplementedError(
                "fixed vertices are supported for k = 2 only"
            )
        rb = RecursiveBisection(
            k,
            tolerance=tolerance,
            partitioner_factory=lambda tol: MLPartitioner(
                config, tolerance=tol
            ),
        )
        best_kway = None
        for i in range(nruns):
            result = rb.partition(hypergraph, seed=seed + 1000 * i)
            if best_kway is None or result.cut < best_kway.cut:
                best_kway = result
        assert best_kway is not None
        assignment = best_kway.assignment
        cut = best_kway.cut
        weights = list(best_kway.part_weights)

    return ShmetisResult(
        assignment=list(assignment),
        k=k,
        cut=cut,
        part_weights=weights,
        nruns=nruns,
        runtime_seconds=time.perf_counter() - t0,
    )

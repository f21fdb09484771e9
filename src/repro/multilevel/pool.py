"""Seeded hierarchy pooling: reuse coarsening work across multistart.

``MLPartitioner.partition`` historically rebuilt the full coarsening
hierarchy for every start, so ``num_starts`` starts paid ``num_starts``
complete re-coarsenings of the same hypergraph.  KaHyPar-style engines
amortize this: coarsening hierarchies depend only on the hypergraph and
the coarsening RNG, so a small pool of K precomputed hierarchies can
serve any number of starts.

**Pooling semantics (what is shared vs. per-start).**  A pooled run
derives two *independent* RNG streams:

* hierarchy ``j`` of the pool is built with
  ``random.Random(hierarchy_seed(base_seed, j))`` and consumes coarsening
  randomness only (the matching visit orders);
* start ``i`` draws hierarchy ``i % K`` from the pool and uses
  ``random.Random(base_seed + i)`` exclusively for initial partitioning
  and refinement.

Because the streams are split, a *serial* run that rebuilds hierarchy
``i % K`` from scratch for every start produces **bit-identical per-start
records** to the pooled run — the pool changes where the hierarchy comes
from, never what it is.  ``tests/test_hierarchy_pool.py`` holds the
pooled kernel path to the frozen seed coarsening and FM oracles start
for start.

V-cycles are *not* pooled: restricted matching depends on the current
assignment, so V-cycle coarsening is inherently per-start (it still uses
the allocation-free kernel).
"""

from __future__ import annotations

import inspect
import random
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.perf import PerfCounters
from repro.hypergraph.hypergraph import Hypergraph
from repro.multilevel.coarsen import coarsen
from repro.multilevel.matching import (
    first_choice_clustering,
    heavy_edge_matching,
    hyperedge_coarsening,
)

#: Seed offset between pooled hierarchies.  Pure integer arithmetic on
#: purpose: seeding ``random.Random`` with tuples or strings hashes
#: them, and string hashing is randomized per process — which would
#: silently break cross-process reproducibility (the orchestrator runs
#: trials in worker processes).
_HIERARCHY_SEED_STRIDE = 1_000_003


def hierarchy_seed(base_seed: int, j: int) -> int:
    """Seed for pooled hierarchy ``j`` under multistart seed ``base_seed``.

    Deliberately disjoint from the per-start seeds ``base_seed + i`` for
    any realistic start count, so coarsening randomness and refinement
    randomness are never correlated.
    """
    return base_seed + _HIERARCHY_SEED_STRIDE * (j + 1)


def supports_hierarchy(partitioner) -> bool:
    """True when ``partitioner`` can draw from a :class:`HierarchyPool`.

    Two requirements: ``partition()`` must accept a ``hierarchy``
    keyword, and the partitioner must expose the coarsening ``config``
    (``clustering`` / ``coarsest_size`` / ``min_reduction``) a pool
    needs to build hierarchies on its behalf.  The orchestrator's
    sticky per-worker caches use this probe to decide which heuristics
    get pooled coarsening — flat partitioners and user-supplied duck
    types simply run unpooled.
    """
    partition = getattr(partitioner, "partition", None)
    if partition is None:
        return False
    try:
        sig = inspect.signature(partition)
    except (TypeError, ValueError):  # builtins / odd callables
        return False
    if "hierarchy" not in sig.parameters:
        return False
    config = getattr(partitioner, "config", None)
    return all(
        hasattr(config, attr)
        for attr in ("clustering", "coarsest_size", "min_reduction")
    )


@dataclass
class Hierarchy:
    """One fully-built coarsening hierarchy, reusable across starts.

    Attributes
    ----------
    hypergraph:
        The finest (original) hypergraph.
    levels:
        ``(CoarseLevel, fine_fixed_parts)`` pairs from finest to
        coarsest, exactly as ``MLPartitioner`` consumes them.
    coarsest:
        The coarsest hypergraph (equals ``hypergraph`` when no level
        passed the reduction guard).
    coarsest_fixed:
        Fixed-side constraints projected onto the coarsest level.
    fixed_signature:
        Canonical form of the ``fixed_parts`` the hierarchy was built
        under; ``partition(hierarchy=...)`` validates against it.
    seed:
        The hierarchy seed it was built from (``None`` when built from a
        caller-supplied RNG).
    """

    hypergraph: Hypergraph
    levels: List[Tuple[object, Optional[List[Optional[int]]]]]
    coarsest: Hypergraph
    coarsest_fixed: Optional[List[Optional[int]]]
    fixed_signature: Optional[Tuple[Optional[int], ...]] = None
    seed: Optional[int] = None

    @property
    def num_levels(self) -> int:
        return len(self.levels)


def project_fixed(level, fixed) -> Optional[List[Optional[int]]]:
    """Project per-vertex fixed sides through one coarsening level."""
    if fixed is None:
        return None
    coarse_fixed: List[Optional[int]] = [None] * level.coarse.num_vertices
    cluster_of = level.cluster_of
    for v, side in enumerate(fixed):
        if side is not None:
            coarse_fixed[cluster_of[v]] = side
    return coarse_fixed


def coarsening_key(config) -> Tuple[str, int, float]:
    """The part of ``config`` a hierarchy depends on: the three fields
    :func:`build_hierarchy` reads.

    Two configs with equal keys build identical hierarchies from the
    same instance, fixed parts and seed (the kernel backend never
    changes a hierarchy), so they may share one :class:`HierarchyPool`.
    """
    return (config.clustering, config.coarsest_size, config.min_reduction)


def _cluster_fn(clustering: str):
    # Looked up at call time, so a patched module global takes effect.
    table = {
        "first_choice": first_choice_clustering,
        "hyperedge": hyperedge_coarsening,
        "heavy_edge": heavy_edge_matching,
    }
    try:
        return table[clustering]
    except KeyError:
        raise ValueError(f"unknown clustering scheme {clustering!r}") from None


def build_hierarchy(
    hypergraph: Hypergraph,
    config,
    rng: random.Random,
    fixed_parts: Optional[Sequence[Optional[int]]] = None,
    perf: Optional[PerfCounters] = None,
    seed: Optional[int] = None,
    backend: Optional[str] = None,
) -> Hierarchy:
    """Coarsen ``hypergraph`` until small; returns the full hierarchy.

    ``config`` supplies ``coarsest_size``, ``min_reduction`` and
    ``clustering`` (an :class:`~repro.multilevel.mlpart.MLConfig` or any
    object with those attributes).  ``backend`` selects the kernel
    backend for matching/contraction, as the caller resolved it
    (``None`` = process default); every backend is bit-identical, so
    the hierarchy never depends on it.

    Coarsening stops at ``coarsest_size``, when a level shrinks by less
    than ``min_reduction``, or — the stall guard — when a level fails to
    shrink *at all*, which guards configurations with
    ``min_reduction <= 1.0`` against looping forever on clique-like
    instances where matching cannot pair anything.
    """
    t0 = time.perf_counter() if perf is not None else 0.0
    cluster_fn = _cluster_fn(config.clustering)
    levels: List[Tuple[object, Optional[List[Optional[int]]]]] = []
    hg = hypergraph
    # Truthiness (not None-ness) on purpose: MLPartitioner.partition
    # treats an empty fixed_parts as "no fixed vertices", and the
    # fixed-signature validation must agree with it.
    fixed = list(fixed_parts) if fixed_parts else None
    while hg.num_vertices > config.coarsest_size:
        cluster = cluster_fn(
            hg, rng, fixed_parts=fixed, perf=perf, backend=backend
        )
        level = coarsen(hg, cluster, perf=perf, backend=backend)
        if level.coarse.num_vertices >= hg.num_vertices:
            break  # stall: no progress at all (see docstring)
        if level.coarse.num_vertices > hg.num_vertices / config.min_reduction:
            break
        coarse_fixed = project_fixed(level, fixed)
        levels.append((level, fixed))
        if perf is not None:
            perf.coarsen_levels += 1
        hg = level.coarse
        fixed = coarse_fixed
    if perf is not None:
        perf.coarsen_seconds += time.perf_counter() - t0
        perf.hierarchies_built += 1
    return Hierarchy(
        hypergraph=hypergraph,
        levels=levels,
        coarsest=hg,
        coarsest_fixed=fixed,
        fixed_signature=tuple(fixed_parts) if fixed_parts else None,
        seed=seed,
    )


class HierarchyPool:
    """K lazily-built, seeded coarsening hierarchies for one hypergraph.

    ``get(i)`` returns hierarchy ``i % size``, building it on first use
    with ``random.Random(hierarchy_seed(base_seed, i % size))``.  Lazy
    construction means a pool sized larger than the actual start count
    never builds unused hierarchies.  ``run_multistart(..., pool=pool)``
    runs start ``i`` on ``get(i)``; ``backend`` is the kernel backend
    the caller's partitioner resolved (``None`` = process default).

    ``get`` is safe under concurrent callers (threads racing for the
    same slot): a double-checked build lock guarantees exactly one build
    per slot, so ``num_built`` and the perf counters never count a
    hierarchy twice.
    """

    def __init__(
        self,
        hypergraph: Hypergraph,
        config,
        size: int,
        base_seed: int = 0,
        fixed_parts: Optional[Sequence[Optional[int]]] = None,
        perf: Optional[PerfCounters] = None,
        backend: Optional[str] = None,
    ) -> None:
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.hypergraph = hypergraph
        self.config = config
        self.size = size
        self.base_seed = base_seed
        self.fixed_parts = list(fixed_parts) if fixed_parts else None
        self.perf = perf if perf is not None else PerfCounters()
        self.backend = backend
        self._hierarchies: List[Optional[Hierarchy]] = [None] * size
        self._build_lock = threading.Lock()

    def _build(self, j: int) -> Hierarchy:
        seed = hierarchy_seed(self.base_seed, j)
        return build_hierarchy(
            self.hypergraph,
            self.config,
            random.Random(seed),
            fixed_parts=self.fixed_parts,
            perf=self.perf,
            seed=seed,
            backend=self.backend,
        )

    def get(self, start_index: int) -> Hierarchy:
        """Hierarchy serving start ``start_index`` (built on demand)."""
        j = start_index % self.size
        h = self._hierarchies[j]
        if h is not None:
            self.perf.hierarchies_reused += 1
            return h
        with self._build_lock:
            h = self._hierarchies[j]
            if h is not None:  # lost the race: someone built it already
                self.perf.hierarchies_reused += 1
                return h
            h = self._build(j)
            self._hierarchies[j] = h
        return h

    @property
    def num_built(self) -> int:
        return sum(1 for h in self._hierarchies if h is not None)

    def __len__(self) -> int:
        return self.size


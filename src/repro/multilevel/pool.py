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
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.multistart import MultistartResult, StartRecord
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


def config_backend(config) -> Optional[str]:
    """Kernel-backend request carried by a coarsening ``config``.

    ``fm_config.backend`` wins over the multilevel-level ``backend`` —
    the same precedence :class:`~repro.multilevel.mlpart.MLPartitioner`
    applies — so pooled and standalone builds resolve identically.
    Configs that predate the backend registry simply resolve to
    ``None`` (process default).
    """
    fm = getattr(config, "fm_config", None)
    backend = getattr(fm, "backend", None)
    if backend is None:
        backend = getattr(config, "backend", None)
    return backend


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
    backend for matching/contraction (``None`` reads it off ``config``
    via :func:`config_backend`); every backend is bit-identical, so the
    hierarchy never depends on it.

    Coarsening stops at ``coarsest_size``, when a level shrinks by less
    than ``min_reduction``, or — the stall guard — when a level fails to
    shrink *at all*, which guards configurations with
    ``min_reduction <= 1.0`` against looping forever on clique-like
    instances where matching cannot pair anything.
    """
    t0 = time.perf_counter() if perf is not None else 0.0
    cluster_fn = _cluster_fn(config.clustering)
    if backend is None:
        backend = config_backend(config)
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
    never builds unused hierarchies.

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
        self.backend = backend if backend is not None else config_backend(config)
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


def run_multistart_pooled(
    partitioner,
    hypergraph: Hypergraph,
    num_starts: int,
    instance_name: str = "",
    base_seed: int = 0,
    pool_size: int = 2,
    fixed_parts: Optional[Sequence[Optional[int]]] = None,
    pool: Optional[HierarchyPool] = None,
) -> MultistartResult:
    """Multistart driver drawing hierarchies from a seeded pool.

    Mirrors :func:`repro.core.multistart.run_multistart` — same seeds,
    same record stream — but start ``i`` partitions on pooled hierarchy
    ``i % pool_size`` instead of re-coarsening.  ``partitioner`` must
    accept a ``hierarchy`` keyword (i.e. be an
    :class:`~repro.multilevel.mlpart.MLPartitioner`).

    A pre-built ``pool`` may be supplied (it must match ``hypergraph``);
    otherwise one is created from ``partitioner.config``.

    To run the starts in parallel, run them as a campaign:
    ``orchestrate_campaign(..., workers=N, sticky_cache=True,
    sticky_pool_size=pool_size)`` (``repro campaign run --workers N
    --sticky-cache``) gives this function's ``(seed, cut, legal)``
    stream.
    """
    if num_starts < 1:
        raise ValueError("num_starts must be >= 1")
    if pool is None:
        pool = HierarchyPool(
            hypergraph,
            partitioner.config,
            pool_size,
            base_seed=base_seed,
            fixed_parts=fixed_parts,
            backend=getattr(partitioner, "backend", None),
        )
    elif pool.hypergraph is not hypergraph:
        raise ValueError("pool was built for a different hypergraph")
    result = MultistartResult(
        heuristic=getattr(partitioner, "name", type(partitioner).__name__),
        instance=instance_name,
    )
    best_cut = float("inf")
    for i in range(num_starts):
        seed = base_seed + i
        t0 = time.perf_counter()
        out = partitioner.partition(
            hypergraph,
            seed=seed,
            fixed_parts=fixed_parts,
            hierarchy=pool.get(i),
        )
        elapsed = time.perf_counter() - t0
        result.starts.append(
            StartRecord(
                seed=seed,
                cut=out.cut,
                runtime_seconds=elapsed,
                legal=out.legal,
            )
        )
        if out.cut < best_cut:
            best_cut = out.cut
            result.best_assignment = list(out.assignment)
    return result

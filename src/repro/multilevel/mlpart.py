"""Multilevel FM partitioner (ML LIFO FM / ML CLIP FM).

The classic three-phase scheme of hMetis [Karypis et al. 97]:

1. **Coarsening** — repeated clustering (heavy-edge matching or
   first-choice) until the hypergraph is small;
2. **Initial partitioning** — several FM starts on the coarsest level;
3. **Uncoarsening** — project the solution level by level, refining with
   the flat FM/CLIP engine at each level.

Optionally, **V-cycling** [Karypis-Kumar]: re-coarsen with a
partition-respecting matching and refine again, which the paper's
hMetis-1.5 evaluation (Tables 4-5) applies to the best of several starts.

The refinement engine is the same :class:`~repro.core.engine.FMEngine`
as the flat partitioners, so Table 1's point — implicit flat-engine
decisions remain visible inside a strong multilevel wrapper — holds by
construction.

**Hierarchy reuse.**  ``partition()`` accepts a precomputed
:class:`~repro.multilevel.pool.Hierarchy`; multistart drivers pass
pooled hierarchies (see :mod:`repro.multilevel.pool`) so K coarsening
runs serve any number of starts.  When a hierarchy is supplied the
per-start RNG feeds *only* initial partitioning and refinement, which is
what makes a pooled run bit-identical to a serial run that rebuilds the
same hierarchies from the same hierarchy seeds.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.balance import BalanceConstraint
from repro.core.config import FMConfig
from repro.core.engine import FMEngine
from repro.core.initial import generate_initial
from repro.core.partition import Partition2
from repro.core.partitioner import PartitionResult
from repro.core.perf import PerfCounters
from repro.hypergraph.hypergraph import Hypergraph
from repro.multilevel.coarsen import CoarseLevel, coarsen
from repro.multilevel.matching import restricted_matching
from repro.multilevel.pool import Hierarchy, build_hierarchy


@dataclass(frozen=True)
class MLConfig:
    """Multilevel-specific configuration.

    Attributes
    ----------
    fm_config:
        Flat-engine configuration used for refinement and the coarsest-
        level initial partitioning (Table 1 sweeps this).
    coarsest_size:
        Stop coarsening below this many vertices.
    min_reduction:
        Abort coarsening when a level shrinks by less than this factor
        (guards against matching stalls on dense instances).
    initial_starts:
        FM starts at the coarsest level; the best seeds uncoarsening.
    refine_passes:
        FM pass limit per uncoarsening level (full convergence at every
        level would waste time the paper's use model does not have).
    clustering:
        ``"heavy_edge"``, ``"first_choice"`` or ``"hyperedge"`` (HEC).
    vcycles:
        Number of V-cycle refinement rounds applied to the final
        solution of each start.
    """

    fm_config: FMConfig = FMConfig()
    coarsest_size: int = 40
    min_reduction: float = 1.1
    initial_starts: int = 4
    refine_passes: int = 4
    clustering: str = "heavy_edge"
    vcycles: int = 0

    def describe(self) -> str:
        """Short tag, e.g. ``ML CLIP/nonzero/away/lifo``."""
        return f"ML {self.fm_config.describe()}"


class MLPartitioner:
    """Multilevel 2-way partitioner with optional V-cycling.

    Satisfies the same ``partition(hypergraph, seed, fixed_parts)``
    protocol as :class:`~repro.core.partitioner.FMPartitioner`, so the
    evaluation machinery treats flat and multilevel heuristics
    uniformly.  ``partition`` additionally accepts a precomputed
    ``hierarchy`` for pooled multistart runs.

    Parameters
    ----------
    config, tolerance, name:
        As before (configuration, balance tolerance, report label).
    backend:
        Kernel backend for refinement, matching and contraction.  This
        is the one place an ML backend request is resolved: the
        explicit argument, else ``config.fm_config.backend``, else the
        process default (``None``; see :mod:`repro.backends`).  Every
        backend is bit-identical to numpy, so it changes wall-clock
        only.
    """

    def __init__(
        self,
        config: Optional[MLConfig] = None,
        tolerance: float = 0.02,
        name: Optional[str] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.config = config if config is not None else MLConfig()
        self.tolerance = tolerance
        #: Resolved backend request threaded into every engine,
        #: matching and contraction call (None = process default).
        self.backend = (
            backend if backend is not None else self.config.fm_config.backend
        )
        if self.config.clustering not in (
            "heavy_edge",
            "first_choice",
            "hyperedge",
        ):
            raise ValueError(
                f"unknown clustering scheme {self.config.clustering!r}"
            )
        #: Display name in experiment reports; override to label
        #: configurations distinctly.
        self.name = name if name is not None else self.config.describe()
        # Engines cached across partition() calls: their per-hypergraph
        # kernel scratch then persists across the starts of a multistart
        # run — every level of a pooled hierarchy hits warm scratch from
        # start 2 on.  Balance and RNG are rebound per call; the engine
        # reads both through ``self`` so rebinding is exact.
        self._refine_engine: Optional[FMEngine] = None
        self._init_engine: Optional[FMEngine] = None
        # Uncoarsening projection buffers, one per level size.
        self._proj_bufs: Dict[int, np.ndarray] = {}
        #: Optional perf sink: when set, every refine call's counters
        #: (and non-pooled coarsening work) accumulate into it.  The
        #: orchestrator points this at a per-trial collector so
        #: campaign reports can aggregate kernel work per heuristic.
        self.perf: Optional[PerfCounters] = None

    def _note_perf(self, result) -> None:
        """Fold one engine result's counters into the perf sink."""
        if self.perf is not None:
            counters = getattr(result, "perf", None)
            if counters is not None:
                self.perf.merge(counters)

    # ------------------------------------------------------------------
    def _engines(self, balance: BalanceConstraint, rng: random.Random):
        """The cached (initial, refine) engine pair, rebound to one start."""
        if self._refine_engine is None:
            cfg = self.config
            refine_cfg = replace(cfg.fm_config, max_passes=cfg.refine_passes)
            self._init_engine = FMEngine(
                balance, cfg.fm_config, rng, backend=self.backend
            )
            self._refine_engine = FMEngine(
                balance, refine_cfg, rng, backend=self.backend
            )
        else:
            self._init_engine.balance = balance
            self._init_engine.rng = rng
            self._refine_engine.balance = balance
            self._refine_engine.rng = rng
        return self._init_engine, self._refine_engine

    def _release(self, hg: Hypergraph) -> None:
        """Forget ``hg`` in both engines' scratch caches: a level this
        partitioner built and has projected through."""
        self._init_engine.release(hg)
        self._refine_engine.release(hg)

    def _project(self, level, assignment: np.ndarray) -> np.ndarray:
        """Lift ``assignment`` through one level into a reused buffer.

        The buffer is safe to reuse because :class:`Partition2` copies
        the assignment it is given.
        """
        n = level.fine.num_vertices
        buf = self._proj_bufs.get(n)
        if buf is None:
            buf = np.empty(n, dtype=np.int64)
            self._proj_bufs[n] = buf
        return level.project_assignment_into(assignment, buf)

    # ------------------------------------------------------------------
    def partition(
        self,
        hypergraph: Hypergraph,
        seed: int = 0,
        fixed_parts: Optional[Sequence[Optional[int]]] = None,
        hierarchy: Optional[Hierarchy] = None,
    ) -> PartitionResult:
        """One multilevel start (coarsen, initial, uncoarsen [+V-cycles]).

        When ``hierarchy`` is supplied (pooled multistart), coarsening
        is skipped and the per-start RNG drives only initial
        partitioning and refinement; the hierarchy must have been built
        for this hypergraph and the same fixed assignment, and it stays
        whole.  Without one, the start coarsens for itself and releases
        each level once uncoarsening has projected through it, so the
        finest levels are refined without the coarser ones alive.
        """
        start_time = time.perf_counter()
        rng = random.Random(seed)
        cfg = self.config
        balance = BalanceConstraint(hypergraph.total_vertex_weight, self.tolerance)
        fixed = list(fixed_parts) if fixed_parts else None

        built = hierarchy is None
        if built:
            hierarchy = build_hierarchy(
                hypergraph,
                cfg,
                rng,
                fixed_parts=fixed,
                perf=self.perf,
                backend=self.backend,
            )
        else:
            if hierarchy.hypergraph is not hypergraph:
                raise ValueError(
                    "hierarchy was built for a different hypergraph"
                )
            sig = tuple(fixed) if fixed is not None else None
            if sig != hierarchy.fixed_signature:
                raise ValueError(
                    "hierarchy was built under different fixed_parts"
                )
        levels = [(level, _fixed_mask(level_fixed))
                  for level, level_fixed in hierarchy.levels]
        init_engine, refine_engine = self._engines(balance, rng)
        assignment = self._initial_partition(
            hierarchy.coarsest, balance, rng, hierarchy.coarsest_fixed,
            init_engine,
        ).assignment
        # From here on ``levels`` is this start's only reference to a
        # hierarchy it built itself.
        hierarchy = None
        assignment = self._uncoarsen(levels, assignment, refine_engine,
                                     release=built)

        final = Partition2(hypergraph, assignment, _fixed_mask(fixed))
        for _ in range(cfg.vcycles):
            self._one_vcycle(final, balance, rng, refine_engine)

        return PartitionResult(
            assignment=final.assignment.tolist(),
            cut=final.cut,
            part_weights=list(final.part_weights),
            legal=balance.is_legal(final.part_weights),
            runtime_seconds=time.perf_counter() - start_time,
        )

    # ------------------------------------------------------------------
    def vcycle(
        self,
        hypergraph: Hypergraph,
        assignment: Sequence[int],
        seed: int = 0,
        rounds: int = 1,
        fixed_parts: Optional[Sequence[Optional[int]]] = None,
    ) -> PartitionResult:
        """Apply ``rounds`` V-cycles to an existing solution.

        This is the shmetis use model the paper evaluates: V-cycling is
        "invoked only for the best result of several starts", which is
        also why sampling-based ranking methods cannot be used
        (Section 3.2).  ``fixed_parts`` takes the form ``partition``
        takes; its fixed vertices, which ``assignment`` must already
        place on their sides, never move.
        """
        start_time = time.perf_counter()
        rng = random.Random(seed)
        balance = BalanceConstraint(hypergraph.total_vertex_weight, self.tolerance)
        _, refine_engine = self._engines(balance, rng)
        part = Partition2(hypergraph, assignment, _fixed_mask(fixed_parts))
        for _ in range(rounds):
            self._one_vcycle(part, balance, rng, refine_engine)
        return PartitionResult(
            assignment=part.assignment.tolist(),
            cut=part.cut,
            part_weights=list(part.part_weights),
            legal=balance.is_legal(part.part_weights),
            runtime_seconds=time.perf_counter() - start_time,
        )

    # ------------------------------------------------------------------
    def _initial_partition(
        self,
        coarsest: Hypergraph,
        balance: BalanceConstraint,
        rng: random.Random,
        fixed,
        engine: FMEngine,
    ) -> Partition2:
        cfg = self.config
        init_cfg = cfg.fm_config
        best: Optional[Partition2] = None
        for _ in range(max(1, cfg.initial_starts)):
            part = generate_initial(
                coarsest, balance, init_cfg.initial_solution, rng, fixed
            )
            self._note_perf(engine.refine(part))
            if best is None or part.cut < best.cut:
                best = part
        assert best is not None
        return best

    def _uncoarsen(
        self,
        levels: List[Tuple[CoarseLevel, Optional[np.ndarray]]],
        assignment: np.ndarray,
        engine: FMEngine,
        release: bool,
    ) -> np.ndarray:
        """Project ``assignment`` from the coarsest level back to the
        finest, refining with ``engine`` at every level; returns the
        finest level's assignment.

        ``levels`` holds ``(level, fine fixed mask or None)`` pairs,
        finest first, and is emptied from the end, so a level is gone
        from it once projected through.  ``release`` drops each coarse
        hypergraph from the engines' scratch caches; it is set for
        levels this partitioner built itself.
        """
        while levels:
            level, fixed = levels.pop()
            assignment = self._project(level, assignment)
            if release:
                self._release(level.coarse)
            fine, level = level.fine, None  # the coarser side is done
            fine_part = Partition2(fine, assignment, fixed)
            self._note_perf(engine.refine(fine_part))
            assignment = fine_part.assignment
        return assignment

    def _one_vcycle(
        self,
        part: Partition2,
        balance: BalanceConstraint,
        rng: random.Random,
        engine: FMEngine,
    ) -> None:
        """Restricted coarsening + refinement descent, in place.

        V-cycle coarsening depends on the current assignment, so it
        cannot come from the hierarchy pool; it still uses the kernel
        matching/contraction.
        """
        cfg = self.config
        levels: List[Tuple[CoarseLevel, Optional[np.ndarray]]] = []
        hg = part.hypergraph
        assignment = part.assignment
        fixed = part.fixed
        while hg.num_vertices > cfg.coarsest_size:
            cluster = restricted_matching(
                hg, assignment, rng, backend=self.backend
            )
            level = coarsen(hg, cluster, backend=self.backend)
            if level.coarse.num_vertices >= hg.num_vertices:
                break  # stall guard: no progress at all
            if (
                level.coarse.num_vertices
                > hg.num_vertices / cfg.min_reduction
            ):
                break
            # Restricted matching merges same-side vertices only, so
            # every member of a cluster writes the same side.
            cluster_of = level.cluster_of
            coarse_assignment = np.empty(
                level.coarse.num_vertices, dtype=np.int64
            )
            coarse_assignment[cluster_of] = assignment
            coarse_fixed = np.zeros(level.coarse.num_vertices, dtype=bool)
            coarse_fixed[cluster_of[fixed]] = True
            levels.append((level, fixed))
            hg = level.coarse
            assignment = coarse_assignment
            fixed = coarse_fixed

        coarse_part = Partition2(hg, assignment, fixed)
        self._note_perf(engine.refine(coarse_part))
        assignment = self._uncoarsen(levels, coarse_part.assignment, engine,
                                     release=True)

        # Write the improved assignment back into ``part``.
        improved = Partition2(part.hypergraph, assignment, part.fixed)
        if improved.cut <= part.cut:
            part.assignment = improved.assignment
            part.part_weights = improved.part_weights
            part.pins_in_part = improved.pins_in_part
            part.cut = improved.cut


def _fixed_mask(fixed_parts) -> Optional[np.ndarray]:
    """The fixed mask of a per-vertex side-or-``None`` list; ``None``
    when the list is missing or empty (nothing fixed)."""
    if not fixed_parts:
        return None
    return np.array([p is not None for p in fixed_parts], dtype=bool)

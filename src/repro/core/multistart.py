"""Independent multistart driver.

Most partitioning papers report (min cut / average cut) over N
independent starts — the reporting style Section 3.2 critiques but which
Tables 1-3 still use for comparability.  ``run_multistart`` produces the
per-start record stream that both that style and the richer BSF/Pareto
methodology of :mod:`repro.evaluation` consume.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Sequence

from repro.hypergraph.hypergraph import Hypergraph


class Bipartitioner(Protocol):
    """Anything with ``partition(hypergraph, seed, fixed_parts) -> result``
    returning an object with ``cut``, ``legal``, ``runtime_seconds`` and
    ``assignment`` attributes."""

    name: str

    def partition(self, hypergraph: Hypergraph, seed: int = 0, **kwargs): ...


@dataclass
class StartRecord:
    """One independent start: its cost, runtime and legality."""

    seed: int
    cut: float
    runtime_seconds: float
    legal: bool


@dataclass
class MultistartResult:
    """Aggregate of N independent starts of one heuristic on one instance."""

    heuristic: str
    instance: str
    starts: List[StartRecord] = field(default_factory=list)
    best_assignment: Optional[List[int]] = None

    @property
    def num_starts(self) -> int:
        return len(self.starts)

    def _require_starts(self) -> None:
        if not self.starts:
            raise ValueError(
                f"no starts recorded for {self.heuristic!r} on "
                f"{self.instance!r}; aggregate statistics are undefined"
            )

    @property
    def min_cut(self) -> float:
        """Best (minimum) cut over all starts."""
        self._require_starts()
        return min(s.cut for s in self.starts)

    @property
    def avg_cut(self) -> float:
        """Average cut over all starts."""
        self._require_starts()
        return sum(s.cut for s in self.starts) / len(self.starts)

    @property
    def total_runtime(self) -> float:
        return sum(s.runtime_seconds for s in self.starts)

    @property
    def avg_runtime(self) -> float:
        self._require_starts()
        return self.total_runtime / len(self.starts)

    def min_avg(self) -> str:
        """The paper's ``min/avg`` cell format (Tables 1-3)."""
        return f"{self.min_cut:g}/{self.avg_cut:.0f}"


def run_multistart(
    partitioner: Bipartitioner,
    hypergraph: Hypergraph,
    num_starts: int,
    instance_name: str = "",
    base_seed: int = 0,
    fixed_parts: Optional[Sequence[Optional[int]]] = None,
    pool=None,
) -> MultistartResult:
    """Run ``num_starts`` independent single-start trials.

    Start ``i`` uses seed ``base_seed + i`` so experiments are exactly
    reproducible and different heuristics see identical seed streams
    ("apples to apples", Section 2.3).  Given ``pool``, a
    :class:`~repro.multilevel.pool.HierarchyPool` built for
    ``hypergraph``, start ``i`` runs on ``pool.get(i)``, and a build
    counts toward that start's runtime.  ``fixed_parts`` and the
    hierarchy are passed to ``partition`` only when given.
    """
    if num_starts < 1:
        raise ValueError("num_starts must be >= 1")
    result = MultistartResult(
        heuristic=getattr(partitioner, "name", type(partitioner).__name__),
        instance=instance_name,
    )
    kwargs = {} if fixed_parts is None else {"fixed_parts": fixed_parts}
    best_cut = float("inf")
    for i in range(num_starts):
        seed = base_seed + i
        t0 = time.perf_counter()
        if pool is not None:
            kwargs["hierarchy"] = pool.get(i)
        out = partitioner.partition(hypergraph, seed=seed, **kwargs)
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

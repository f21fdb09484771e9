"""Non-dominated (cost, runtime) frontiers — Section 3.2's Pareto view.

The paper: performance point A is *dominated* by B iff B has both lower
cost and lower runtime ("no one would ever choose to run configuration A
over configuration B"); the non-dominated frontier of points from
multiple heuristics shows which heuristic is preferable in each runtime
regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

from repro.evaluation.records import TrialRecord, avg_cut, avg_runtime, group_by


@dataclass(frozen=True)
class PerfPoint:
    """One (solution cost, runtime) performance point with provenance."""

    cost: float
    time: float
    label: str = ""


def dominates(a: PerfPoint, b: PerfPoint) -> bool:
    """True iff ``a`` strictly dominates ``b`` (paper definition:
    strictly lower cost AND strictly lower runtime)."""
    return a.cost < b.cost and a.time < b.time


def non_dominated(points: Iterable[PerfPoint]) -> List[PerfPoint]:
    """The non-dominated frontier, sorted by increasing runtime.

    Points dominated by no other point survive.  Duplicate-coordinate
    points all survive (none strictly dominates another), matching the
    paper's strict-inequality definition.

    Sort-and-sweep, O(n log n): after a stable sort by (time, cost),
    only points with *strictly* smaller time can dominate, so one pass
    tracking the best cost among strictly-earlier time groups decides
    every point.  Output is identical — element for element, ties in
    original input order — to the quadratic scan it replaced (frozen in
    ``tests/oracles/_seed_eval.py``).
    """
    pts = sorted(points, key=lambda p: (p.time, p.cost))
    frontier: List[PerfPoint] = []
    best_cost_before = float("inf")  # best cost at strictly smaller time
    i = 0
    while i < len(pts):
        j = i
        while j < len(pts) and pts[j].time == pts[i].time:
            j += 1
        group_best = best_cost_before
        for p in pts[i:j]:
            # Strict-inequality dominance: survive unless someone
            # strictly earlier is strictly cheaper.
            if not best_cost_before < p.cost:
                frontier.append(p)
            if p.cost < group_best:
                group_best = p.cost
        best_cost_before = group_best
        i = j
    return frontier


def frontier_from_records(
    records: Sequence[TrialRecord],
    by: str = "heuristic",
) -> List[PerfPoint]:
    """Aggregate records into per-group (avg cut, avg runtime) points and
    return the non-dominated frontier.

    ``by`` may be any TrialRecord field (typically ``"heuristic"``);
    each group becomes one performance point labelled with its key.
    """
    points = [
        PerfPoint(cost=avg_cut(rs), time=avg_runtime(rs), label=str(key[0]))
        for key, rs in group_by(records, by).items()
    ]
    return non_dominated(points)


def best_for_budget(
    frontier: Sequence[PerfPoint], budget: float
) -> PerfPoint:
    """Cheapest-cost frontier point whose runtime fits within ``budget``.

    Raises ``ValueError`` when nothing on the frontier fits (the reader
    of a frontier diagram would conclude "no heuristic can run in this
    regime").
    """
    feasible = [p for p in frontier if p.time <= budget]
    if not feasible:
        raise ValueError(f"no frontier point fits budget {budget}")
    return min(feasible, key=lambda p: (p.cost, p.time))

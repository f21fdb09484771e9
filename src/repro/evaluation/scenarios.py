"""Scenario layer: k-way and terminal-propagation campaign workloads.

The paper's methodology is *fair comparison across scenarios*, yet a
campaign spec only knows heuristics that follow the 2-way bipartitioner
protocol.  This module closes the gap with a declarative
:class:`Scenario` (JSON-serializable, so service job specs can carry
it) and a :class:`ScenarioHeuristic` adapter that makes any scenario
look like a campaign heuristic:

* ``kind="kway"`` — partition into ``k`` parts by recursive bisection
  (``method="rb"``, any :mod:`repro.engines` ladder engine as the
  inner bipartitioner) or direct k-way FM (``method="direct"``),
  ranked by net cut or the hMetis connectivity ((lambda - 1))
  objective under the documented per-k balance model
  (:class:`~repro.core.kway.KWayBalance`);
* ``kind="terminal-propagation"`` — drive
  :class:`~repro.placement.topdown.TopDownPlacer` end to end (external
  pins of spanning nets become fixed dummy terminals in every
  sub-instance), ranked by half-perimeter wirelength.

The adapter funnels the scenario's objective value through the
record's ``cut`` field, so the whole reporting stack — BSF curves,
Pareto frontiers, speed-dependent rankings, significance tests — ranks
the declared objective without modification, and stamps ``k`` and
``objective`` on every trial record via the executor's payload.

Determinism contract: a scenario trial is a pure function of
``(scenario, instance, seed)`` — engines are built fresh per call from
the declarative fields, the placer seeds its private RNG from the trial
seed — so scenario campaigns inherit the orchestrator's guarantees
(records bit-identical serial vs pooled/batched/sticky,
journals resumable after a kill) with no extra machinery.  Adapters are
picklable (they hold only the frozen scenario), which is what lets the
pool and service fleets ship them in spawn payloads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.core.kway import KWayBalance, RecursiveBisection
from repro.core.kway_fm import KWayFM
from repro.engines import ENGINE_NAMES, make_engine
from repro.hypergraph.hypergraph import Hypergraph

SCENARIO_KINDS = ("kway", "terminal-propagation")
SCENARIO_OBJECTIVES = ("cut", "connectivity", "hpwl")
KWAY_METHODS = ("rb", "direct")


@dataclass(frozen=True)
class Scenario:
    """One declarative campaign workload.

    Fields beyond ``kind`` are interpreted per kind: ``k``/``method``
    apply to k-way scenarios (``objective`` is "cut" or
    "connectivity"); ``min_region_cells`` applies to
    terminal-propagation scenarios (whose objective is always "hpwl").
    ``engine`` names the inner 2-way bipartitioner from the ladder
    in both kinds; ``tolerance`` is the per-part balance tolerance
    (k-way) or the per-bisection tolerance (placement).  ``label``
    overrides the derived heuristic name.
    """

    kind: str
    k: int = 2
    objective: str = "cut"
    method: str = "rb"
    engine: str = "flat-lifo"
    tolerance: float = 0.1
    min_region_cells: int = 12
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(
                f"unknown scenario kind {self.kind!r}; "
                f"choose from {SCENARIO_KINDS}"
            )
        if self.engine not in ENGINE_NAMES:
            raise ValueError(
                f"unknown engine {self.engine!r}; choose from {ENGINE_NAMES}"
            )
        if not 0.0 < self.tolerance < 1.0:
            raise ValueError("tolerance must lie in (0, 1)")
        if self.kind == "kway":
            if self.k < 2:
                raise ValueError("k must be >= 2")
            if self.method not in KWAY_METHODS:
                raise ValueError(
                    f"unknown k-way method {self.method!r}; "
                    f"choose from {KWAY_METHODS}"
                )
            if self.objective not in ("cut", "connectivity"):
                raise ValueError(
                    "k-way scenarios rank 'cut' or 'connectivity', "
                    f"not {self.objective!r}"
                )
        else:
            if self.objective != "hpwl":
                raise ValueError(
                    "terminal-propagation scenarios rank 'hpwl', "
                    f"not {self.objective!r}"
                )
            if self.min_region_cells < 1:
                raise ValueError("min_region_cells must be >= 1")

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Heuristic name inside campaigns (journal lines, reports)."""
        if self.label:
            return self.label
        if self.kind == "kway":
            return f"{self.method}-k{self.k}-{self.objective}[{self.engine}]"
        return f"topdown-tp-hpwl[{self.engine}]"

    # -- wire format ----------------------------------------------------
    def to_json(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kind": self.kind,
            "objective": self.objective,
            "engine": self.engine,
            "tolerance": self.tolerance,
        }
        if self.kind == "kway":
            out["k"] = self.k
            out["method"] = self.method
        else:
            out["min_region_cells"] = self.min_region_cells
        if self.label:
            out["label"] = self.label
        return out

    @staticmethod
    def from_json(data: Dict[str, object]) -> "Scenario":
        kind = str(data["kind"])
        return Scenario(
            kind=kind,
            k=int(data.get("k", 2)),
            objective=str(
                data.get(
                    "objective",
                    "hpwl" if kind == "terminal-propagation" else "cut",
                )
            ),
            method=str(data.get("method", "rb")),
            engine=str(data.get("engine", "flat-lifo")),
            tolerance=float(data.get("tolerance", 0.1)),
            min_region_cells=int(data.get("min_region_cells", 12)),
            label=data.get("label"),
        )


@dataclass
class ScenarioResult:
    """Bipartitioner-protocol result of one scenario trial.

    ``cut`` is the scenario's *objective value* (net cut, (lambda - 1)
    or HPWL) — the field the executor journals and the reporting stack
    ranks.
    """

    cut: float
    assignment: List[int]
    legal: bool
    runtime_seconds: float


class ScenarioHeuristic:
    """Campaign-heuristic adapter around one :class:`Scenario`.

    Follows the bipartitioner protocol (``partition(hg, seed=...)`` →
    an object with ``cut`` / ``assignment`` / ``legal`` /
    ``runtime_seconds``) and exposes ``k`` and ``objective`` for the
    executor's record stamping.  It deliberately does *not* satisfy
    :func:`repro.multilevel.pool.supports_hierarchy` — a scenario trial
    owns its whole inner flow (many bisections, each on a different
    sub-instance), so sticky hierarchy pools have nothing to reuse and
    simply skip it.
    """

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.name = scenario.name
        self.k = scenario.k if scenario.kind == "kway" else 2
        self.objective = scenario.objective

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScenarioHeuristic({self.name})"

    # ------------------------------------------------------------------
    def partition(
        self,
        hypergraph: Hypergraph,
        seed: int = 0,
        fixed_parts: Optional[Sequence[Optional[int]]] = None,
    ) -> ScenarioResult:
        if fixed_parts is not None and any(
            p is not None for p in fixed_parts
        ):
            raise ValueError(
                "scenario heuristics define their own fixed vertices "
                "(terminal propagation); campaign-level fixed_parts are "
                "not supported"
            )
        sc = self.scenario
        t0 = time.perf_counter()
        if sc.kind == "kway":
            if sc.method == "direct":
                engine = KWayFM(
                    sc.k, tolerance=sc.tolerance, objective=sc.objective
                )
                res = engine.partition(hypergraph, seed=seed)
            else:
                rb = RecursiveBisection(
                    sc.k,
                    tolerance=sc.tolerance,
                    partitioner_factory=partial(make_engine, sc.engine),
                )
                res = rb.partition(hypergraph, seed=seed)
            value = (
                res.connectivity
                if sc.objective == "connectivity"
                else res.cut
            )
            return ScenarioResult(
                cut=value,
                assignment=list(res.assignment),
                legal=res.legal,
                runtime_seconds=time.perf_counter() - t0,
            )

        from repro.placement.topdown import TopDownPlacer

        placer = TopDownPlacer(
            partitioner=make_engine(sc.engine, sc.tolerance),
            min_region_cells=sc.min_region_cells,
            terminal_propagation=True,
            seed=seed,
        )
        placement = placer.place(hypergraph)
        # A 2-way assignment view of the placement (left vs right die
        # half) so multistart consumers that expect one still work.
        mid = placer.die_width / 2.0
        assignment = [
            0 if placement.positions[v][0] <= mid else 1
            for v in range(hypergraph.num_vertices)
        ]
        return ScenarioResult(
            cut=placement.hpwl(),
            assignment=assignment,
            legal=True,
            runtime_seconds=time.perf_counter() - t0,
        )


# ----------------------------------------------------------------------
def kway_axes(
    ks: Sequence[int] = (2, 4, 8),
    objective: str = "connectivity",
    method: str = "rb",
    engine: str = "flat-lifo",
    tolerance: float = 0.1,
) -> List[ScenarioHeuristic]:
    """Ready-to-race heuristics for a ``k`` axis sweep.

    One :class:`ScenarioHeuristic` per ``k``, all sharing the inner
    engine, objective and tolerance — drop the list straight into
    :class:`~repro.evaluation.campaign.CampaignSpec.heuristics` (or mix
    with 2-way engines) to compare partitioning depth apples to apples
    on the shared per-instance seed stream.
    """
    return [
        ScenarioHeuristic(
            Scenario(
                kind="kway",
                k=k,
                objective=objective,
                method=method,
                engine=engine,
                tolerance=tolerance,
            )
        )
        for k in ks
    ]


def balance_for(
    hypergraph: Hypergraph, scenario: Scenario
) -> KWayBalance:
    """The balance window a k-way scenario's results are judged by."""
    if scenario.kind != "kway":
        raise ValueError("balance_for applies to k-way scenarios")
    return KWayBalance(
        hypergraph.total_vertex_weight, scenario.k, scenario.tolerance
    )

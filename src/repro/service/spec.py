"""Job specifications: declarative, JSON-serializable campaign requests.

A :class:`~repro.evaluation.campaign.CampaignSpec` holds live Python
objects (hypergraphs, partitioner instances) — fine for a library call,
useless for a service where jobs arrive over HTTP, outlive the process
that submitted them, and must be reconstructible after a server restart.
:class:`JobSpec` is the data-only form: instances are declared as
*sources* (a file on disk, a synthetic-suite entry, a generator call),
heuristics as engine names from the ladder (:mod:`repro.engines`,
the names ``repro partition --engine`` takes), and every execution knob
as a plain field.  ``JobSpec.from_json(spec.to_json())`` round-trips
exactly, and building the same JobSpec twice yields campaigns with
identical trial plans — the property the service's resume-after-restart
path rests on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.engines import ENGINE_NAMES, make_engine
from repro.evaluation.campaign import CampaignSpec
from repro.evaluation.scenarios import Scenario, ScenarioHeuristic
from repro.hypergraph import read_netlist
from repro.hypergraph.hypergraph import Hypergraph


@dataclass(frozen=True)
class InstanceSource:
    """Where one campaign instance comes from.

    ``kind`` selects the loader:

    * ``"file"`` — ``path`` (hMetis ``.hgr`` or ISPD98 ``.netD`` with
      optional ``are``);
    * ``"suite"`` — synthetic suite entry ``suite`` at ``scale``;
    * ``"generate"`` — ``generate_circuit(cells, seed=seed)``.

    ``label`` is the instance name inside the campaign (journal lines,
    reports).  :meth:`cache_key` canonicalizes the identity fields so
    the cross-campaign :class:`~repro.service.cache.InstanceCache` can
    share one loaded copy between jobs.
    """

    kind: str
    label: str
    path: Optional[str] = None
    are: Optional[str] = None
    suite: Optional[str] = None
    scale: int = 16
    cells: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("file", "suite", "generate"):
            raise ValueError(f"unknown instance source kind {self.kind!r}")
        if not self.label:
            raise ValueError("instance source needs a label")
        if self.kind == "file" and not self.path:
            raise ValueError("file source needs a path")
        if self.kind == "suite" and not self.suite:
            raise ValueError("suite source needs a suite instance name")
        if self.kind == "generate" and self.cells < 1:
            raise ValueError("generate source needs cells >= 1")

    # ------------------------------------------------------------------
    def cache_key(self) -> str:
        """Canonical identity of the instance data (label excluded: two
        jobs may label the same netlist differently yet share one copy)."""
        if self.kind == "file":
            ident = {"kind": "file", "path": str(Path(self.path).resolve()),
                     "are": self.are}
        elif self.kind == "suite":
            ident = {"kind": "suite", "suite": self.suite, "scale": self.scale}
        else:
            ident = {"kind": "generate", "cells": self.cells,
                     "seed": self.seed}
        return json.dumps(ident, sort_keys=True, separators=(",", ":"))

    def load(self) -> Hypergraph:
        if self.kind == "file":
            return read_netlist(self.path, self.are)
        if self.kind == "suite":
            from repro.instances import suite_instance

            return suite_instance(self.suite, scale=self.scale)
        from repro.instances import generate_circuit

        return generate_circuit(self.cells, seed=self.seed)

    # -- wire format ----------------------------------------------------
    def to_json(self) -> Dict[str, object]:
        out: Dict[str, object] = {"kind": self.kind, "label": self.label}
        if self.kind == "file":
            out["path"] = self.path
            if self.are:
                out["are"] = self.are
        elif self.kind == "suite":
            out["suite"] = self.suite
            out["scale"] = self.scale
        else:
            out["cells"] = self.cells
            out["seed"] = self.seed
        return out

    @staticmethod
    def from_json(data: Dict[str, object]) -> "InstanceSource":
        return InstanceSource(
            kind=str(data["kind"]),
            label=str(data["label"]),
            path=data.get("path"),
            are=data.get("are"),
            suite=data.get("suite"),
            scale=int(data.get("scale", 16)),
            cells=int(data.get("cells", 0)),
            seed=int(data.get("seed", 0)),
        )


@dataclass(frozen=True)
class JobSpec:
    """One campaign request, entirely in data.

    The campaign axes (instances × engines × starts, seed stream,
    alpha) mirror :class:`CampaignSpec`; the service axes add a
    fair-share ``priority`` (trials per scheduling round relative to
    other jobs) and the per-job robustness knobs the campaign executor
    already honors (timeout, retries, sticky caches).
    """

    name: str
    instances: List[InstanceSource]
    engines: List[str] = field(default_factory=list)
    #: Declarative k-way / terminal-propagation workloads raced
    #: alongside (or instead of) the 2-way engine ladder; each becomes
    #: one campaign heuristic via :class:`ScenarioHeuristic`.
    scenarios: List[Scenario] = field(default_factory=list)
    num_starts: int = 10
    base_seed: int = 0
    tolerance: float = 0.02
    alpha: float = 0.05
    num_shuffles: int = 100
    priority: int = 1
    timeout_seconds: Optional[float] = None
    max_retries: int = 0
    sticky_cache: bool = False
    sticky_pool_size: int = 2
    #: Kernel backend for this job's trials (None = worker default).
    #: Backends are selectable only when bit-identical to numpy, so the
    #: choice never changes records — it is also emitted to the wire
    #: only when set, keeping pre-backend spec fingerprints stable.
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("job needs a name")
        if not self.instances:
            raise ValueError("job needs at least one instance source")
        labels = [src.label for src in self.instances]
        if len(set(labels)) != len(labels):
            raise ValueError("instance labels must be unique within a job")
        if not self.engines and not self.scenarios:
            raise ValueError("job needs at least one engine or scenario")
        if len(set(self.engines)) != len(self.engines):
            raise ValueError("engine list must not repeat entries")
        for engine in self.engines:
            if engine not in ENGINE_NAMES:
                raise ValueError(
                    f"unknown engine {engine!r}; choose from {ENGINE_NAMES}"
                )
        scenario_names = [s.name for s in self.scenarios]
        if len(set(scenario_names)) != len(scenario_names):
            raise ValueError("scenario names must be unique within a job")
        if self.num_starts < 1:
            raise ValueError("num_starts must be >= 1")
        if self.priority < 1:
            raise ValueError("priority must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive")
        if self.sticky_pool_size < 1:
            raise ValueError("sticky_pool_size must be >= 1")

    # ------------------------------------------------------------------
    def build_heuristics(self) -> List[object]:
        """The partitioners this job races: engine-ladder 2-way engines
        followed by scenario adapters, in declaration order."""
        heuristics: List[object] = [
            make_engine(name, self.tolerance) for name in self.engines
        ]
        heuristics.extend(ScenarioHeuristic(s) for s in self.scenarios)
        return heuristics

    def campaign_spec(
        self, instances: Dict[str, Hypergraph]
    ) -> CampaignSpec:
        """Assemble the executable campaign from already-loaded
        hypergraphs (``label -> Hypergraph``, normally taken from the
        service's :class:`~repro.service.cache.InstanceCache`)."""
        ordered = {src.label: instances[src.label] for src in self.instances}
        return CampaignSpec(
            name=self.name,
            heuristics=self.build_heuristics(),
            instances=ordered,
            num_starts=self.num_starts,
            base_seed=self.base_seed,
            alpha=self.alpha,
        )

    def fingerprint(self) -> str:
        """Stable short hash of the full wire form (used in job ids)."""
        blob = json.dumps(self.to_json(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:8]

    # -- wire format ----------------------------------------------------
    def to_json(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "instances": [src.to_json() for src in self.instances],
            "engines": list(self.engines),
            "num_starts": self.num_starts,
            "base_seed": self.base_seed,
            "tolerance": self.tolerance,
            "alpha": self.alpha,
            "num_shuffles": self.num_shuffles,
            "priority": self.priority,
            "timeout_seconds": self.timeout_seconds,
            "max_retries": self.max_retries,
            "sticky_cache": self.sticky_cache,
            "sticky_pool_size": self.sticky_pool_size,
        }
        if self.scenarios:
            # Emitted only when present so engine-only specs keep their
            # pre-scenario wire form (and therefore their fingerprints,
            # which job ids and resume-after-restart paths embed).
            out["scenarios"] = [s.to_json() for s in self.scenarios]
        if self.backend is not None:
            # Same fingerprint-stability contract as ``scenarios``.
            out["backend"] = self.backend
        return out

    @staticmethod
    def from_json(data: Dict[str, object]) -> "JobSpec":
        timeout = data.get("timeout_seconds")
        return JobSpec(
            name=str(data["name"]),
            instances=[
                InstanceSource.from_json(d) for d in data["instances"]
            ],
            engines=[str(e) for e in data.get("engines", [])],
            scenarios=[
                Scenario.from_json(d) for d in data.get("scenarios", [])
            ],
            num_starts=int(data.get("num_starts", 10)),
            base_seed=int(data.get("base_seed", 0)),
            tolerance=float(data.get("tolerance", 0.02)),
            alpha=float(data.get("alpha", 0.05)),
            num_shuffles=int(data.get("num_shuffles", 100)),
            priority=int(data.get("priority", 1)),
            timeout_seconds=None if timeout is None else float(timeout),
            max_retries=int(data.get("max_retries", 0)),
            sticky_cache=bool(data.get("sticky_cache", False)),
            sticky_pool_size=int(data.get("sticky_pool_size", 2)),
            backend=(
                None if data.get("backend") is None
                else str(data["backend"])
            ),
        )

"""Trial scheduler: expand a campaign spec into an explicit trial plan.

A campaign is heuristics × instances × independent starts.  The
orchestrator never iterates that cross product implicitly — it first
*expands* it into a flat, canonically ordered list of
:class:`TrialPlan` entries, each carrying its own seed.  That explicit
list is what makes the rest of the subsystem simple:

* **Determinism** — seeds are a pure function of the spec
  (``base_seed + start_index``, the same "apples to apples" stream
  :func:`repro.evaluation.runner.run_trials` uses), so any execution
  order (serial, 4 workers, resumed after a crash) produces the same
  per-trial results.
* **Resumability** — the journal records trial *indices*; resuming is
  a set difference against the plan, never a guess.
* **Integrity** — :func:`spec_fingerprint` hashes the logical content
  of the spec (heuristic names, instance shapes, seed stream) and
  :func:`run_fingerprint` what those names run (each heuristic's
  class, tolerance and canonical config, each instance's content), so
  a resume against a store created from a *different* spec, from a
  same-named heuristic configured differently, or on another sticky
  stream, is rejected (:func:`store_mismatch`).

The canonical order matches the serial runner exactly: instances in
declaration order, heuristics in declaration order, starts ascending.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.evaluation.campaign import CampaignSpec
    from repro.hypergraph.hypergraph import Hypergraph


@dataclass(frozen=True)
class TrialPlan:
    """One scheduled trial: position in the canonical order plus seed.

    ``start`` is the trial's start index *within its (heuristic,
    instance) multistart block* — redundant with the seed
    (``seed == base_seed + start``) but carried explicitly so executors
    can key shared per-block state (the sticky hierarchy caches) on a
    value that is identical no matter which worker runs the trial.
    """

    index: int  #: position in the canonical expansion (journal key)
    heuristic: str
    instance: str
    seed: int
    start: int = 0  #: start index within the multistart block


def expand_spec(spec: "CampaignSpec") -> List[TrialPlan]:
    """Expand a spec into its canonical trial list.

    Start ``i`` of every heuristic on a given instance uses seed
    ``spec.base_seed + i`` so all heuristics face identical randomness.
    """
    plan: List[TrialPlan] = []
    index = 0
    for instance_name in spec.instances:
        for partitioner in spec.heuristics:
            name = getattr(partitioner, "name", type(partitioner).__name__)
            for i in range(spec.num_starts):
                plan.append(
                    TrialPlan(
                        index=index,
                        heuristic=name,
                        instance=instance_name,
                        seed=spec.base_seed + i,
                        start=i,
                    )
                )
                index += 1
    return plan


def spec_fingerprint(spec: "CampaignSpec") -> str:
    """Stable hash of the spec's logical content.

    Covers everything that determines the trial stream: campaign name,
    heuristic names (in order), instance names and shapes (vertex, net
    and pin counts), start count and the seed stream origin.  It does
    *not* hash heuristic internals — two runs with the same fingerprint
    are only comparable if the code is the same, which is what the
    run-store's recorded package version is for.
    """
    instances: Dict[str, List[int]] = {
        name: [hg.num_vertices, hg.num_nets, hg.num_pins]
        for name, hg in spec.instances.items()
    }
    payload = {
        "name": spec.name,
        "heuristics": [
            getattr(h, "name", type(h).__name__) for h in spec.heuristics
        ],
        "instances": instances,
        "num_starts": spec.num_starts,
        "base_seed": spec.base_seed,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()[:16]


def _canonical(value: Any) -> Any:
    """``value`` as plain JSON data: enums by value, dataclasses field by
    field (``FMConfig`` through its ``as_dict``), ``backend`` left out
    everywhere because no backend changes a record."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        as_dict = getattr(value, "as_dict", None)
        fields = (as_dict() if callable(as_dict) else {
            f.name: getattr(value, f.name)
            for f in dataclasses.fields(value)
        })
        return {k: _canonical(v) for k, v in fields.items()
                if k != "backend"}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def heuristic_config(heuristic: object) -> Optional[Dict[str, Any]]:
    """What a campaign heuristic runs: its class, tolerance and
    canonical config (a scenario adapter's scenario, else ``config``).
    ``None`` for a heuristic with no dataclass config, such as a user's
    own class."""
    config = getattr(heuristic, "scenario", None)
    if config is None:
        config = getattr(heuristic, "config", None)
    if not dataclasses.is_dataclass(config) or isinstance(config, type):
        return None
    return {
        "class": type(heuristic).__qualname__,
        "tolerance": getattr(heuristic, "tolerance", None),
        "config": _canonical(config),
    }


def _instance_digest(hg: "Hypergraph") -> str:
    digest = hashlib.sha256(str(hg.num_vertices).encode("ascii"))
    net_ptr, net_pins, _, _ = hg.csr
    for values, dtype in ((net_ptr, np.int64), (net_pins, np.int64),
                          (hg.vertex_weight_array, np.float64),
                          (hg.net_weight_array, np.float64)):
        digest.update(np.ascontiguousarray(values, dtype=dtype))
    return digest.hexdigest()[:16]


def instance_digest(hg: "Hypergraph") -> str:
    """Content hash of an instance (cached on it): its vertex count,
    net-side CSR and weights, taken in int64/float64 whatever dtype the
    hypergraph stores them in.  The vertex side is derived from the net
    side, and names never reach a trial."""
    return hg.cached(_instance_digest)


def run_fingerprint(spec: "CampaignSpec") -> Optional[str]:
    """Stable hash of what the spec runs, beside :func:`spec_fingerprint`.

    Covers every heuristic's :func:`heuristic_config` (in order, with
    its name) and every instance's :func:`instance_digest`.  ``None``
    when a heuristic has no known config: such a campaign keeps the
    name-only check.
    """
    heuristics = []
    for h in spec.heuristics:
        config = heuristic_config(h)
        if config is None:
            return None
        heuristics.append(
            [getattr(h, "name", type(h).__name__), config]
        )
    payload = {
        "heuristics": heuristics,
        "instances": {
            name: instance_digest(hg) for name, hg in spec.instances.items()
        },
    }
    try:
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except TypeError:  # a config field that is not plain data
        return None
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def store_mismatch(
    meta: Mapping[str, Any], spec: "CampaignSpec", sticky_pools: int
) -> Optional[str]:
    """The meta key (``"spec_hash"``, ``"run_hash"`` or
    ``"sticky_pools"``) on which a store's ``meta.json`` disagrees with
    ``spec`` run on ``sticky_pools`` (the sticky pool size, or 0
    without sticky caches), or ``None`` when the spec may resume it.
    Sticky on, sticky off and each pool size are different record
    streams.  A store written without ``run_hash`` or ``sticky_pools``,
    or a spec whose run cannot be fingerprinted, is not held to that
    key."""
    if meta.get("spec_hash") != spec_fingerprint(spec):
        return "spec_hash"
    stored = meta.get("run_hash")
    if stored is not None:
        current = run_fingerprint(spec)
        if current is not None and current != stored:
            return "run_hash"
    stored = meta.get("sticky_pools")
    if stored is not None and stored != sticky_pools:
        return "sticky_pools"
    return None

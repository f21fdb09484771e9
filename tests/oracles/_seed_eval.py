"""Frozen pre-vectorization evaluation bootstrap — the test oracle.

This module preserves, verbatim, the pure-Python implementations of the
Section 3.2 bootstrap machinery (``c_tau_samples``,
``expected_bsf_curve``, ``probability_reaching``) and the quadratic
``non_dominated`` scan exactly as they existed before the vectorized
evaluation engine replaced them.  It exists for the same reason
:mod:`tests.oracles._seed_engine` and :mod:`tests.oracles._seed_coarsen`
do: the production kernels in :mod:`repro.evaluation.bsf` /
:mod:`repro.evaluation.pareto` must stay *bit-identical* to this
reference, and the equivalence suite (``tests/test_eval_equivalence.py``)
enforces that on every run.

The equivalence contract
------------------------
The production kernels take an integer ``seed`` instead of a live
``random.Random``; the contract is::

    kernel(records, ..., seed=s)  ==  oracle(records, ..., rng=random.Random(s))

element for element, float for float.  For multi-tau evaluations the
production engine restarts the shuffle stream from the derived seed at
every tau (common random numbers — see
:func:`repro.evaluation.bsf.eval_seed`), so each tau of a kernel curve
must match a *fresh-RNG single-tau* oracle call, never the old behavior
of threading one RNG across the tau loop (under which a tau's value
depended on which smaller taus were requested).

:func:`ranking_diagram_oracle` composes the frozen primitives under that
derived-seed contract; it is the reference for the vectorized
:func:`repro.evaluation.ranking.ranking_diagram`.

Do not "improve" this module.  It is a fixture.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.evaluation.records import TrialRecord, group_by


def c_tau_samples(
    records: Sequence[TrialRecord],
    tau: float,
    num_shuffles: int = 200,
    rng: Optional[random.Random] = None,
) -> List[float]:
    """Frozen bootstrap of ``c_tau`` (best cost achieved within ``tau``).

    Each sample shuffles the recorded starts into a random order and
    plays them until the budget ``tau`` is exhausted.  Orderings in
    which not even the first start finishes within ``tau`` contribute no
    sample.
    """
    if rng is None:
        rng = random.Random(0)
    pool = list(records)
    samples: List[float] = []
    for _ in range(num_shuffles):
        rng.shuffle(pool)
        elapsed = 0.0
        best: Optional[float] = None
        for r in pool:
            elapsed += r.runtime_seconds
            if elapsed > tau:
                break
            if best is None or r.cut < best:
                best = r.cut
        if best is not None:
            samples.append(best)
    return samples


def expected_bsf_curve(
    records: Sequence[TrialRecord],
    taus: Sequence[float],
    num_shuffles: int = 200,
    rng: Optional[random.Random] = None,
) -> List[Tuple[float, Optional[float]]]:
    """Frozen expected BSF curve: ``[(tau, mean c_tau or None)]``.

    Note the frozen behavior deliberately preserved here: one ``rng``
    advances across the tau loop, so the entry at a given tau depends on
    the taus before it.  The production engine does **not** reproduce
    this coupling — its per-tau entries match single-tau calls of this
    oracle with a fresh RNG (see the module docstring).
    """
    if rng is None:
        rng = random.Random(0)
    curve: List[Tuple[float, Optional[float]]] = []
    for tau in taus:
        samples = c_tau_samples(records, tau, num_shuffles, rng)
        curve.append((tau, sum(samples) / len(samples) if samples else None))
    return curve


def probability_reaching(
    records: Sequence[TrialRecord],
    tau: float,
    target_cost: float,
    num_shuffles: int = 200,
    rng: Optional[random.Random] = None,
) -> float:
    """Frozen estimate of ``P(c_tau <= target_cost)``.  Orderings with
    undefined c_tau count as failures."""
    if rng is None:
        rng = random.Random(0)
    pool = list(records)
    hits = 0
    for _ in range(num_shuffles):
        rng.shuffle(pool)
        elapsed = 0.0
        reached = False
        for r in pool:
            elapsed += r.runtime_seconds
            if elapsed > tau:
                break
            if r.cut <= target_cost:
                reached = True
                break
        if reached:
            hits += 1
    return hits / num_shuffles


def non_dominated(points: Iterable) -> List:
    """Frozen quadratic non-dominated frontier (paper definition:
    strict inequality on both coordinates), sorted by (time, cost)."""

    def dominates(a, b) -> bool:
        return a.cost < b.cost and a.time < b.time

    pts = list(points)
    frontier = [
        p
        for p in pts
        if not any(dominates(q, p) for q in pts)
    ]
    frontier.sort(key=lambda p: (p.time, p.cost))
    return frontier


def ranking_diagram_oracle(
    records: Sequence[TrialRecord],
    taus: Sequence[float],
    num_shuffles: int = 200,
    base_seed: int = 0,
) -> Dict[str, List[Optional[float]]]:
    """The frozen bootstrap composed under the derived-seed contract.

    For every heuristic and every tau, runs the frozen
    :func:`c_tau_samples` with a *fresh* ``random.Random`` seeded by
    :func:`repro.evaluation.bsf.eval_seed` — the exact semantics the
    vectorized :func:`repro.evaluation.ranking.ranking_diagram` must
    reproduce bit-for-bit.  Returns ``{heuristic: [mean c_tau per tau]}``.
    """
    from repro.evaluation.bsf import eval_seed

    mean_ctau: Dict[str, List[Optional[float]]] = {}
    for (name,), rs in group_by(records, "heuristic").items():
        seed = eval_seed(base_seed, name)
        means: List[Optional[float]] = []
        for tau in taus:
            samples = c_tau_samples(rs, tau, num_shuffles, random.Random(seed))
            means.append(sum(samples) / len(samples) if samples else None)
        mean_ctau[name] = means
    return mean_ctau

"""Experiment runner: heuristics x instances x independent starts.

Ensures "apples to apples" comparisons (Section 2.3): every heuristic
sees the same instances and the same seed stream, and all trials are
recorded individually so any reporting style can be derived later.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.multistart import Bipartitioner, run_multistart
from repro.evaluation.records import TrialRecord
from repro.hypergraph.hypergraph import Hypergraph


def run_trials(
    partitioners: Iterable[Bipartitioner],
    instances: Dict[str, Hypergraph],
    num_starts: int,
    base_seed: int = 0,
    fixed_parts: Optional[Dict[str, Sequence[Optional[int]]]] = None,
) -> List[TrialRecord]:
    """Run ``num_starts`` independent starts of every heuristic on every
    instance; return the flat list of per-trial records.

    Start ``i`` of every heuristic on a given instance uses seed
    ``base_seed + i`` so heuristics face identical randomness.
    """
    if num_starts < 1:
        raise ValueError("num_starts must be >= 1")
    records: List[TrialRecord] = []
    for instance_name, hypergraph in instances.items():
        fp = fixed_parts.get(instance_name) if fixed_parts else None
        for partitioner in partitioners:
            ms = run_multistart(
                partitioner, hypergraph, num_starts,
                instance_name=instance_name, base_seed=base_seed,
                fixed_parts=fp,
            )
            records.extend(
                TrialRecord(ms.heuristic, instance_name, start.seed,
                            start.cut, start.runtime_seconds, start.legal)
                for start in ms.starts
            )
    return records


#: Seed-block stride between configurations of
#: :func:`run_configuration_evaluation`.  Each configuration ``s``
#: draws seeds from its own block ``[base_seed + s * stride, ...)``, so
#: a configuration's results never depend on which other configurations
#: ran before it.  One repetition consumes ``s + 1`` seeds (``s``
#: starts plus one V-cycle seed), so the stride bounds
#: ``repetitions * (s + 1)`` — a million covers any realistic protocol.
CONFIGURATION_SEED_STRIDE = 1_000_000


def configuration_seed(
    base_seed: int, num_starts: int, repetition: int, start: int
) -> int:
    """Seed for start ``start`` of repetition ``repetition`` in the
    ``num_starts``-start configuration.  ``start == num_starts`` is the
    V-cycle seed of that repetition.  Pure function of its arguments —
    this is what makes each configuration independently reproducible.
    """
    return (
        base_seed
        + num_starts * CONFIGURATION_SEED_STRIDE
        + repetition * (num_starts + 1)
        + start
    )


def run_configuration_evaluation(
    make_partitioner,
    hypergraph: Hypergraph,
    instance_name: str,
    start_counts: Sequence[int],
    repetitions: int,
    base_seed: int = 0,
    vcycle=None,
) -> Dict[int, Dict[str, float]]:
    """The paper's hMetis-1.5 evaluation protocol (Tables 4-5).

    For each configuration (= number of independent starts ``s`` in
    ``start_counts``), execute the whole multistart bundle
    ``repetitions`` times; each bundle keeps its best result and, when
    ``vcycle`` is given, applies ``vcycle(hypergraph, best_assignment,
    seed)`` to it (shmetis V-cycles the best of its starts).  Returns
    ``{s: {"avg_best_cut": ..., "avg_cpu_seconds": ...}}`` — the
    ``cut/time`` cells of Tables 4 and 5.  Each bundle is one
    :func:`~repro.core.multistart.run_multistart` call on a partitioner
    from ``make_partitioner()``.

    Seeding is explicit per configuration: every configuration ``s``
    draws from its own seed block via :func:`configuration_seed`, so
    running ``start_counts=[8]`` reproduces exactly the ``s=8`` cells
    of a ``start_counts=[1, 2, 4, 8]`` run — results are independent of
    the configuration list's order and contents.
    """
    out: Dict[int, Dict[str, float]] = {}
    for s in start_counts:
        best_cuts: List[float] = []
        cpu_times: List[float] = []
        for rep in range(repetitions):
            t0 = time.perf_counter()
            # A repetition's start seeds are one contiguous block.
            ms = run_multistart(
                make_partitioner(), hypergraph, s,
                instance_name=instance_name,
                base_seed=configuration_seed(base_seed, s, rep, 0),
            )
            best_cut = ms.min_cut
            if vcycle is not None:
                vseed = configuration_seed(base_seed, s, rep, s)
                improved = vcycle(hypergraph, ms.best_assignment, vseed)
                if improved.cut < best_cut:
                    best_cut = improved.cut
            cpu_times.append(time.perf_counter() - t0)
            best_cuts.append(best_cut)
        out[s] = {
            "avg_best_cut": sum(best_cuts) / len(best_cuts),
            "avg_cpu_seconds": sum(cpu_times) / len(cpu_times),
            "instance": instance_name,
        }
    return out

"""Experimentation and reporting methodology (paper Sections 2.3 & 3.2).

This package is the reproduction of the paper's actual contribution: a
principled way to run and report metaheuristic experiments —

* :func:`run_trials` / :func:`run_configuration_evaluation` — recorded,
  seed-controlled experiment execution;
* :mod:`~repro.evaluation.bsf` — best-so-far curves and c_tau
  distributions (Barr et al.);
* :mod:`~repro.evaluation.pareto` — non-dominated (cost, time) frontiers;
* :mod:`~repro.evaluation.ranking` — speed-dependent ranking diagrams
  (Schreiber-Martin);
* :mod:`~repro.evaluation.stats_tests` — significance testing (Brglez);
* :mod:`~repro.evaluation.cpu_norm` — cross-machine CPU normalization
  (paper footnote 9);
* :mod:`~repro.evaluation.reporting` — the paper's table formats;
* :mod:`~repro.evaluation.scenarios` — k-way and terminal-propagation
  campaign workloads behind the bipartitioner protocol;
* :mod:`~repro.evaluation.streaming` — live reports tailed from a
  running campaign's journal (import the submodule directly; it reaches
  into :mod:`repro.orchestrate` and is kept out of this namespace to
  avoid an import cycle).

The vectorized kernels are verified bit-identical against the frozen
pure-Python bootstrap in ``tests/oracles/_seed_eval.py``.
"""

from repro.evaluation.bsf import (
    BootstrapKernel,
    BSFPoint,
    KernelCache,
    bsf_trajectory,
    c_tau_samples,
    default_tau_grid,
    eval_seed,
    expected_bsf_curve,
    probability_reaching,
    shuffle_matrix,
)
from repro.evaluation.campaign import (
    CampaignResult,
    CampaignSpec,
    run_campaign,
)
from repro.evaluation.cpu_norm import (
    CpuNormalizer,
    calibration_factor,
    reference_workload,
)
from repro.evaluation.pareto import (
    PerfPoint,
    best_for_budget,
    dominates,
    frontier_from_records,
    non_dominated,
)
from repro.evaluation.ranking import RankingDiagram, ranking_diagram
from repro.evaluation.records import (
    TrialRecord,
    avg_cut,
    avg_runtime,
    group_by,
    load_records,
    min_cut,
    save_records,
)
from repro.evaluation.reporting import (
    ascii_table,
    comparison_table,
    configuration_table,
    cut_time_cell,
    min_avg_cell,
    summary_by_heuristic,
    table1_grid,
)
from repro.evaluation.runner import (
    configuration_seed,
    run_configuration_evaluation,
    run_trials,
)
from repro.evaluation.scenarios import (
    Scenario,
    ScenarioHeuristic,
    ScenarioResult,
    balance_for,
    kway_axes,
)
from repro.evaluation.stats_tests import (
    ComparisonResult,
    mann_whitney,
    paired_wilcoxon,
    permutation_test,
    signed_rank_p,
)

__all__ = [
    "BSFPoint",
    "BootstrapKernel",
    "CampaignResult",
    "CampaignSpec",
    "ComparisonResult",
    "CpuNormalizer",
    "KernelCache",
    "PerfPoint",
    "RankingDiagram",
    "Scenario",
    "ScenarioHeuristic",
    "ScenarioResult",
    "TrialRecord",
    "ascii_table",
    "balance_for",
    "avg_cut",
    "avg_runtime",
    "best_for_budget",
    "bsf_trajectory",
    "c_tau_samples",
    "calibration_factor",
    "comparison_table",
    "configuration_seed",
    "configuration_table",
    "cut_time_cell",
    "default_tau_grid",
    "dominates",
    "eval_seed",
    "expected_bsf_curve",
    "frontier_from_records",
    "group_by",
    "kway_axes",
    "load_records",
    "mann_whitney",
    "min_avg_cell",
    "min_cut",
    "non_dominated",
    "paired_wilcoxon",
    "permutation_test",
    "probability_reaching",
    "ranking_diagram",
    "reference_workload",
    "run_campaign",
    "run_configuration_evaluation",
    "run_trials",
    "save_records",
    "shuffle_matrix",
    "signed_rank_p",
    "summary_by_heuristic",
    "table1_grid",
]

"""Experiment campaigns: declarative spec -> run -> persist -> report.

A *campaign* bundles the paper's whole reporting discipline behind one
object: declare heuristics, instances and start counts; run with
controlled seed streams; persist every trial record; and render a
complete report — traditional min/avg table, per-instance non-dominated
frontier, speed-dependent ranking, and a pairwise significance matrix.

This is the "webpage with the full distributions" the paper says any
flexible presentation medium should contain, reduced to a text artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.core.multistart import Bipartitioner
from repro.evaluation.bsf import KernelCache
from repro.evaluation.pareto import frontier_from_records
from repro.evaluation.ranking import ranking_diagram
from repro.evaluation.records import TrialRecord, save_records
from repro.evaluation.reporting import ascii_table, summary_by_heuristic
from repro.evaluation.stats_tests import paired_wilcoxon
from repro.hypergraph.hypergraph import Hypergraph


@dataclass
class CampaignSpec:
    """Declarative description of an experiment campaign."""

    name: str
    heuristics: Sequence[Bipartitioner]
    instances: Dict[str, Hypergraph]
    num_starts: int = 10
    base_seed: int = 0
    alpha: float = 0.05  #: significance level for the pairwise matrix

    def __post_init__(self) -> None:
        if self.num_starts < 1:
            raise ValueError("num_starts must be >= 1")
        if not self.heuristics:
            raise ValueError("campaign needs at least one heuristic")
        if not self.instances:
            raise ValueError("campaign needs at least one instance")
        names = [getattr(h, "name", "") for h in self.heuristics]
        if len(set(names)) != len(names):
            raise ValueError("heuristic names must be unique")


@dataclass
class CampaignResult:
    """All trial records of a campaign plus rendering helpers."""

    spec_name: str
    records: List[TrialRecord] = field(default_factory=list)
    alpha: float = 0.05

    # ------------------------------------------------------------------
    def heuristic_names(self) -> List[str]:
        return sorted({r.heuristic for r in self.records})

    def instance_names(self) -> List[str]:
        return sorted({r.instance for r in self.records})

    def significance_matrix(self) -> str:
        """Pairwise Wilcoxon matrix: ``<`` row significantly better,
        ``>`` worse, ``~`` indistinguishable at the campaign's alpha."""
        names = self.heuristic_names()
        rows = []
        for a in names:
            row = [a]
            for b in names:
                if a == b:
                    row.append(".")
                    continue
                try:
                    test = paired_wilcoxon(self.records, a, b, self.alpha)
                except ValueError:
                    row.append("?")
                    continue
                better = test.better
                row.append("~" if better is None else "<" if better == a else ">")
            rows.append(row)
        return ascii_table([""] + names, rows)

    def report(
        self,
        num_shuffles: int = 100,
        base_seed: int = 0,
        ranking_caches: Optional[Dict[str, KernelCache]] = None,
    ) -> str:
        """Render the complete campaign report.

        The ranking bootstrap derives an independent shuffle stream per
        (heuristic, tau) from ``base_seed`` — the report for a given
        record set and seed is reproducible and per-heuristic stable.
        ``ranking_caches`` (one :class:`KernelCache` per instance,
        created on demand) lets a live report reuse bootstrap kernels
        across refreshes; output is identical with or without it.
        """
        lines = [f"Campaign: {self.spec_name}", "=" * 72, ""]
        lines.append("Traditional multistart table")
        lines.append("-" * 40)
        lines.append(summary_by_heuristic(self.records))

        for inst in self.instance_names():
            inst_records = [r for r in self.records if r.instance == inst]
            lines += ["", f"Non-dominated frontier — {inst}", "-" * 40]
            for p in frontier_from_records(inst_records):
                lines.append(
                    f"  {p.label:32s} cost={p.cost:9.1f}  time={p.time:.4f}s"
                )
            lines += ["", f"Speed-dependent ranking — {inst}", "-" * 40]
            cache = None
            if ranking_caches is not None:
                cache = ranking_caches.setdefault(inst, KernelCache())
            diagram = ranking_diagram(
                inst_records,
                num_shuffles=num_shuffles,
                base_seed=base_seed,
                cache=cache,
            )
            lines.append(diagram.render())

        lines += [
            "",
            f"Pairwise significance (Wilcoxon, alpha={self.alpha:g}; "
            "'<' = row better)",
            "-" * 40,
            self.significance_matrix(),
        ]
        return "\n".join(lines)

    def save(
        self, directory: Union[str, Path], num_shuffles: int = 100
    ) -> Path:
        """Persist records (JSONL) and the rendered report; returns the
        campaign directory.

        ``num_shuffles`` is forwarded to :meth:`report` (and the alpha
        baked into this result is used throughout) so the saved report
        is identical to the interactively rendered one.
        """
        out = Path(directory) / self.spec_name
        out.mkdir(parents=True, exist_ok=True)
        save_records(self.records, out / "records.jsonl")
        (out / "report.txt").write_text(
            self.report(num_shuffles=num_shuffles), encoding="utf-8"
        )
        return out


def run_campaign(
    spec: CampaignSpec,
    fixed_parts: Optional[Dict[str, Sequence[Optional[int]]]] = None,
    **options,
) -> CampaignResult:
    """Execute a campaign spec and return its result.

    Execution is routed through
    :func:`repro.orchestrate.orchestrate_campaign`, which takes every
    keyword in ``options``: ``workers`` to parallelize across processes
    (records stay identical to a serial run), ``store_dir`` to journal
    every trial for crash-safe ``resume``, ``timeout_seconds`` /
    ``max_retries`` to contain misbehaving trials as error records
    instead of aborting the campaign, and the dispatch knobs
    (``batch_size``, ``sticky_cache``, ``sticky_pool_size``, ``backend``)
    that change where the time goes but no record.  The serial
    in-memory default is exactly the old behavior of
    :func:`repro.evaluation.runner.run_trials`.
    """
    from repro.orchestrate import orchestrate_campaign

    return orchestrate_campaign(spec, fixed_parts=fixed_parts, **options)

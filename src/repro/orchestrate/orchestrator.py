"""Campaign orchestration: spec -> plan -> (parallel) execution -> store.

The top-level entry point is :func:`orchestrate_campaign`: give it a
:class:`~repro.evaluation.campaign.CampaignSpec` and optionally a store
directory, a worker count, a per-trial timeout and a retry budget, and
it returns the same :class:`~repro.evaluation.campaign.CampaignResult`
the serial runner produced — except the execution was parallel,
journaled trial-by-trial, and resumable.

Guarantees:

* ``workers=N`` produces records identical to ``workers=1`` (same
  seeds, same cuts) — seeds come from the plan, results are merged in
  canonical plan order.
* With a store, a killed run resumes with ``resume=True`` and reruns
  **zero** already-journaled trials; a resume against a store built
  from a different spec, from same-named heuristics or instances that
  run differently, or on another sticky stream, fails fast on the spec
  and run fingerprints and the recorded sticky pool size.
* Trial failures and timeouts become journaled error outcomes; the
  campaign always runs to completion.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.core.perf import PerfCounters
from repro.evaluation.campaign import CampaignResult, CampaignSpec
from repro.orchestrate.events import ProgressEvent
from repro.orchestrate.executor import ExecutionPolicy, execute_trials
from repro.orchestrate.plan import (
    expand_spec,
    run_fingerprint,
    spec_fingerprint,
    store_mismatch,
)
from repro.orchestrate.store import RunStore, TrialOutcome, machine_info

ProgressCallback = Callable[[ProgressEvent], None]

STORE_FORMAT_VERSION = 1


def build_meta(
    spec: CampaignSpec,
    total_trials: int,
    cli: Optional[Dict[str, object]] = None,
    sticky_pools: Optional[int] = None,
) -> Dict[str, object]:
    """Run metadata written to ``meta.json`` at campaign start.
    ``sticky_pools`` names the record stream: the sticky pool size, or
    0 without sticky caches."""
    meta: Dict[str, object] = {
        "format_version": STORE_FORMAT_VERSION,
        "name": spec.name,
        "spec_hash": spec_fingerprint(spec),
        "total_trials": total_trials,
        "num_starts": spec.num_starts,
        "base_seed": spec.base_seed,
        "alpha": spec.alpha,
        "heuristics": [
            getattr(h, "name", type(h).__name__) for h in spec.heuristics
        ],
        "instances": sorted(spec.instances),
        "machine": machine_info(),
    }
    run_hash = run_fingerprint(spec)
    if run_hash is not None:
        meta["run_hash"] = run_hash
    if sticky_pools is not None:
        meta["sticky_pools"] = sticky_pools
    if cli is not None:
        meta["cli"] = cli  # enough to rebuild the spec for `campaign resume`
    return meta


def open_store(
    store: RunStore,
    spec: CampaignSpec,
    total_trials: int,
    sticky_cache: bool,
    sticky_pool_size: int,
    cli: Optional[Dict[str, object]] = None,
    resume: bool = True,
) -> List[TrialOutcome]:
    """Open ``store`` for ``spec`` and return its journaled outcomes.

    A new store gets its ``meta.json``.  An existing one must have been
    written for the same spec, run and sticky stream
    (:func:`~repro.orchestrate.plan.store_mismatch`), and unless
    ``resume`` it may hold no journaled trial yet.
    """
    sticky_pools = sticky_pool_size if sticky_cache else 0
    if store.exists():
        mismatch = store_mismatch(store.load_meta(), spec, sticky_pools)
        if mismatch is not None:
            raise ValueError(
                f"store at {store.directory} was created for another "
                f"campaign or record stream ({mismatch} mismatch); "
                "refusing to mix trial streams"
            )
    else:
        store.initialize(build_meta(spec, total_trials, cli=cli,
                                    sticky_pools=sticky_pools))
    outcomes = store.outcomes()
    if outcomes and not resume:
        raise ValueError(
            f"store at {store.directory} already has journaled "
            "trials; pass resume=True (or `repro campaign "
            "resume`) to continue it"
        )
    return outcomes


class Orchestrator:
    """Stateful driver for one campaign execution (or resumption)."""

    def __init__(
        self,
        spec: CampaignSpec,
        store: Optional[RunStore] = None,
        policy: Optional[ExecutionPolicy] = None,
        fixed_parts: Optional[Dict[str, Sequence[Optional[int]]]] = None,
        progress: Optional[ProgressCallback] = None,
        cli_meta: Optional[Dict[str, object]] = None,
    ):
        self.spec = spec
        self.store = store
        self.policy = policy or ExecutionPolicy()
        self.fixed_parts = fixed_parts
        self.progress = progress
        self.cli_meta = cli_meta
        self.plan = expand_spec(spec)
        self.errors: List[TrialOutcome] = []
        self.executed = 0  #: trials actually run in this invocation
        #: Kernel event counters summed over this invocation's trials,
        #: keyed by heuristic name (the count fields are deterministic,
        #: so pool totals equal serial totals).  With a store these are
        #: also folded into the campaign-cumulative ``perf.json``.
        self.perf_by_heuristic: Dict[str, PerfCounters] = {}

    # ------------------------------------------------------------------
    def run(self, resume: bool = False) -> CampaignResult:
        """Execute (or finish) the campaign and return its result."""
        prior: List[TrialOutcome] = []
        if self.store is not None:
            prior = open_store(
                self.store,
                self.spec,
                len(self.plan),
                sticky_cache=self.policy.sticky_cache,
                sticky_pool_size=self.policy.sticky_pool_size,
                cli=self.cli_meta,
                resume=resume,
            )
        done_ids = {o.trial for o in prior}
        pending = [p for p in self.plan if p.index not in done_ids]

        heuristics = {
            getattr(h, "name", type(h).__name__): h
            for h in self.spec.heuristics
        }

        total = len(self.plan)
        counters = {
            "done": len(prior),
            "ok": sum(1 for o in prior if o.ok),
            "errors": sum(1 for o in prior if not o.ok),
        }
        best: Dict[str, float] = {}
        for o in prior:
            if o.ok and (o.instance not in best or o.cut < best[o.instance]):
                best[o.instance] = o.cut
        t_start = time.monotonic()

        def on_outcome(
            outcome: TrialOutcome, busy: int, num_workers: int
        ) -> None:
            if self.store is not None:
                self.store.append(outcome)
            self.executed += 1
            counters["done"] += 1
            if outcome.ok:
                counters["ok"] += 1
                inst = outcome.instance
                if inst not in best or outcome.cut < best[inst]:
                    best[inst] = outcome.cut
            else:
                counters["errors"] += 1
            if self.progress is None:
                return
            elapsed = time.monotonic() - t_start
            eta = None
            if self.executed and counters["done"] < total:
                per_trial = elapsed / self.executed
                eta = per_trial * (total - counters["done"])
            self.progress(
                ProgressEvent(
                    done=counters["done"],
                    total=total,
                    ok=counters["ok"],
                    errors=counters["errors"],
                    elapsed_seconds=elapsed,
                    eta_seconds=eta,
                    best_by_instance=dict(best),
                    busy_workers=busy,
                    num_workers=num_workers,
                    last=outcome,
                )
            )

        session = execute_trials(
            pending,
            heuristics,
            dict(self.spec.instances),
            fixed_parts=self.fixed_parts,
            policy=self.policy,
            on_outcome=on_outcome,
            perf_totals=self.perf_by_heuristic,
        )

        if self.store is not None:
            self.store.merge_perf(self.perf_by_heuristic)
            # Canonical view: whatever the journal holds, plan-ordered.
            records = self.store.records()
            self.errors = self.store.errors()
        else:
            merged = sorted(prior + session, key=lambda o: o.trial)
            records = [o.to_record() for o in merged if o.ok]
            self.errors = [o for o in merged if not o.ok]
        return CampaignResult(
            spec_name=self.spec.name, records=records, alpha=self.spec.alpha
        )


# ----------------------------------------------------------------------
def orchestrate_campaign(
    spec: CampaignSpec,
    store_dir: Optional[Union[str, Path]] = None,
    workers: int = 1,
    timeout_seconds: Optional[float] = None,
    max_retries: int = 0,
    batch_size: Optional[int] = None,
    sticky_cache: bool = False,
    sticky_pool_size: int = 2,
    backend: Optional[str] = None,
    fixed_parts: Optional[Dict[str, Sequence[Optional[int]]]] = None,
    progress: Optional[ProgressCallback] = None,
    resume: bool = False,
    cli_meta: Optional[Dict[str, object]] = None,
) -> CampaignResult:
    """One-call campaign execution.

    ``store_dir`` is the *parent* directory; the journal lives in
    ``store_dir/<spec.name>/`` (matching ``CampaignResult.save``).
    Without a store the campaign runs purely in memory (no resume).
    The dispatch knobs (``batch_size`` .. ``sticky_pool_size`` and
    ``backend``) map onto
    :class:`~repro.orchestrate.executor.ExecutionPolicy` and never
    change results — only where the time goes.
    """
    store = RunStore(Path(store_dir) / spec.name) if store_dir else None
    orchestrator = Orchestrator(
        spec,
        store=store,
        policy=ExecutionPolicy(
            workers=workers,
            timeout_seconds=timeout_seconds,
            max_retries=max_retries,
            batch_size=batch_size,
            sticky_cache=sticky_cache,
            sticky_pool_size=sticky_pool_size,
            backend=backend,
        ),
        fixed_parts=fixed_parts,
        progress=progress,
        cli_meta=cli_meta,
    )
    return orchestrator.run(resume=resume)

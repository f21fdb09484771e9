"""Parallel, crash-safe campaign orchestration.

Turns a declarative :class:`~repro.evaluation.campaign.CampaignSpec`
into a deterministic, parallel, resumable execution:

* :mod:`~repro.orchestrate.plan` — explicit trial expansion with
  per-trial seeds and a spec fingerprint;
* :mod:`~repro.orchestrate.store` — append-only JSONL journal + run
  metadata, fsynced per trial, crash-tolerant on load;
* :mod:`~repro.orchestrate.executor` — inline execution or the
  package's one worker pool (shared with the campaign service), with
  per-trial timeouts and bounded retries, instances shipped inside each
  job's once-pickled payload, adaptively batched dispatch and sticky
  per-worker hierarchy caches;
* :mod:`~repro.orchestrate.events` — structured progress events and a
  CLI progress printer;
* :mod:`~repro.orchestrate.orchestrator` — the driver gluing the
  above into ``orchestrate_campaign``.

Parallel runs are byte-identical to serial ones (same seeds, same
cuts, canonical record order); killed runs resume without rerunning
journaled trials.
"""

from repro.orchestrate.events import ProgressEvent, ProgressPrinter
from repro.orchestrate.executor import ExecutionPolicy, execute_trials
from repro.orchestrate.orchestrator import (
    Orchestrator,
    build_meta,
    orchestrate_campaign,
)
from repro.orchestrate.plan import TrialPlan, expand_spec, spec_fingerprint
from repro.orchestrate.store import (
    RunStore,
    StoreStatus,
    TrialOutcome,
    machine_info,
    parse_journal_line,
)

__all__ = [
    "ExecutionPolicy",
    "Orchestrator",
    "ProgressEvent",
    "ProgressPrinter",
    "RunStore",
    "StoreStatus",
    "TrialOutcome",
    "TrialPlan",
    "build_meta",
    "execute_trials",
    "expand_spec",
    "machine_info",
    "orchestrate_campaign",
    "parse_journal_line",
    "spec_fingerprint",
]

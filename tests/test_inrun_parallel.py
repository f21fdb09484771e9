"""Parallel multistart after the in-run plane.

The package once had a third process pool, inside a single partition
run: chunked-proposal coarsening plus a multistart fan-out.  Serial
coarsening was faster at every measured size, and the fan-out duplicated
the campaign pool, so that plane is gone.  Parallel multistart now runs
as a campaign on the one worker pool (``orchestrate_campaign(...,
workers=N, sticky_cache=True)``, or ``repro campaign run --workers N
--sticky-cache``).

This module keeps the old plane's determinism and self-healing matrix
and points it at that route.  Every leg holds the same contract: the
records are bit-identical to the serial multistart loops at every
worker count, in every execution context (standalone multistart,
campaign executor, service scheduler), with fixed vertices, and across
the death of a worker in the middle of a run.
"""

import json
import time
from collections import deque

import pytest

from repro.core.multistart import run_multistart
from repro.core.perf import PerfCounters
from repro.evaluation.campaign import CampaignSpec, run_campaign
from repro.instances import generate_circuit
from repro.multilevel import HierarchyPool, MLConfig, MLPartitioner
from repro.orchestrate import orchestrate_campaign
from repro.orchestrate.store import RunStore
from tests.test_orchestrate import DyingPartitioner

SCHEMES = ("heavy_edge", "first_choice", "hyperedge")


@pytest.fixture(scope="module")
def hg():
    return generate_circuit(260, seed=11)


@pytest.fixture(scope="module")
def fixed(hg):
    """A sparse fixed-vertex assignment (every 13th vertex pinned)."""
    parts = [None] * hg.num_vertices
    for v in range(0, hg.num_vertices, 13):
        parts[v] = (v // 13) % 2
    return parts


def start_key(ms):
    return [(s.seed, s.cut, s.legal) for s in ms.starts]


def record_key(records):
    return [(r.seed, r.cut, r.legal) for r in records]


def outcome_key(outcomes):
    return [
        (o.trial, o.status, o.heuristic, o.instance, o.seed, o.cut, o.legal)
        for o in outcomes
    ]


def ml(scheme="heavy_edge"):
    return MLPartitioner(MLConfig(clustering=scheme), tolerance=0.1, name="m")


def pooled_multistart(engine, hg, num_starts, base_seed, pool_size,
                      fixed_parts=None):
    """The serial reference: ``run_multistart`` on a hierarchy pool."""
    pool = HierarchyPool(hg, engine.config, pool_size, base_seed=base_seed,
                         fixed_parts=fixed_parts)
    return run_multistart(engine, hg, num_starts, instance_name="g",
                          base_seed=base_seed, fixed_parts=fixed_parts,
                          pool=pool)


def campaign(hg, heuristic, num_starts, base_seed=0, name="c"):
    return CampaignSpec(
        name=name,
        heuristics=[heuristic],
        instances={"g": hg},
        num_starts=num_starts,
        base_seed=base_seed,
    )


# ----------------------------------------------------------------------
class TestHierarchyDeterminism:
    """Sticky hierarchies built inside pool workers serve every start
    exactly as a pooled ``run_multistart``'s do."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("workers", (2, 4))
    @pytest.mark.parametrize("use_fixed", (False, True))
    def test_parallel_equals_serial(
        self, hg, fixed, scheme, workers, use_fixed
    ):
        parts = fixed if use_fixed else None
        serial = pooled_multistart(
            ml(scheme), hg, 6, base_seed=3, pool_size=2, fixed_parts=parts
        )
        parallel = orchestrate_campaign(
            campaign(hg, ml(scheme), 6, base_seed=3),
            workers=workers, sticky_cache=True, sticky_pool_size=2,
            fixed_parts={"g": parts} if use_fixed else None,
        )
        assert record_key(parallel.records) == start_key(serial)

    def test_perf_counts_equal_serial(self, hg, tmp_path):
        """Every count field a pool campaign writes to ``perf.json``
        equals the standalone partitioner's counts for the same starts
        (without sticky caches each trial coarsens for itself)."""
        standalone = PerfCounters()
        engine = ml()
        engine.perf = standalone
        for seed in range(4):
            engine.partition(hg, seed=seed)
        orchestrate_campaign(
            campaign(hg, ml(), 4), store_dir=tmp_path, workers=2
        )
        pooled = RunStore(tmp_path / "c").load_perf()["m"]
        for name in PerfCounters.COUNT_FIELDS:
            assert getattr(pooled, name) == getattr(standalone, name), name


# ----------------------------------------------------------------------
class TestStandaloneMatrix:
    """The standalone multistart loops against the pool at every worker
    count."""

    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_multistart_records_identical(self, hg, workers):
        serial = pooled_multistart(ml(), hg, 6, base_seed=3, pool_size=2)
        result = run_campaign(
            campaign(hg, ml(), 6, base_seed=3), workers=workers,
            sticky_cache=True, sticky_pool_size=2,
        )
        assert record_key(result.records) == start_key(serial)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_mlpartitioner_knob(self, hg, scheme):
        """Without sticky caches the pool reproduces a plain
        ``MLPartitioner.partition`` loop, start for start."""
        engine = ml(scheme)
        ref = [engine.partition(hg, seed=seed) for seed in range(4)]
        result = run_campaign(campaign(hg, ml(scheme), 4), workers=2)
        assert record_key(result.records) == [
            (seed, r.cut, r.legal) for seed, r in enumerate(ref)
        ]

    def test_fixed_vertices_through_fanout(self, hg, fixed):
        serial = pooled_multistart(
            ml(), hg, 4, base_seed=0, pool_size=1, fixed_parts=fixed
        )
        for v, side in enumerate(fixed):
            if side is not None:
                assert serial.best_assignment[v] == side
        result = run_campaign(
            campaign(hg, ml(), 4), {"g": fixed}, workers=2,
            sticky_cache=True, sticky_pool_size=1,
        )
        assert record_key(result.records) == start_key(serial)


# ----------------------------------------------------------------------
class TestCampaignExecutorMatrix:
    """The campaign executor: the pool at 1, 2 and 4 workers equals the
    inline loop (a timeout puts even one worker on the pool)."""

    @pytest.mark.parametrize("inrun", (1, 2, 4))
    def test_inline_executor_records_identical(self, hg, inrun):
        from repro.orchestrate.executor import ExecutionPolicy, execute_trials
        from repro.orchestrate.plan import TrialPlan

        trials = [
            TrialPlan(index=i, heuristic="ml", instance="g", seed=i, start=i)
            for i in range(5)
        ]
        heuristics = {"ml": ml()}
        serial = execute_trials(
            trials, heuristics, {"g": hg},
            policy=ExecutionPolicy(sticky_cache=True, sticky_pool_size=2),
        )
        pooled = execute_trials(
            trials, heuristics, {"g": hg},
            policy=ExecutionPolicy(
                workers=inrun, timeout_seconds=120.0,
                sticky_cache=True, sticky_pool_size=2,
            ),
        )
        assert outcome_key(pooled) == outcome_key(serial)


# ----------------------------------------------------------------------
@pytest.mark.service
class TestServiceSchedulerMatrix:
    """A sticky service job journals the same records as a standalone
    serial campaign, and job specs written when the plane existed
    still load."""

    def test_job_records_identical_to_standalone(self, tmp_path):
        from repro.orchestrate.executor import PendingTrial, build_payload
        from repro.orchestrate.plan import expand_spec
        from repro.service import (
            JOB_DONE,
            FairShareScheduler,
            InstanceSource,
            JobSpec,
            ServiceJob,
        )

        spec = JobSpec(
            name="sticky-job",
            instances=[
                InstanceSource(
                    kind="generate", label="gen", cells=40, seed=3
                )
            ],
            engines=["ml-clip"],
            num_starts=3,
            num_shuffles=10,
            sticky_cache=True,
        )
        instances = {src.label: src.load() for src in spec.instances}
        campaign_spec = spec.campaign_spec(instances)
        plan = expand_spec(campaign_spec)

        # Reference: the same spec through the serial orchestrator.
        orchestrate_campaign(
            campaign_spec, store_dir=tmp_path / "standalone", workers=1,
            sticky_cache=True,
        )
        ref = RunStore(tmp_path / "standalone" / spec.name).outcomes()

        heuristics = {
            getattr(h, "name", type(h).__name__): h
            for h in campaign_spec.heuristics
        }
        store = RunStore(tmp_path / "job")
        store.initialize({"name": spec.name, "total_trials": len(plan),
                          "alpha": spec.alpha})
        job = ServiceJob(
            job_id="j0",
            store=store,
            total=len(plan),
            payload_blob=build_payload(
                heuristics, instances,
                sticky_cache=True,
                sticky_pool_size=spec.sticky_pool_size,
            ),
            pending=deque(PendingTrial(p) for p in plan),
            priority=spec.priority,
        )
        scheduler = FairShareScheduler(workers=2)
        scheduler.start()
        try:
            scheduler.submit(job)
            deadline = time.monotonic() + 90.0
            while time.monotonic() < deadline and job.status != JOB_DONE:
                time.sleep(0.05)
        finally:
            scheduler.stop()
        assert job.status == JOB_DONE
        assert outcome_key(store.outcomes()) == outcome_key(ref)

    def test_jobspec_inrun_round_trips(self):
        """A spec carrying the removed ``inrun_workers`` field (as a
        ``job.json`` written before the plane went away does) loads,
        and its wire form drops the field."""
        from repro.service import InstanceSource, JobSpec

        spec = JobSpec(
            name="rt",
            instances=[
                InstanceSource(kind="generate", label="g", cells=10)
            ],
            engines=["flat-lifo"],
        )
        old = dict(spec.to_json(), inrun_workers=3)
        again = JobSpec.from_json(json.loads(json.dumps(old)))
        assert again == spec
        assert "inrun_workers" not in again.to_json()


# ----------------------------------------------------------------------
class TestSelfHealing:
    """A worker that dies mid-run must be invisible in the records: the
    pool replaces it, charges the trial it was running one attempt and
    dispatches the rest of its batch again."""

    def test_kill_mid_fanout_records_identical(self, hg, tmp_path):
        serial = pooled_multistart(ml(), hg, 8, base_seed=1, pool_size=2)
        dying = DyingPartitioner(tmp_path, ml(), die_at_seed=5, name="m")
        result = run_campaign(
            campaign(hg, dying, 8, base_seed=1), workers=2, batch_size=4,
            max_retries=1, sticky_cache=True, sticky_pool_size=2,
            store_dir=tmp_path,
        )
        # The kill actually landed...
        assert (tmp_path / "died-5").exists()
        attempts = {o.seed: o.attempts for o in RunStore(
            tmp_path / "c").outcomes()}
        assert attempts[5] == 2
        # ...and the healed stream is still bit-identical.
        assert record_key(result.records) == start_key(serial)

    def test_kill_mid_resume_journal_identical(self, hg, tmp_path):
        """A half-journaled campaign resumed on the pool, with one
        worker dying mid-resume, finishes with a journal
        record-identical to the uninterrupted campaign's."""
        from repro.orchestrate.orchestrator import build_meta
        from repro.orchestrate.plan import expand_spec

        run_campaign(
            campaign(hg, ml(), 6, name="ref"), store_dir=tmp_path,
            sticky_cache=True,
        )
        ref = RunStore(tmp_path / "ref").outcomes()

        # Seed a half-journaled store for the same trial stream (the
        # spec differs only in name, so the outcome records carry over).
        dying = DyingPartitioner(tmp_path, ml(), die_at_seed=4, name="m")
        killed = campaign(hg, dying, 6, name="killed")
        half = RunStore(tmp_path / "killed")
        half.initialize(build_meta(killed, len(expand_spec(killed))))
        for o in ref[: len(ref) // 2]:
            half.append(o)

        run_campaign(
            killed, store_dir=tmp_path, workers=2, max_retries=1,
            sticky_cache=True, resume=True,
        )
        assert (tmp_path / "died-4").exists()
        assert outcome_key(half.outcomes()) == outcome_key(ref)

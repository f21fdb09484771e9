"""In-run parallelism: chunked-proposal coarsening + multistart fan-out.

The contract under test (:mod:`repro.multilevel.parallel`): splitting
one partition run across in-run worker processes changes wall-clock
only — the coarsening hierarchies, the per-start record stream and the
best assignment are **bit-identical** to the serial engine at every
worker count, in every execution context (standalone partitioner,
campaign executor, service scheduler), with fixed vertices, and across
mid-run worker loss (the pool self-heals deterministically).
"""

import random
import threading
import time
from collections import deque

import pytest

from repro.core.perf import PerfCounters
from repro.instances import generate_circuit
from repro.multilevel import (
    MLConfig,
    MLPartitioner,
    build_hierarchy,
    clamp_inrun_workers,
    close_inrun_pools,
    get_inrun_pool,
    run_multistart_pooled,
)
from repro.multilevel.parallel import InRunPool, run_starts_pooled

pytestmark = pytest.mark.inrun

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


@pytest.fixture(scope="module", autouse=True)
def _drain_pools():
    """The in-run pool registry is process-global; close what the
    module spawned so later test files start clean."""
    yield
    close_inrun_pools()


def start_key(ms):
    return [(s.seed, s.cut, s.legal) for s in ms.starts]


def hierarchy_key(h):
    levels = [
        (level.cluster_of.tolist(), level.coarse.num_vertices,
         level.coarse.num_nets)
        for level, _ in h.levels
    ]
    return (levels, h.coarsest.num_vertices, h.coarsest.num_nets)


# ----------------------------------------------------------------------
class TestClamp:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            clamp_inrun_workers(0)

    def test_identity_when_alone(self):
        assert clamp_inrun_workers(4) == 4
        assert clamp_inrun_workers(1) == 1

    def test_fair_share_against_trial_workers(self):
        # W trial workers x I in-run workers never exceeds the fleet.
        assert clamp_inrun_workers(4, trial_workers=2, fleet=4) == 2
        assert clamp_inrun_workers(8, trial_workers=4, fleet=4) == 1
        assert clamp_inrun_workers(3, trial_workers=1, fleet=2) == 2
        assert clamp_inrun_workers(2, trial_workers=8, fleet=4) == 1

    def test_daemonic_process_clamps_to_one(self, monkeypatch):
        import repro.multilevel.parallel as par

        class FakeProc:
            daemon = True

        monkeypatch.setattr(par.mp, "current_process", lambda: FakeProc())
        assert clamp_inrun_workers(4) == 1

    def test_pool_refuses_daemonic_construction(self, monkeypatch):
        import repro.multilevel.parallel as par

        class FakeProc:
            daemon = True

        monkeypatch.setattr(par.mp, "current_process", lambda: FakeProc())
        with pytest.raises(RuntimeError):
            InRunPool(2)


# ----------------------------------------------------------------------
class TestHierarchyDeterminism:
    """Matrix leg (a): parallel chunked-proposal coarsening equals the
    serial epoch-stamped workspace kernels for the same seed."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("workers", (2, 4))
    @pytest.mark.parametrize("use_fixed", (False, True))
    def test_parallel_equals_serial(
        self, hg, fixed, scheme, workers, use_fixed
    ):
        cfg = MLConfig(clustering=scheme)
        parts = fixed if use_fixed else None
        serial = build_hierarchy(
            hg, cfg, random.Random(42), fixed_parts=parts
        )
        parallel = build_hierarchy(
            hg, cfg, random.Random(42), fixed_parts=parts,
            inrun_workers=workers,
        )
        assert hierarchy_key(parallel) == hierarchy_key(serial)

    def test_perf_counts_equal_serial(self, hg):
        """Timing fields differ; every *count* field must be exactly
        the serial kernel's (the merge replays the same selection)."""
        cfg = MLConfig()
        ps, pp = PerfCounters(), PerfCounters()
        build_hierarchy(hg, cfg, random.Random(9), perf=ps)
        build_hierarchy(hg, cfg, random.Random(9), perf=pp, inrun_workers=2)
        for name in PerfCounters.COUNT_FIELDS:
            assert getattr(pp, name) == getattr(ps, name), name
        assert pp.inrun_proposal_seconds > 0.0
        assert pp.inrun_merge_seconds > 0.0


# ----------------------------------------------------------------------
class TestStandaloneMatrix:
    """Matrix leg (b): the standalone drivers at every worker count."""

    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_multistart_records_identical(self, hg, workers):
        engine_s = MLPartitioner(MLConfig(), tolerance=0.1, name="m")
        serial = run_multistart_pooled(
            engine_s, hg, 6, instance_name="g", base_seed=3, pool_size=2
        )
        engine_p = MLPartitioner(MLConfig(), tolerance=0.1, name="m")
        parallel = run_multistart_pooled(
            engine_p, hg, 6, instance_name="g", base_seed=3, pool_size=2,
            workers=workers,
        )
        assert start_key(parallel) == start_key(serial)
        assert parallel.best_assignment == serial.best_assignment

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_mlpartitioner_knob(self, hg, scheme):
        cfg = MLConfig(clustering=scheme)
        ref = MLPartitioner(cfg, tolerance=0.1).partition(hg, seed=5)
        got = MLPartitioner(cfg, tolerance=0.1, inrun_workers=2).partition(
            hg, seed=5
        )
        assert got.cut == ref.cut
        assert got.assignment == ref.assignment
        assert got.legal == ref.legal

    def test_fixed_vertices_through_fanout(self, hg, fixed):
        engine_s = MLPartitioner(MLConfig(), tolerance=0.1, name="m")
        serial = run_multistart_pooled(
            engine_s, hg, 4, instance_name="g", base_seed=0,
            pool_size=1, fixed_parts=fixed,
        )
        engine_p = MLPartitioner(MLConfig(), tolerance=0.1, name="m")
        parallel = run_multistart_pooled(
            engine_p, hg, 4, instance_name="g", base_seed=0,
            pool_size=1, fixed_parts=fixed, workers=2,
        )
        assert start_key(parallel) == start_key(serial)
        assert parallel.best_assignment == serial.best_assignment
        for v, side in enumerate(fixed):
            if side is not None:
                assert parallel.best_assignment[v] == side

    def test_config_knob_round_trips(self):
        assert MLConfig(inrun_workers=3).inrun_workers == 3
        with pytest.raises(ValueError):
            MLPartitioner(MLConfig(), inrun_workers=0)


# ----------------------------------------------------------------------
class TestCampaignExecutorMatrix:
    """Matrix leg (c): the campaign executor with in-run workers on."""

    def _trials(self, n):
        from repro.orchestrate.plan import TrialPlan

        return [
            TrialPlan(index=i, heuristic="ml", instance="g", seed=i, start=i)
            for i in range(n)
        ]

    def _outcome_key(self, outcomes):
        return [
            (o.trial, o.status, o.heuristic, o.instance, o.seed, o.cut,
             o.legal)
            for o in outcomes
        ]

    @pytest.mark.parametrize("inrun", (1, 2, 4))
    def test_inline_executor_records_identical(self, hg, inrun):
        from repro.orchestrate.executor import ExecutionPolicy, execute_trials

        trials = self._trials(5)
        heuristics = {
            "ml": MLPartitioner(MLConfig(), tolerance=0.1, name="ml")
        }
        serial = execute_trials(
            trials, heuristics, {"g": hg},
            policy=ExecutionPolicy(sticky_cache=True, sticky_pool_size=2),
        )
        parallel = execute_trials(
            trials, heuristics, {"g": hg},
            policy=ExecutionPolicy(
                sticky_cache=True, sticky_pool_size=2, inrun_workers=inrun
            ),
        )
        assert self._outcome_key(parallel) == self._outcome_key(serial)

    def test_policy_clamps_against_trial_workers(self):
        from repro.orchestrate.executor import ExecutionPolicy

        assert ExecutionPolicy(inrun_workers=4).inrun_effective == 4
        assert ExecutionPolicy(
            workers=4, inrun_workers=4
        ).inrun_effective == 1
        with pytest.raises(ValueError):
            ExecutionPolicy(inrun_workers=0)

    def test_campaign_perf_json_carries_inrun_timings(self, hg, tmp_path):
        """Satellite: the parallel-stage timing fields flow into the
        campaign-cumulative ``perf.json``, and the count fields stay
        exactly equal to a serial campaign's."""
        from repro.evaluation.campaign import CampaignSpec, run_campaign
        from repro.orchestrate.store import RunStore

        def spec(name):
            return CampaignSpec(
                name=name,
                heuristics=[
                    MLPartitioner(MLConfig(), tolerance=0.1, name="ml")
                ],
                instances={"g": hg},
                num_starts=4,
            )

        run_campaign(
            spec("serial"), store_dir=tmp_path, sticky_cache=True
        )
        run_campaign(
            spec("inrun"), store_dir=tmp_path, sticky_cache=True,
            inrun_workers=2,
        )
        serial = RunStore(tmp_path / "serial").load_perf()["ml"]
        inrun = RunStore(tmp_path / "inrun").load_perf()["ml"]
        for name in PerfCounters.COUNT_FIELDS:
            assert getattr(inrun, name) == getattr(serial, name), name
        assert inrun.inrun_proposal_seconds > 0.0
        assert inrun.inrun_merge_seconds > 0.0


# ----------------------------------------------------------------------
@pytest.mark.service
class TestServiceSchedulerMatrix:
    """Matrix leg (d): a service job asking for in-run workers journals
    the same records as a standalone serial run (the daemonic fleet
    clamps to 1, and bit-identity makes the clamp invisible)."""

    def test_job_records_identical_to_standalone(self, tmp_path):
        from repro.hypergraph.shm import ShmHandle
        from repro.orchestrate import orchestrate_campaign
        from repro.orchestrate.executor import (
            PendingTrial,
            build_payload,
        )
        from repro.orchestrate.plan import expand_spec
        from repro.orchestrate.store import RunStore
        from repro.service import (
            JOB_DONE,
            FairShareScheduler,
            InstanceSource,
            JobSpec,
            ServiceJob,
        )

        spec = JobSpec(
            name="inrun-job",
            instances=[
                InstanceSource(
                    kind="generate", label="gen", cells=40, seed=3
                )
            ],
            engines=["ml-clip"],
            num_starts=3,
            num_shuffles=10,
            sticky_cache=True,
            inrun_workers=4,
        )
        instances = {src.label: src.load() for src in spec.instances}
        campaign = spec.campaign_spec(instances)
        plan = expand_spec(campaign)

        # Reference: the same spec through the serial orchestrator.
        orchestrate_campaign(
            campaign, store_dir=tmp_path / "standalone", workers=1
        )
        ref = RunStore(tmp_path / "standalone" / spec.name).outcomes()

        heuristics = {
            getattr(h, "name", type(h).__name__): h
            for h in campaign.heuristics
        }
        handles = {
            label: ShmHandle(segment=None, fallback=g)
            for label, g in instances.items()
        }
        store = RunStore(tmp_path / "job")
        store.initialize({"name": spec.name, "total_trials": len(plan),
                          "alpha": spec.alpha})
        fleet = 2
        job = ServiceJob(
            job_id="j0",
            store=store,
            total=len(plan),
            payload_blob=build_payload(
                heuristics, handles,
                sticky_cache=True,
                sticky_pool_size=spec.sticky_pool_size,
                inrun_workers=clamp_inrun_workers(
                    spec.inrun_workers, trial_workers=fleet, fleet=fleet
                ),
            ),
            pending=deque(PendingTrial(p) for p in plan),
            priority=spec.priority,
        )
        scheduler = FairShareScheduler(workers=fleet)
        scheduler.start()
        try:
            scheduler.submit(job)
            deadline = time.monotonic() + 90.0
            while time.monotonic() < deadline and job.status != JOB_DONE:
                time.sleep(0.05)
        finally:
            scheduler.stop()
        assert job.status == JOB_DONE

        def key(outcomes):
            return [
                (o.trial, o.status, o.heuristic, o.instance, o.seed,
                 o.cut, o.legal)
                for o in outcomes
            ]

        assert key(store.outcomes()) == key(ref)

    def test_jobspec_inrun_round_trips(self):
        import json

        from repro.service import InstanceSource, JobSpec

        spec = JobSpec(
            name="rt",
            instances=[
                InstanceSource(kind="generate", label="g", cells=10)
            ],
            engines=["flat-lifo"],
            inrun_workers=3,
        )
        again = JobSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert again.inrun_workers == 3
        with pytest.raises(ValueError):
            JobSpec(
                name="bad",
                instances=[
                    InstanceSource(kind="generate", label="g", cells=10)
                ],
                engines=["flat-lifo"],
                inrun_workers=0,
            )


# ----------------------------------------------------------------------
class TestSelfHealing:
    """Killing an in-run worker mid-run must be invisible in the
    records: the pool respawns it, replays its context and re-dispatches
    its outstanding tasks."""

    def test_kill_mid_fanout_records_identical(self, hg):
        engine_s = MLPartitioner(MLConfig(), tolerance=0.1, name="m")
        serial = run_multistart_pooled(
            engine_s, hg, 8, instance_name="g", base_seed=1, pool_size=2
        )

        pool = InRunPool(2)
        try:
            victim = pool._workers[0].process
            killer = threading.Thread(
                target=lambda: (time.sleep(0.05), victim.terminate())
            )
            killer.start()
            engine_p = MLPartitioner(MLConfig(), tolerance=0.1, name="m")
            parallel = run_starts_pooled(
                pool, engine_p, hg, 8, instance_name="g", base_seed=1,
                pool_size=2,
            )
            killer.join()
            # The kill actually landed on a live pool worker...
            assert not victim.is_alive()
            # ...and the healed stream is still bit-identical.
            assert start_key(parallel) == start_key(serial)
            assert parallel.best_assignment == serial.best_assignment
        finally:
            pool.close()

    def test_kill_mid_resume_journal_identical(self, hg, tmp_path):
        """A partially-journaled campaign resumed with in-run workers,
        with one in-run worker killed mid-resume, finishes with a
        journal record-identical to the serial campaign's."""
        from repro.evaluation.campaign import CampaignSpec, run_campaign
        from repro.orchestrate.store import RunStore

        def spec(name):
            return CampaignSpec(
                name=name,
                heuristics=[
                    MLPartitioner(MLConfig(), tolerance=0.1, name="ml")
                ],
                instances={"g": hg},
                num_starts=6,
            )

        run_campaign(spec("ref"), store_dir=tmp_path, sticky_cache=True)
        ref_store = RunStore(tmp_path / "ref")

        def key(outcomes):
            return [
                (o.trial, o.status, o.heuristic, o.instance, o.seed,
                 o.cut, o.legal)
                for o in outcomes
            ]

        # Seed a half-journaled store for the same trial stream (the
        # spec differs only in name, so the outcome records carry over).
        from repro.orchestrate.orchestrator import build_meta
        from repro.orchestrate.plan import expand_spec

        killed_spec = spec("killed")
        half = RunStore(tmp_path / "killed")
        half.initialize(
            build_meta(killed_spec, len(expand_spec(killed_spec)))
        )
        outcomes = ref_store.outcomes()
        for o in outcomes[: len(outcomes) // 2]:
            half.append(o)

        # Resume with in-run workers; kill one mid-resume.
        pool = get_inrun_pool(2)
        victim = pool._workers[0].process
        killer = threading.Thread(
            target=lambda: (time.sleep(0.05), victim.terminate())
        )
        killer.start()
        run_campaign(
            spec("killed"), store_dir=tmp_path, sticky_cache=True,
            inrun_workers=2, resume=True,
        )
        killer.join()
        assert not victim.is_alive()
        assert key(half.outcomes()) == key(ref_store.outcomes())

"""Campaign service: spec/cache units and fair-share scheduler behavior.

The load-bearing property throughout: a job's journal depends only on
its own spec — whatever else the shared fleet is running, however the
deficit-round-robin interleaves batches, and however often the service
is killed and restarted, the records equal a standalone run's.
"""

import json
import os
import time
from collections import deque

import pytest

from repro.evaluation import CampaignSpec
from repro.instances import generate_circuit
from repro.orchestrate import executor as executor_mod
from repro.orchestrate import orchestrate_campaign
from repro.orchestrate.executor import PendingTrial, build_payload
from repro.orchestrate.plan import expand_spec
from repro.orchestrate.store import RunStore
from repro.service import (
    JOB_CANCELLED,
    JOB_DONE,
    FairShareScheduler,
    InstanceCache,
    InstanceSource,
    JobSpec,
    ServiceJob,
)
from repro.service import spec as spec_mod
from repro.service.server import CampaignService
from repro.service.spec import make_engine
from tests.test_orchestrate import DyingPartitioner

pytestmark = pytest.mark.service


def tiny_spec(name, cells=40, gen_seed=3, base_seed=0, starts=3,
              engines=("flat-lifo",), **kwargs):
    return JobSpec(
        name=name,
        instances=[
            InstanceSource(
                kind="generate", label=f"gen{cells}", cells=cells,
                seed=gen_seed,
            )
        ],
        engines=list(engines),
        num_starts=starts,
        base_seed=base_seed,
        num_shuffles=10,
        **kwargs,
    )


class GatedPartitioner:
    """Runs ``inner``, but holds every seed from ``open_seeds`` on until
    the ``gate`` file exists: the trials a test needs still unfinished
    when it stops the service.  Defined at module level so fleet workers
    unpickle it by reference."""

    def __init__(self, inner, gate, open_seeds):
        self.inner = inner
        self.gate = str(gate)
        self.open_seeds = open_seeds
        self.name = inner.name

    def partition(self, hypergraph, seed=0, fixed_parts=None):
        while seed >= self.open_seeds and not os.path.exists(self.gate):
            time.sleep(0.01)
        return self.inner.partition(
            hypergraph, seed=seed, fixed_parts=fixed_parts
        )


def outcome_key(outcomes):
    return [
        (o.trial, o.status, o.heuristic, o.instance, o.seed, o.cut, o.legal)
        for o in outcomes
    ]


def standalone_keys(spec: JobSpec, tmp_path):
    """The reference journal: the same spec run through the one-shot
    orchestrator, serially."""
    instances = {src.label: src.load() for src in spec.instances}
    orchestrate_campaign(
        spec.campaign_spec(instances),
        store_dir=tmp_path / f"standalone-{spec.name}",
        workers=1,
    )
    store = RunStore(tmp_path / f"standalone-{spec.name}" / spec.name)
    return outcome_key(store.outcomes())


# ----------------------------------------------------------------------
class TestJobSpec:
    def test_roundtrip(self):
        spec = tiny_spec("rt", engines=("flat-lifo", "ml-clip"),
                         priority=3, timeout_seconds=5.0, max_retries=2,
                         sticky_cache=True)
        again = JobSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()

    def test_validation(self):
        src = InstanceSource(kind="generate", label="g", cells=10)
        with pytest.raises(ValueError):
            JobSpec(name="", instances=[src], engines=["flat-lifo"])
        with pytest.raises(ValueError):
            JobSpec(name="x", instances=[], engines=["flat-lifo"])
        with pytest.raises(ValueError):
            JobSpec(name="x", instances=[src], engines=["no-such-engine"])
        with pytest.raises(ValueError):
            JobSpec(name="x", instances=[src],
                    engines=["flat-lifo", "flat-lifo"])
        with pytest.raises(ValueError):
            JobSpec(name="x", instances=[src, src], engines=["flat-lifo"])
        with pytest.raises(ValueError):
            JobSpec(name="x", instances=[src], engines=["flat-lifo"],
                    priority=0)
        with pytest.raises(ValueError):
            InstanceSource(kind="file", label="f")  # no path
        with pytest.raises(ValueError):
            InstanceSource(kind="nope", label="x")

    def test_cache_key_ignores_label(self):
        a = InstanceSource(kind="generate", label="a", cells=10, seed=1)
        b = InstanceSource(kind="generate", label="b", cells=10, seed=1)
        c = InstanceSource(kind="generate", label="a", cells=10, seed=2)
        assert a.cache_key() == b.cache_key()
        assert a.cache_key() != c.cache_key()

    def test_campaign_spec_assembly(self):
        spec = tiny_spec("asm", engines=("flat-lifo", "flat-clip"))
        instances = {src.label: src.load() for src in spec.instances}
        campaign = spec.campaign_spec(instances)
        assert campaign.name == "asm"
        assert len(campaign.heuristics) == 2
        assert len(expand_spec(campaign)) == 2 * spec.num_starts


# ----------------------------------------------------------------------
class TestInstanceCache:
    def source(self, cells=10, seed=0, label=None):
        return InstanceSource(
            kind="generate", label=label or f"g{cells}-{seed}",
            cells=cells, seed=seed,
        )

    def test_hit_and_miss(self):
        cache = InstanceCache(capacity=4)
        a = cache.get(self.source(seed=1))
        b = cache.get(self.source(seed=1, label="other-label"))
        assert a is b  # label does not split the cache
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        assert len(cache) == 1  # stays cached for the next job
        cache.close()

    def test_lru_evicts_least_recently_used(self):
        cache = InstanceCache(capacity=2)
        first, second, third = (self.source(seed=s) for s in (1, 2, 3))
        kept = cache.get(first)
        cache.get(second)
        assert cache.get(first) is kept  # a hit makes it most recent
        cache.get(third)  # over capacity: ``second`` is evicted
        assert cache.stats.evictions == 1
        assert set(cache.snapshot()) == {first.cache_key(),
                                         third.cache_key()}
        assert cache.snapshot()[first.cache_key()] == {
            "vertices": kept.num_vertices
        }
        misses = cache.stats.misses
        cache.get(second)
        assert cache.stats.misses == misses + 1
        cache.close()

    def test_close_is_idempotent(self):
        cache = InstanceCache(capacity=2)
        cache.get(self.source())
        cache.close()
        cache.close()
        with pytest.raises(RuntimeError):
            cache.get(self.source())


# ----------------------------------------------------------------------
def make_service_job(job_id, spec: JobSpec, tmp_path, on_finish=None):
    """A ServiceJob wired straight to the scheduler (no CampaignService)."""
    instances = {src.label: src.load() for src in spec.instances}
    campaign = spec.campaign_spec(instances)
    plan = expand_spec(campaign)
    store = RunStore(tmp_path / job_id)
    store.initialize({"name": spec.name, "total_trials": len(plan),
                      "alpha": spec.alpha})
    heuristics = {
        getattr(h, "name", type(h).__name__): h for h in campaign.heuristics
    }
    return ServiceJob(
        job_id=job_id,
        store=store,
        total=len(plan),
        payload_blob=build_payload(heuristics, instances),
        pending=deque(PendingTrial(p) for p in plan),
        priority=spec.priority,
        timeout_seconds=spec.timeout_seconds,
        max_retries=spec.max_retries,
        on_finish=on_finish,
    )


def wait_for(predicate, timeout=90.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestFairShareScheduler:
    def test_concurrent_jobs_record_identical_to_standalone(self, tmp_path):
        """Three jobs with distinct seed streams race on one fleet; each
        journal must equal its standalone serial run, record for
        record."""
        specs = [
            tiny_spec("j-a", base_seed=0, starts=4),
            tiny_spec("j-b", base_seed=100, starts=4,
                      engines=("flat-lifo", "flat-clip")),
            tiny_spec("j-c", base_seed=200, starts=3, gen_seed=7),
        ]
        finished = []
        scheduler = FairShareScheduler(workers=2)
        scheduler.start()
        try:
            jobs = [
                make_service_job(
                    f"job{i}", spec, tmp_path,
                    on_finish=lambda j: finished.append(j.job_id),
                )
                for i, spec in enumerate(specs)
            ]
            for job in jobs:
                scheduler.submit(job)
            assert wait_for(lambda: len(finished) == 3)
            for job, spec in zip(jobs, specs):
                assert job.status == JOB_DONE
                assert outcome_key(job.store.outcomes()) == standalone_keys(
                    spec, tmp_path
                )
        finally:
            scheduler.stop()

    def test_starvation_bound(self, tmp_path):
        """A priority-1 job keeps progressing under a priority-8 flood
        on a single worker: DRR guarantees it one trial per replenish
        cycle, so its 4 trials finish long before the flood's 60."""
        finished = []
        scheduler = FairShareScheduler(workers=1)
        scheduler.start()
        try:
            flood = make_service_job(
                "flood",
                tiny_spec("flood", starts=60, priority=8),
                tmp_path,
                on_finish=lambda j: finished.append(j.job_id),
            )
            meek = make_service_job(
                "meek",
                tiny_spec("meek", starts=4, base_seed=500, priority=1),
                tmp_path,
                on_finish=lambda j: finished.append(j.job_id),
            )
            scheduler.submit(flood)
            scheduler.submit(meek)
            assert wait_for(lambda: len(finished) == 2)
            assert finished[0] == "meek"  # finished under the flood
            assert flood.status == JOB_DONE and meek.status == JOB_DONE
        finally:
            scheduler.stop()

    def test_pause_resume(self, tmp_path):
        scheduler = FairShareScheduler(workers=1)
        scheduler.start()
        try:
            job = make_service_job(
                "pr", tiny_spec("pr", cells=200, starts=60), tmp_path
            )
            job.sizer.fixed = 1  # one trial per dispatch: a pause always
            # lands between batches, well before the journal fills
            scheduler.submit(job)
            assert wait_for(lambda: job.done >= 2)
            scheduler.pause("pr")
            assert wait_for(lambda: job.status == "paused")
            # One in-flight batch may still land; after that, nothing.
            time.sleep(0.5)
            frozen = job.done
            time.sleep(0.5)
            assert job.done == frozen
            assert job.done < job.total
            scheduler.resume("pr")
            assert wait_for(lambda: job.status == JOB_DONE)
            assert job.done == job.total
        finally:
            scheduler.stop()

    def test_cancel(self, tmp_path):
        done = []
        scheduler = FairShareScheduler(workers=1)
        scheduler.start()
        try:
            job = make_service_job(
                "cx", tiny_spec("cx", cells=150, starts=50), tmp_path,
                on_finish=lambda j: done.append(j.status),
            )
            scheduler.submit(job)
            assert wait_for(lambda: job.done >= 1)
            scheduler.cancel("cx")
            assert wait_for(lambda: job.status == JOB_CANCELLED)
            assert done == [JOB_CANCELLED]
            assert job.done < job.total
            # Journaled prefix still parses and stays standalone-valid.
            assert all(o.ok for o in job.store.outcomes())
        finally:
            scheduler.stop()

    def test_worker_death_forfeits_only_the_head(self, tmp_path):
        """A fleet worker that dies mid-trial is replaced under the
        forfeit rule: its trial is charged one attempt and retried, the
        rest of its batch reruns unpenalized, and the journal equals a
        run in which nothing dies.  Priority 3 lets deficit round-robin
        hand out batches of 3: trials 0-2 to one worker, 3-5 to the
        other, where trial 3 (seed 3) dies."""
        hg = generate_circuit(100, seed=7)

        def run(job_id, die_at_seed):
            heuristic = DyingPartitioner(
                tmp_path, make_engine("flat-lifo", 0.1), die_at_seed,
                name="fm",
            )
            plan = expand_spec(CampaignSpec(
                name=job_id, heuristics=[heuristic],
                instances={"c100": hg}, num_starts=6,
            ))
            store = RunStore(tmp_path / job_id)
            store.initialize({"name": job_id, "total_trials": len(plan)})
            job = ServiceJob(
                job_id=job_id,
                store=store,
                total=len(plan),
                payload_blob=build_payload(
                    {"fm": heuristic},
                    {"c100": hg},
                ),
                pending=deque(PendingTrial(p) for p in plan),
                priority=3,
                max_retries=1,
                batch_size=3,
            )
            scheduler = FairShareScheduler(workers=2)
            scheduler.start()
            try:
                scheduler.submit(job)
                assert wait_for(lambda: job.status == JOB_DONE)
            finally:
                scheduler.stop()
            return store.outcomes()

        died = run("died", die_at_seed=3)
        assert (tmp_path / "died-3").exists()
        attempts = {o.trial: o.attempts for o in died}
        assert all(o.ok for o in died)
        assert attempts[3] == 2
        assert attempts[4] == attempts[5] == 1
        assert outcome_key(died) == outcome_key(run("clean", None))

    def test_cancel_unknown_job_is_harmless(self, tmp_path):
        scheduler = FairShareScheduler(workers=1)
        scheduler.start()
        try:
            scheduler.cancel("never-existed")
            job = make_service_job("ok", tiny_spec("ok"), tmp_path)
            scheduler.submit(job)
            assert wait_for(lambda: job.status == JOB_DONE)
        finally:
            scheduler.stop()


# ----------------------------------------------------------------------
class TestServiceRecovery:
    def test_kill_restart_reruns_no_journaled_trial(self, tmp_path,
                                                   monkeypatch):
        """Stop the service mid-campaign, restart, recover: the journal
        ends with every planned trial exactly once, and the records
        equal a standalone run's.  Seeds 3 and up wait for a gate file
        that opens only after the first service is stopped, so exactly
        trials 0-2 are journaled when it stops."""
        gate = tmp_path / "gate"
        monkeypatch.setattr(
            spec_mod, "make_engine",
            lambda engine, tolerance: GatedPartitioner(
                make_engine(engine, tolerance), gate, open_seeds=3
            ),
        )
        # Gated workers never read the stop sentinel: terminate them
        # without waiting out the shutdown grace period.
        monkeypatch.setattr(executor_mod, "_JOIN_SECONDS", 0.1)
        spec = tiny_spec("phoenix", cells=150, starts=20)
        svc = CampaignService(tmp_path / "svc", workers=2)
        job_id = svc.submit(spec)
        record = svc._records[job_id]
        assert wait_for(lambda: record.job.done >= 3, timeout=60)
        svc.close()  # kill: the gated trials die un-journaled

        journaled = record.store.completed_trials()
        assert journaled == {0, 1, 2}
        gate.touch()

        svc2 = CampaignService(tmp_path / "svc", workers=2)
        try:
            assert svc2.recover() == [job_id]
            assert svc2.wait(job_id, timeout=120) == JOB_DONE

            store = svc2._records[job_id].store
            # Raw line scan: a journaled trial must never rerun, so no
            # trial index may appear twice across both invocations.
            indices = []
            with open(store.journal_path) as f:
                for line in f:
                    indices.append(json.loads(line)["trial"])
            assert sorted(indices) == list(range(record.job.total))
            assert set(journaled) <= set(indices)
            assert outcome_key(store.outcomes()) == standalone_keys(
                spec, tmp_path
            )
            assert (svc2._records[job_id].directory / "report.txt").exists()
        finally:
            svc2.close()

    def test_recover_completed_journal_finalizes_without_fleet(
        self, tmp_path
    ):
        """A journal that already covers the plan just flips to done and
        writes the report on recovery."""
        spec = tiny_spec("already")
        svc = CampaignService(tmp_path / "svc", workers=1)
        job_id = svc.submit(spec)
        assert svc.wait(job_id, timeout=60) == JOB_DONE
        report = (svc._records[job_id].directory / "report.txt").read_text()
        # Rewind the persisted status to "active" as if the kill landed
        # after the last journal append but before the status flip.
        job_json = svc._records[job_id].directory / "job.json"
        data = json.loads(job_json.read_text())
        data["status"] = "active"
        job_json.write_text(json.dumps(data))
        svc.close()

        svc2 = CampaignService(tmp_path / "svc", workers=1)
        try:
            assert svc2.recover() == [job_id]
            assert svc2.wait(job_id, timeout=30) == JOB_DONE
            again = (
                svc2._records[job_id].directory / "report.txt"
            ).read_text()
            assert again == report  # same journal, same bytes
        finally:
            svc2.close()

    def test_recover_job_json_with_removed_inrun_field(self, tmp_path):
        """A ``job.json`` written while the in-run plane existed carries
        ``inrun_workers`` in its spec; recovery ignores the field,
        reruns only the trials missing from the journal, and ends with
        the standalone records."""
        spec = tiny_spec("legacy", starts=4)
        svc = CampaignService(tmp_path / "svc", workers=1)
        job_id = svc.submit(spec)
        assert svc.wait(job_id, timeout=60) == JOB_DONE
        directory = svc._records[job_id].directory
        svc.close()
        journal = RunStore(directory).journal_path
        lines = journal.read_text().splitlines(True)
        journal.write_text("".join(lines[:2]))  # killed midway
        job_json = directory / "job.json"
        data = json.loads(job_json.read_text())
        data["status"] = "active"
        data["spec"]["inrun_workers"] = 2
        job_json.write_text(json.dumps(data))

        svc2 = CampaignService(tmp_path / "svc", workers=1)
        try:
            assert svc2.recover() == [job_id]
            assert svc2.wait(job_id, timeout=60) == JOB_DONE
            assert outcome_key(
                svc2._records[job_id].store.outcomes()
            ) == standalone_keys(spec, tmp_path)
        finally:
            svc2.close()

    def test_resubmitted_config_mismatch_rejected(self, tmp_path):
        """Same engine names and instance, another tolerance: the spec
        hash matches and the run hash refuses it."""
        svc = CampaignService(tmp_path / "svc", workers=1)
        try:
            job_id = svc.submit(tiny_spec("strict"))
            assert svc.wait(job_id, timeout=60) == JOB_DONE
            with pytest.raises(ValueError, match="run_hash mismatch"):
                svc._register_job(
                    job_id, tiny_spec("strict", tolerance=0.1), fresh=False
                )
        finally:
            svc.close()

    def test_resubmitted_spec_mismatch_rejected(self, tmp_path):
        svc = CampaignService(tmp_path / "svc", workers=1)
        try:
            job_id = svc.submit(tiny_spec("strict"))
            assert svc.wait(job_id, timeout=60) == JOB_DONE
            with pytest.raises(ValueError):
                svc._register_job(
                    job_id, tiny_spec("strict", starts=9), fresh=False
                )
        finally:
            svc.close()


# ----------------------------------------------------------------------
class TestEngineFactory:
    def test_one_ladder_vocabulary(self):
        """Each ladder name builds the engine the tables name, and the
        CLI, the scenario layer and the service all hold the one
        factory and the one vocabulary."""
        from repro import cli, engines, service
        from repro.baselines import WeakFM
        from repro.core import FMPartitioner
        from repro.evaluation import scenarios
        from repro.multilevel import MLPartitioner

        expected = {
            "flat-lifo": (FMPartitioner, "Flat LIFO FM", False),
            "flat-clip": (FMPartitioner, "Flat CLIP FM", True),
            "ml-lifo": (MLPartitioner, "ML LIFO FM", False),
            "ml-clip": (MLPartitioner, "ML CLIP FM", True),
            "weak": (WeakFM, "Reported LIFO (weak impl)", False),
        }
        assert engines.ENGINE_NAMES == tuple(expected)
        for name, (cls, display, clip) in expected.items():
            engine = make_engine(name, 0.02)
            assert type(engine) is cls
            assert engine.name == display
            assert engine.tolerance == 0.02
            fm_config = getattr(engine.config, "fm_config", engine.config)
            assert fm_config.clip is clip
        with pytest.raises(ValueError, match="flat-lifo"):
            make_engine("hmetis", 0.02)
        for module in (cli, scenarios, spec_mod):
            assert module.make_engine is engines.make_engine
        for module in (cli, scenarios, service):
            assert module.ENGINE_NAMES is engines.ENGINE_NAMES

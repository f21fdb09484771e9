"""Tests for the campaign orchestration subsystem (repro.orchestrate)."""

import hashlib
import json
import os
import pathlib
import time

import numpy as np
import pytest

from repro.core import FMConfig, FMPartitioner, run_multistart
from repro.evaluation import CampaignSpec, run_campaign
from repro.hypergraph import Hypergraph
from repro.instances import generate_circuit
from repro.orchestrate import (
    ExecutionPolicy,
    Orchestrator,
    ProgressPrinter,
    RunStore,
    expand_spec,
    orchestrate_campaign,
    run_fingerprint,
    spec_fingerprint,
)
from repro.orchestrate.store import TrialOutcome


# Module-level heuristics so they pickle under any mp start method.
class SleepyPartitioner:
    """Hangs far longer than any test timeout."""

    name = "sleepy"

    def partition(self, hypergraph, seed=0, **kwargs):
        time.sleep(60)


class BrokenPartitioner:
    """Always raises — deterministic failure."""

    name = "broken"

    def partition(self, hypergraph, seed=0, **kwargs):
        raise RuntimeError("boom")


class FlakyPartitioner:
    """Fails once per (seed) then succeeds: a transient failure.

    Cross-process safe: the first attempt leaves a marker file, so the
    retry (possibly in another worker) sees it and succeeds.
    """

    name = "flaky"

    def __init__(self, marker_dir, inner):
        self.marker_dir = str(marker_dir)
        self.inner = inner

    def partition(self, hypergraph, seed=0, **kwargs):
        marker = pathlib.Path(self.marker_dir) / f"seen-{seed}"
        if not marker.exists():
            marker.touch()
            raise RuntimeError("transient glitch")
        return self.inner.partition(hypergraph, seed=seed, **kwargs)


class DyingPartitioner:
    """Kills its worker process (``os._exit(3)``) on the first attempt
    at one seed: a worker death in the middle of a trial.

    Cross-process safe like :class:`FlakyPartitioner`: the first attempt
    leaves a marker file before dying, so the retry survives.  It
    carries ``inner``'s coarsening config and takes a ``hierarchy``, so
    sticky caches serve it exactly as they serve ``inner``.
    ``die_at_seed=None`` never dies: the reference run.
    """

    def __init__(self, marker_dir, inner, die_at_seed, name="dying"):
        self.marker_dir = str(marker_dir)
        self.inner = inner
        self.die_at_seed = die_at_seed
        self.name = name
        self.config = getattr(inner, "config", None)

    def partition(self, hypergraph, seed=0, fixed_parts=None,
                  hierarchy=None):
        marker = pathlib.Path(self.marker_dir) / f"died-{seed}"
        if seed == self.die_at_seed and not marker.exists():
            marker.touch()
            os._exit(3)
        kwargs = {} if hierarchy is None else {"hierarchy": hierarchy}
        return self.inner.partition(
            hypergraph, seed=seed, fixed_parts=fixed_parts, **kwargs
        )


@pytest.fixture(scope="module")
def hg():
    return generate_circuit(100, seed=7)


@pytest.fixture
def spec(hg):
    return CampaignSpec(
        name="orch",
        heuristics=[
            FMPartitioner(tolerance=0.1, name="fm10"),
            FMPartitioner(tolerance=0.05, name="fm05"),
        ],
        instances={"c100": hg},
        num_starts=3,
    )


def record_key(records):
    return [(r.heuristic, r.instance, r.seed, r.cut, r.legal) for r in records]


class TestPlan:
    def test_canonical_expansion(self, spec):
        plan = expand_spec(spec)
        assert len(plan) == 6
        assert [p.index for p in plan] == list(range(6))
        # instances outer, heuristics middle, starts inner — matches
        # the serial runner's order.
        assert [p.heuristic for p in plan[:3]] == ["fm10"] * 3
        assert [p.seed for p in plan[:3]] == [0, 1, 2]

    def test_fingerprint_stable_and_sensitive(self, spec, hg):
        assert spec_fingerprint(spec) == spec_fingerprint(spec)
        other = CampaignSpec(
            name="orch",
            heuristics=spec.heuristics,
            instances=spec.instances,
            num_starts=4,  # different stream
        )
        assert spec_fingerprint(spec) != spec_fingerprint(other)


class TestDeterminism:
    def test_parallel_equals_serial(self, spec):
        serial = run_campaign(spec)
        parallel = run_campaign(spec, workers=3)
        assert record_key(serial.records) == record_key(parallel.records)

    def test_matches_legacy_serial_runner(self, spec):
        from repro.evaluation import run_trials

        legacy = run_trials(
            spec.heuristics, spec.instances, spec.num_starts,
            base_seed=spec.base_seed,
        )
        orchestrated = run_campaign(spec, workers=2).records
        assert record_key(legacy) == record_key(orchestrated)

    def test_run_campaign_forwards_every_option(self, spec):
        """``run_campaign`` takes ``orchestrate_campaign``'s options,
        ``backend`` included; cnative, or its numpy fallback where it
        cannot run, leaves the records unchanged."""
        serial = run_campaign(spec)
        tagged = run_campaign(spec, workers=2, backend="cnative")
        assert record_key(tagged.records) == record_key(serial.records)


class TestStore:
    def test_journal_roundtrip(self, tmp_path, spec):
        result = orchestrate_campaign(spec, store_dir=tmp_path, workers=1)
        store = RunStore(tmp_path / "orch")
        assert store.records() == result.records
        status = store.status()
        assert (status.total, status.done, status.errors) == (6, 6, 0)
        meta = store.load_meta()
        assert meta["spec_hash"] == spec_fingerprint(spec)
        assert meta["total_trials"] == 6
        assert "machine" in meta

    def test_truncated_last_line_is_skipped(self, tmp_path, spec):
        orchestrate_campaign(spec, store_dir=tmp_path, workers=1)
        store = RunStore(tmp_path / "orch")
        text = store.journal_path.read_text()
        store.journal_path.write_text(text[: len(text) - 25])  # crash mid-line
        outcomes = store.outcomes()
        assert len(outcomes) == 5  # the mangled trial is simply gone
        # and resume reruns exactly that one trial
        executed = []
        result = orchestrate_campaign(
            spec, store_dir=tmp_path, resume=True, progress=executed.append
        )
        assert len(executed) == 1
        assert len(result.records) == 6

    def test_duplicate_entries_last_wins(self, tmp_path):
        store = RunStore(tmp_path / "dup")
        store.initialize({"total_trials": 1})
        for cut in (5.0, 7.0):
            store.append(
                TrialOutcome(
                    trial=0, status="ok", heuristic="h", instance="i",
                    seed=0, cut=cut, runtime_seconds=0.1, legal=True,
                )
            )
        assert [o.cut for o in store.outcomes()] == [7.0]


class TestResume:
    def test_resume_skips_journaled_trials(self, tmp_path, spec):
        full = orchestrate_campaign(spec, store_dir=tmp_path, workers=1)
        store = RunStore(tmp_path / "orch")
        lines = store.journal_path.read_text().splitlines(True)
        store.journal_path.write_text("".join(lines[:4]))  # kill midway
        executed = []
        resumed = orchestrate_campaign(
            spec,
            store_dir=tmp_path,
            workers=2,
            resume=True,
            progress=executed.append,
        )
        assert len(executed) == 2  # only the missing trials ran
        assert record_key(resumed.records) == record_key(full.records)

    def test_resume_store_with_removed_perf_fields(self, tmp_path, spec):
        """A half-journaled store whose ``perf.json`` still carries the
        timing fields of the removed in-run plane resumes, and the
        rewritten ``perf.json`` holds exactly the current fields."""
        orchestrate_campaign(spec, store_dir=tmp_path, workers=1)
        store = RunStore(tmp_path / "orch")
        lines = store.journal_path.read_text().splitlines(True)
        store.journal_path.write_text("".join(lines[:3]))  # kill midway
        perf = json.loads(store.perf_path.read_text())
        for fields in perf.values():
            fields.update(inrun_proposal_seconds=0.5,
                          inrun_merge_seconds=0.25,
                          inrun_fanout_seconds=0.125)
        store.perf_path.write_text(json.dumps(perf))
        orchestrate_campaign(spec, store_dir=tmp_path, workers=2,
                             resume=True)
        assert store.status().done == 6
        current = set(
            PerfCounters.COUNT_FIELDS + PerfCounters.TIMING_FIELDS
        ) | {"backend"}
        for fields in json.loads(store.perf_path.read_text()).values():
            assert set(fields) == current

    def test_resume_of_complete_store_runs_nothing(self, tmp_path, spec):
        orchestrate_campaign(spec, store_dir=tmp_path)
        executed = []
        orchestrate_campaign(
            spec, store_dir=tmp_path, resume=True, progress=executed.append
        )
        assert executed == []

    def test_rerun_without_resume_refuses(self, tmp_path, spec):
        orchestrate_campaign(spec, store_dir=tmp_path)
        with pytest.raises(ValueError, match="resume"):
            orchestrate_campaign(spec, store_dir=tmp_path)

    def test_spec_mismatch_refuses(self, tmp_path, spec, hg):
        orchestrate_campaign(spec, store_dir=tmp_path)
        changed = CampaignSpec(
            name="orch",
            heuristics=spec.heuristics,
            instances=spec.instances,
            num_starts=5,
        )
        with pytest.raises(ValueError, match="spec_hash"):
            orchestrate_campaign(changed, store_dir=tmp_path, resume=True)


class TestRunFingerprint:
    """A resume is refused when a same-named heuristic or instance
    would run differently (``run_hash``), not only when names or shapes
    change (``spec_hash``)."""

    @staticmethod
    def _flat_lifo_store(tmp_path):
        """A 6-start Flat LIFO campaign on ibm01s at scale 16 whose
        journal lost its last three lines."""
        from repro.instances import suite_instance

        spec = CampaignSpec(
            name="mixed",
            heuristics=[FMPartitioner(name="Flat LIFO")],
            instances={"ibm01s": suite_instance("ibm01s", scale=16)},
            num_starts=6,
        )
        orchestrate_campaign(spec, store_dir=tmp_path, workers=1)
        store = RunStore(tmp_path / "mixed")
        lines = store.journal_path.read_text().splitlines(True)
        store.journal_path.write_text("".join(lines[:3]))
        return spec, store

    @staticmethod
    def _changed(spec):
        """Same names and instance, CLIP at 10%: another experiment."""
        return CampaignSpec(
            name=spec.name,
            heuristics=[FMPartitioner(FMConfig(clip=True), tolerance=0.1,
                                      name="Flat LIFO")],
            instances=spec.instances,
            num_starts=spec.num_starts,
        )

    def test_resume_refuses_a_changed_config(self, tmp_path):
        spec, store = self._flat_lifo_store(tmp_path)
        changed = self._changed(spec)
        assert spec_fingerprint(changed) == spec_fingerprint(spec)
        with pytest.raises(ValueError, match="run_hash mismatch"):
            orchestrate_campaign(changed, store_dir=tmp_path, resume=True)
        assert store.status().done == 3
        orchestrate_campaign(spec, store_dir=tmp_path, resume=True)
        assert store.status().done == 6

    def test_resume_refuses_another_sticky_stream(self, tmp_path):
        """ML LIFO on ibm01s (scale 8) at 10%: the sticky stream journals
        a cut of 40 six times, the non-sticky one 78 at start 4, so a
        resume on the other stream would mix two experiments."""
        from repro.instances import suite_instance

        spec = CampaignSpec(
            name="sticky",
            heuristics=[MLPartitioner(tolerance=0.1, name="ML LIFO")],
            instances={"ibm01s": suite_instance("ibm01s", scale=8)},
            num_starts=6,
        )
        orchestrate_campaign(spec, store_dir=tmp_path, sticky_cache=True)
        store = RunStore(tmp_path / "sticky")
        whole = store.outcomes()
        lines = store.journal_path.read_text().splitlines(True)
        store.journal_path.write_text("".join(lines[:3]))
        for policy in ({}, {"sticky_cache": True, "sticky_pool_size": 3}):
            with pytest.raises(ValueError, match="sticky_pools mismatch"):
                orchestrate_campaign(spec, store_dir=tmp_path, resume=True,
                                     **policy)
        assert store.status().done == 3
        orchestrate_campaign(spec, store_dir=tmp_path, resume=True,
                             sticky_cache=True)
        assert [(o.trial, o.cut) for o in store.outcomes()] == [
            (o.trial, o.cut) for o in whole]
        assert store.load_meta()["sticky_pools"] == 2

    def test_store_without_run_hash_keeps_the_name_rule(self, tmp_path):
        spec, store = self._flat_lifo_store(tmp_path)
        meta = store.load_meta()
        assert meta["run_hash"] == run_fingerprint(spec)
        del meta["run_hash"]
        store.meta_path.write_text(json.dumps(meta))
        orchestrate_campaign(self._changed(spec), store_dir=tmp_path,
                             resume=True)
        assert store.status().done == 6

    def test_unknown_heuristic_keeps_the_name_rule(self, tmp_path, hg):
        spec = CampaignSpec(name="opaque", heuristics=[BrokenPartitioner()],
                            instances={"c100": hg}, num_starts=1)
        assert run_fingerprint(spec) is None
        orchestrate_campaign(spec, store_dir=tmp_path, workers=1)
        assert "run_hash" not in RunStore(tmp_path / "opaque").load_meta()

    def test_what_the_hash_covers(self, hg):
        from repro.multilevel import MLConfig, MLPartitioner
        from repro.orchestrate.plan import instance_digest

        def fingerprint(heuristic, instance=hg):
            return run_fingerprint(CampaignSpec(
                name="x", heuristics=[heuristic], instances={"c": instance},
                num_starts=1))

        base = fingerprint(MLPartitioner(tolerance=0.1, name="ml"))
        # No backend changes a record, so none changes the hash.
        assert fingerprint(MLPartitioner(
            MLConfig(fm_config=FMConfig(backend="cnative")),
            tolerance=0.1, name="ml", backend="cnative")) == base
        for other in (
            MLPartitioner(tolerance=0.02, name="ml"),
            MLPartitioner(MLConfig(vcycles=1), tolerance=0.1, name="ml"),
            MLPartitioner(MLConfig(fm_config=FMConfig(clip=True)),
                          tolerance=0.1, name="ml"),
        ):
            assert fingerprint(other) != base
        heavier = Hypergraph.from_csr(
            *hg.csr[:2], hg.num_vertices,
            hg.vertex_weight_array * 2, hg.net_weight_array)
        assert fingerprint(MLPartitioner(tolerance=0.1, name="ml"),
                           heavier) != base
        # The content hash reads the CSR as int64, whatever it is held in.
        digest = hashlib.sha256(str(hg.num_vertices).encode("ascii"))
        for values in hg.raw_csr[:2]:
            digest.update(np.array(values, dtype=np.int64))
        digest.update(np.array(hg.vertex_weights))
        digest.update(np.array(hg.net_weights))
        assert instance_digest(hg) == digest.hexdigest()[:16]


class TestRobustness:
    def test_failures_become_error_records(self, tmp_path, hg):
        spec = CampaignSpec(
            name="rob",
            heuristics=[
                FMPartitioner(tolerance=0.1, name="good"),
                BrokenPartitioner(),
            ],
            instances={"c100": hg},
            num_starts=2,
        )
        result = orchestrate_campaign(
            spec, store_dir=tmp_path, workers=1, max_retries=1
        )
        store = RunStore(tmp_path / "rob")
        assert {r.heuristic for r in result.records} == {"good"}
        errors = store.errors()
        assert len(errors) == 2
        for e in errors:
            assert e.attempts == 2  # first attempt + one retry
            assert "boom" in e.error
        assert store.status().done == 4  # campaign completed regardless

    def test_transient_failure_heals_via_retry(self, tmp_path, hg):
        spec = CampaignSpec(
            name="flaky",
            heuristics=[
                FlakyPartitioner(
                    tmp_path, FMPartitioner(tolerance=0.1, name="inner")
                )
            ],
            instances={"c100": hg},
            num_starts=2,
        )
        result = orchestrate_campaign(spec, max_retries=1)
        assert len(result.records) == 2
        assert all(r.legal for r in result.records)

    def test_timeout_kills_hung_trial(self, tmp_path, hg):
        spec = CampaignSpec(
            name="hang",
            heuristics=[
                FMPartitioner(tolerance=0.1, name="fast"),
                SleepyPartitioner(),
            ],
            instances={"c100": hg},
            num_starts=1,
        )
        t0 = time.monotonic()
        orchestrate_campaign(
            spec, store_dir=tmp_path, workers=2, timeout_seconds=0.75
        )
        assert time.monotonic() - t0 < 20
        store = RunStore(tmp_path / "hang")
        errors = store.errors()
        assert len(errors) == 1
        assert errors[0].heuristic == "sleepy"
        assert "timeout" in errors[0].error
        assert [r.heuristic for r in store.records()] == ["fast"]

    def test_worker_death_forfeits_only_the_head(self, tmp_path, hg):
        """A worker that dies mid-trial is replaced: the trial it was
        running is charged one attempt and retried, the rest of its
        batch reruns unpenalized, and the records equal a run in which
        nothing dies.  Batches of 3 over 2 workers put trials 0-2 on
        one worker and 3-5 on the other; trial 3 (seed 3) dies."""

        def run(name, die_at_seed):
            spec = CampaignSpec(
                name=name,
                heuristics=[
                    DyingPartitioner(
                        tmp_path, FMPartitioner(tolerance=0.1),
                        die_at_seed, name="fm",
                    )
                ],
                instances={"c100": hg},
                num_starts=6,
            )
            orchestrate_campaign(
                spec, store_dir=tmp_path, workers=2, batch_size=3,
                max_retries=1,
            )
            return RunStore(tmp_path / name).outcomes()

        died = run("died", die_at_seed=3)
        assert (tmp_path / "died-3").exists()
        attempts = {o.trial: o.attempts for o in died}
        assert all(o.ok for o in died)
        assert attempts[3] == 2
        assert attempts[4] == attempts[5] == 1
        clean = run("clean", die_at_seed=None)
        assert outcome_key(died) == outcome_key(clean)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ExecutionPolicy(workers=0)
        with pytest.raises(ValueError):
            ExecutionPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            ExecutionPolicy(timeout_seconds=0)


class TestObservability:
    def test_progress_events(self, spec):
        events = []
        run_campaign(spec, workers=2, progress=events.append)
        assert len(events) == 6
        assert [e.done for e in events] == list(range(1, 7))
        final = events[-1]
        assert final.total == 6 and final.ok == 6 and final.errors == 0
        assert final.best_by_instance["c100"] == min(
            e.last.cut for e in events
        )
        assert all(e.num_workers == 2 for e in events)
        assert final.eta_seconds is None  # nothing left

    def test_progress_printer_renders(self, spec, capsys):
        import io

        buf = io.StringIO()
        run_campaign(spec, progress=ProgressPrinter(stream=buf, interval=0.0))
        out = buf.getvalue()
        assert "[   6/6]" in out
        assert "best: c100=" in out


@pytest.mark.slow
class TestScale:
    """Bigger campaign through the pool — deselected from tier 1."""

    def test_many_trials_parallel(self, tmp_path, hg):
        spec = CampaignSpec(
            name="scale",
            heuristics=[
                FMPartitioner(tolerance=0.1, name=f"fm{i}")
                for i in range(4)
            ],
            instances={"c100": hg, "c100b": generate_circuit(100, seed=8)},
            num_starts=10,
        )
        serial = run_campaign(spec)
        parallel = orchestrate_campaign(spec, store_dir=tmp_path, workers=4)
        assert record_key(serial.records) == record_key(parallel.records)
        assert RunStore(tmp_path / "scale").status().done == 80


# ======================================================================
# Dispatch-plane contract: batching and sticky caches never change the
# outcome stream.
# ======================================================================

from repro.core.perf import PerfCounters  # noqa: E402
from repro.multilevel import MLConfig, MLPartitioner  # noqa: E402
from repro.orchestrate.executor import execute_trials  # noqa: E402
from repro.orchestrate.plan import TrialPlan  # noqa: E402


def _mixed_workload(hg):
    """FM (cache-ineligible) + multilevel (cache-eligible) trials."""
    heuristics = {
        "fm": FMPartitioner(tolerance=0.1, name="fm"),
        "ml": MLPartitioner(
            MLConfig(refine_passes=1, initial_starts=1),
            tolerance=0.1,
            name="ml",
        ),
    }
    trials = [
        TrialPlan(
            index=idx,
            heuristic=h,
            instance="c100",
            seed=10 + i,
            start=i,
        )
        for idx, (h, i) in enumerate(
            (h, i) for h in ("fm", "ml") for i in range(4)
        )
    ]
    return heuristics, {"c100": hg}, trials


def outcome_key(outcomes):
    return [
        (o.trial, o.status, o.heuristic, o.seed, o.cut, o.legal)
        for o in outcomes
    ]


@pytest.fixture(scope="module")
def inline_keys(hg):
    """Serial reference streams, one per sticky setting (module-cached:
    sticky changes which hierarchy serves each start, so it is its own
    reference — the contract is parallel ≡ serial *under one policy*)."""
    heuristics, instances, trials = _mixed_workload(hg)
    keys = {}
    for sticky in (False, True):
        out = execute_trials(
            trials,
            heuristics,
            instances,
            policy=ExecutionPolicy(sticky_cache=sticky, sticky_pool_size=2),
        )
        keys[sticky] = outcome_key(out)
    assert keys[False] != [] and keys[True] != []
    return keys


class TestDispatchMatrix:
    """Every dispatch knob combination reproduces the serial stream."""

    @pytest.mark.parametrize("sticky", [False, True], ids=["plain", "sticky"])
    @pytest.mark.parametrize("batch", [1, 4, None], ids=["b1", "b4", "auto"])
    def test_pool_stream_matches_serial(self, hg, inline_keys, batch, sticky):
        heuristics, instances, trials = _mixed_workload(hg)
        out = execute_trials(
            trials,
            heuristics,
            instances,
            policy=ExecutionPolicy(
                workers=2,
                batch_size=batch,
                sticky_cache=sticky,
                sticky_pool_size=2,
            ),
        )
        assert outcome_key(out) == inline_keys[sticky]

    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            ExecutionPolicy(batch_size=0)
        with pytest.raises(ValueError):
            ExecutionPolicy(sticky_pool_size=0)


class TestPerfTotals:
    """Kernel counters aggregate across the pool without loss."""

    def test_pool_totals_equal_serial(self, hg):
        heuristics, instances, trials = _mixed_workload(hg)
        serial: dict = {}
        execute_trials(
            trials, heuristics, instances,
            policy=ExecutionPolicy(), perf_totals=serial,
        )
        pooled: dict = {}
        execute_trials(
            trials, heuristics, instances,
            policy=ExecutionPolicy(workers=2, batch_size=2),
            perf_totals=pooled,
        )
        assert set(serial) == set(pooled) == {"fm", "ml"}
        for name in serial:
            for field in PerfCounters.COUNT_FIELDS:
                assert getattr(pooled[name], field) == getattr(
                    serial[name], field
                ), (name, field)

    def test_sticky_refinement_counters_equal_serial(self, hg):
        """Sticky caches rebuild hierarchies per worker, so the
        coarsening counters legitimately differ between serial and pool
        — but the refinement stream (what the trials actually compute)
        must not."""
        heuristics, instances, trials = _mixed_workload(hg)
        refinement = (
            "passes", "vertices_seeded", "selects", "moves_applied",
            "moves_kept", "moves_rolled_back", "gain_updates",
        )
        totals = {}
        for workers in (1, 2):
            t: dict = {}
            execute_trials(
                trials, heuristics, instances,
                policy=ExecutionPolicy(
                    workers=workers, sticky_cache=True, sticky_pool_size=2
                ),
                perf_totals=t,
            )
            totals[workers] = t
        for name in ("fm", "ml"):
            for field in refinement:
                assert getattr(totals[2][name], field) == getattr(
                    totals[1][name], field
                ), (name, field)

    def test_campaign_persists_perf_json(self, tmp_path, spec):
        orchestrate_campaign(spec, store_dir=tmp_path, workers=2)
        store = RunStore(tmp_path / "orch")
        assert store.perf_path.exists()
        totals = store.load_perf()
        assert set(totals) == {"fm10", "fm05"}
        assert all(t.passes > 0 for t in totals.values())

    def test_resume_accumulates_perf_json(self, tmp_path, spec):
        orchestrate_campaign(spec, store_dir=tmp_path, workers=1)
        store = RunStore(tmp_path / "orch")
        full = {n: t.passes for n, t in store.load_perf().items()}
        lines = store.journal_path.read_text().splitlines(True)
        store.journal_path.write_text("".join(lines[:4]))  # "crash"
        orchestrate_campaign(spec, store_dir=tmp_path, resume=True)
        resumed = {n: t.passes for n, t in store.load_perf().items()}
        # Campaign-cumulative: the resume re-ran 2 of 6 trials, so the
        # merged totals exceed a single clean run's.
        assert sum(resumed.values()) > sum(full.values())


class TestStickyPoolSharing:
    """Heuristics that coarsen alike share one sticky hierarchy pool."""

    def test_shared_pools_match_separate_campaigns(self, hg):
        from repro.core import FMConfig

        heuristics = {
            "lifo": MLPartitioner(MLConfig(), tolerance=0.1, name="lifo"),
            "clip": MLPartitioner(
                MLConfig(fm_config=FMConfig(clip=True)),
                tolerance=0.1, name="clip",
            ),
            "coarse": MLPartitioner(
                MLConfig(coarsest_size=80), tolerance=0.1, name="coarse"
            ),
        }
        trials = [
            TrialPlan(index=idx, heuristic=h, instance="c100",
                      seed=10 + i, start=i)
            for idx, (h, i) in enumerate(
                (h, i) for h in heuristics for i in range(4)
            )
        ]

        def run(plans):
            totals: dict = {}
            out = execute_trials(
                plans,
                {p.heuristic: heuristics[p.heuristic] for p in plans},
                {"c100": hg},
                policy=ExecutionPolicy(sticky_cache=True, sticky_pool_size=2),
                perf_totals=totals,
            )
            keys = [(o.trial, o.heuristic, o.seed, o.cut, o.legal)
                    for o in out]
            return keys, sum(t.hierarchies_built for t in totals.values())

        shared, built = run(trials)
        separate, built_separately = [], 0
        for name in heuristics:
            keys, n = run([p for p in trials if p.heuristic == name])
            separate += keys
            built_separately += n
        assert sorted(shared) == sorted(separate)
        # LIFO and CLIP share one pool of 2; "coarse" needs its own.
        assert (built, built_separately) == (4, 6)


class TestStickyRuntimes:
    """A sticky hierarchy build counts toward the trial that triggers
    it, as in a pooled ``run_multistart``: the journaled runtimes feed
    the BSF curves and the CPU columns of the reports."""

    def test_build_charged_like_pooled_multistart(self, hg, monkeypatch):
        from repro.multilevel import pool as pool_mod

        delay = 0.5
        build = pool_mod.build_hierarchy

        def slow_build(*args, **kwargs):
            time.sleep(delay)
            return build(*args, **kwargs)

        monkeypatch.setattr(pool_mod, "build_hierarchy", slow_build)
        ml = MLPartitioner(
            MLConfig(refine_passes=1, initial_starts=1),
            tolerance=0.1,
            name="ml",
        )
        pool = pool_mod.HierarchyPool(hg, ml.config, 2, base_seed=5)
        pooled = run_multistart(ml, hg, num_starts=3, base_seed=5, pool=pool)
        campaign = run_campaign(
            CampaignSpec(
                name="sticky-time", heuristics=[ml],
                instances={"c100": hg}, num_starts=3, base_seed=5,
            ),
            sticky_cache=True,
            sticky_pool_size=2,
        )
        assert [(r.seed, r.cut) for r in campaign.records] == [
            (s.seed, s.cut) for s in pooled.starts
        ]
        # Starts 0 and 1 build the pool's two hierarchies; start 2
        # reuses the first.
        charged = [r.runtime_seconds >= delay for r in campaign.records]
        assert charged == [s.runtime_seconds >= delay for s in pooled.starts]
        assert charged == [True, True, False]

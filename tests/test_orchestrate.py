"""Tests for the campaign orchestration subsystem (repro.orchestrate)."""

import time

import pytest

from repro.core import FMPartitioner
from repro.evaluation import CampaignSpec, run_campaign
from repro.instances import generate_circuit
from repro.orchestrate import (
    ExecutionPolicy,
    Orchestrator,
    ProgressPrinter,
    RunStore,
    expand_spec,
    orchestrate_campaign,
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
        import pathlib

        marker = pathlib.Path(self.marker_dir) / f"seen-{seed}"
        if not marker.exists():
            marker.touch()
            raise RuntimeError("transient glitch")
        return self.inner.partition(hypergraph, seed=seed, **kwargs)


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
# Dispatch-plane contract: shm transport, batching and sticky caches
# never change the outcome stream (PR 5).
# ======================================================================

from repro.core.perf import PerfCounters  # noqa: E402
from repro.hypergraph import shm  # noqa: E402
from repro.multilevel import MLConfig, MLPartitioner  # noqa: E402
from repro.orchestrate import executor as executor_mod  # noqa: E402
from repro.orchestrate.executor import execute_trials  # noqa: E402
from repro.orchestrate.plan import TrialPlan  # noqa: E402


def _segment_exists(name: str) -> bool:
    try:
        probe = shm._shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    probe.close()
    return True


needs_shm = pytest.mark.skipif(
    not shm.HAVE_SHARED_MEMORY, reason="no multiprocessing.shared_memory"
)


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

    @pytest.mark.parametrize("shared", [True, False], ids=["shm", "pickle"])
    @pytest.mark.parametrize("sticky", [False, True], ids=["plain", "sticky"])
    @pytest.mark.parametrize("batch", [1, 4, None], ids=["b1", "b4", "auto"])
    def test_pool_stream_matches_serial(
        self, hg, inline_keys, batch, sticky, shared
    ):
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
                use_shared_memory=shared,
            ),
        )
        assert outcome_key(out) == inline_keys[sticky]

    @needs_shm
    def test_zero_copy_views_match_serial(self, hg, inline_keys):
        heuristics, instances, trials = _mixed_workload(hg)
        out = execute_trials(
            trials,
            heuristics,
            instances,
            policy=ExecutionPolicy(workers=2, zero_copy=True),
        )
        assert outcome_key(out) == inline_keys[False]

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


@needs_shm
class TestShmHygiene:
    """The shm acceptance matrix: no leaked segments after a normal
    exit, after worker-timeout replacement, and after kill/resume."""

    def _spy_segments(self, monkeypatch):
        created = []

        class Spy(shm.SharedInstanceSet):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.extend(self.segment_names())

        monkeypatch.setattr(executor_mod, "SharedInstanceSet", Spy)
        return created

    def test_normal_exit_unlinks_everything(self, hg, monkeypatch):
        created = self._spy_segments(monkeypatch)
        heuristics, instances, trials = _mixed_workload(hg)
        execute_trials(
            trials, heuristics, instances,
            policy=ExecutionPolicy(workers=2),
        )
        assert created, "pool run should have shared the instance plane"
        assert all(not _segment_exists(n) for n in created)
        assert all(n not in shm._MAPPINGS for n in created)

    def test_worker_timeout_replacement_does_not_leak(
        self, hg, tmp_path, monkeypatch
    ):
        created = self._spy_segments(monkeypatch)
        spec = CampaignSpec(
            name="hyg",
            heuristics=[
                FMPartitioner(tolerance=0.1, name="fast"),
                SleepyPartitioner(),
            ],
            instances={"c100": hg},
            num_starts=1,
        )
        orchestrate_campaign(
            spec, store_dir=tmp_path, workers=2, timeout_seconds=0.75
        )
        assert created
        assert all(not _segment_exists(n) for n in created)

    def test_kill_resume_does_not_leak(self, tmp_path, spec, monkeypatch):
        created = self._spy_segments(monkeypatch)
        orchestrate_campaign(spec, store_dir=tmp_path, workers=2)
        store = RunStore(tmp_path / "orch")
        lines = store.journal_path.read_text().splitlines(True)
        store.journal_path.write_text("".join(lines[:3]))  # "crash"
        orchestrate_campaign(
            spec, store_dir=tmp_path, workers=2, resume=True
        )
        assert store.status().done == 6
        assert len(created) >= 2  # both invocations shared the plane
        assert all(not _segment_exists(n) for n in created)

    def test_sigkilled_process_segments_are_reclaimed(self, hg):
        """SIGKILL the owning process: the mp resource tracker must
        reclaim the registered segments (crash-cleanliness of the
        plane itself; in-process kill/resume is covered above)."""
        import json
        import os
        import signal
        import subprocess
        import sys

        child_src = (
            "import json, sys, time\n"
            "from repro.hypergraph import shm\n"
            "from repro.instances import generate_circuit\n"
            "inst = shm.SharedInstanceSet("
            "{'x': generate_circuit(120, seed=3)})\n"
            "print(json.dumps(inst.segment_names()), flush=True)\n"
            "time.sleep(60)\n"
        )
        env = dict(os.environ)
        src_dir = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        )
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", child_src],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            names = json.loads(proc.stdout.readline())
            assert names and all(_segment_exists(n) for n in names)
        finally:
            proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if all(not _segment_exists(n) for n in names):
                break
            time.sleep(0.2)
        assert all(not _segment_exists(n) for n in names)

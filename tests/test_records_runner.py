"""Tests for trial records and the experiment runner."""

import pytest

from repro.core import FMPartitioner
from repro.evaluation import (
    TrialRecord,
    avg_cut,
    avg_runtime,
    group_by,
    load_records,
    min_cut,
    run_configuration_evaluation,
    run_trials,
    save_records,
)
from repro.instances import generate_circuit, suite_instance
from repro.multilevel import MLPartitioner


@pytest.fixture(scope="module")
def hg():
    return generate_circuit(150, seed=80)


def rec(h="h", i="i", seed=0, cut=10.0, t=1.0, legal=True):
    return TrialRecord(
        heuristic=h, instance=i, seed=seed, cut=cut, runtime_seconds=t, legal=legal
    )


class TestRecords:
    def test_aggregates(self):
        rs = [rec(cut=10), rec(cut=20, t=3.0)]
        assert min_cut(rs) == 10
        assert avg_cut(rs) == 15
        assert avg_runtime(rs) == 2.0

    def test_group_by(self):
        rs = [rec(h="a"), rec(h="b"), rec(h="a", i="j")]
        groups = group_by(rs, "heuristic")
        assert len(groups[("a",)]) == 2
        groups2 = group_by(rs, "heuristic", "instance")
        assert len(groups2) == 3

    def test_save_load_round_trip(self, tmp_path):
        rs = [rec(seed=s, cut=10 + s) for s in range(5)]
        path = tmp_path / "trials.jsonl"
        save_records(rs, path)
        back = load_records(path)
        assert back == rs


class TestRunTrials:
    def test_records_all_combinations(self, hg):
        parts = [FMPartitioner(tolerance=0.1)]
        records = run_trials(parts, {"a": hg, "b": hg}, num_starts=3)
        assert len(records) == 6
        assert {r.instance for r in records} == {"a", "b"}
        assert {r.seed for r in records} == {0, 1, 2}

    def test_identical_seed_streams(self, hg):
        """Apples-to-apples: every heuristic sees the same seeds."""
        parts = [
            FMPartitioner(tolerance=0.1, name="fm10"),
            FMPartitioner(tolerance=0.02, name="fm02"),
        ]
        records = run_trials(parts, {"a": hg}, num_starts=2, base_seed=5)
        seeds = {r.heuristic: sorted(r2.seed for r2 in records if r2.heuristic == r.heuristic) for r in records}
        assert all(s == [5, 6] for s in seeds.values())

    def test_cuts_are_real(self, hg):
        records = run_trials([FMPartitioner(tolerance=0.1)], {"a": hg}, 2)
        for r in records:
            assert r.cut >= 0
            assert r.runtime_seconds > 0
            assert r.legal

    def test_zero_starts_rejected(self, hg):
        with pytest.raises(ValueError):
            run_trials([FMPartitioner()], {"a": hg}, 0)


class TestConfigurationEvaluation:
    def test_tables45_protocol(self, hg):
        from repro.evaluation import configuration_seed

        ml = MLPartitioner(tolerance=0.1)
        seeds = []

        class Counting:
            """Records the seed of every ``partition`` call."""

            def partition(self, hypergraph, seed=0):
                seeds.append(seed)
                return ml.partition(hypergraph, seed=seed)

        out = run_configuration_evaluation(
            Counting,
            hg,
            "a",
            start_counts=[1, 2],
            repetitions=2,
            vcycle=lambda h, a, s: ml.vcycle(h, a, seed=s),
        )
        assert set(out) == {1, 2}
        for s in (1, 2):
            assert out[s]["avg_best_cut"] > 0
            assert out[s]["avg_cpu_seconds"] > 0
        # More starts cost more work: count the partition calls each
        # configuration makes (its seeds come from its own block).
        calls = {
            s: sum(
                seed in {
                    configuration_seed(0, s, rep, i)
                    for rep in range(2) for i in range(s)
                }
                for seed in seeds
            )
            for s in (1, 2)
        }
        assert calls[1] == 2 and calls[2] == 2 * calls[1]
        assert sum(calls.values()) == len(seeds)

    @pytest.mark.parametrize("with_vcycle, cells", [
        (True, {1: 26.0, 2: 26.0}),
        (False, {1: 37.0, 2: 26.0}),
    ])
    def test_pinned_cells(self, with_vcycle, cells):
        """Exact Tables 4-5 cells on an instance where the V-cycle of
        the best start improves the one-start configuration."""
        ibm = suite_instance("ibm02s", scale=32)
        ml = MLPartitioner(tolerance=0.1)
        out = run_configuration_evaluation(
            lambda: ml,
            ibm,
            "ibm02s",
            start_counts=[1, 2],
            repetitions=2,
            vcycle=(lambda h, a, s: ml.vcycle(h, a, seed=s))
            if with_vcycle else None,
        )
        assert {s: out[s]["avg_best_cut"] for s in out} == cells

    def test_more_starts_do_not_hurt_quality_much(self, hg):
        ml = MLPartitioner(tolerance=0.1)
        out = run_configuration_evaluation(
            lambda: ml, hg, "a", start_counts=[1, 4], repetitions=3
        )
        assert out[4]["avg_best_cut"] <= out[1]["avg_best_cut"] * 1.1

    def test_configurations_independently_reproducible(self, hg):
        """Each configuration draws from its own seed block, so its
        results do not depend on which other configurations ran."""
        make = lambda: FMPartitioner(tolerance=0.1)
        alone = run_configuration_evaluation(
            make, hg, "a", start_counts=[2], repetitions=2
        )
        mixed = run_configuration_evaluation(
            make, hg, "a", start_counts=[1, 2, 4], repetitions=2
        )
        assert alone[2]["avg_best_cut"] == mixed[2]["avg_best_cut"]

    def test_configuration_seed_blocks_disjoint(self):
        from repro.evaluation import configuration_seed

        seeds_s2 = {
            configuration_seed(0, 2, rep, i)
            for rep in range(3) for i in range(3)  # 2 starts + vcycle
        }
        seeds_s4 = {
            configuration_seed(0, 4, rep, i)
            for rep in range(3) for i in range(5)
        }
        assert not seeds_s2 & seeds_s4


class TestMultistartEmptyGuards:
    def test_empty_starts_raise_clear_error(self):
        from repro.core.multistart import MultistartResult

        empty = MultistartResult(heuristic="h", instance="i")
        for prop in ("min_cut", "avg_cut", "avg_runtime"):
            with pytest.raises(ValueError, match="no starts recorded"):
                getattr(empty, prop)
        assert empty.total_runtime == 0.0  # a plain sum stays defined

"""Tests for the FMPartitioner facade and the multistart driver."""

import numpy as np
import pytest

from repro.core import (
    FMConfig,
    FMPartitioner,
    Partition2,
    run_multistart,
)
from repro.instances import generate_circuit


@pytest.fixture
def hg():
    return generate_circuit(250, seed=33)


class TestFacade:
    def test_partition_returns_legal_solution(self, hg):
        result = FMPartitioner(tolerance=0.1).partition(hg, seed=0)
        assert result.legal
        assert result.cut == hg.cut_size(result.assignment)
        assert result.runtime_seconds > 0

    def test_determinism(self, hg):
        p = FMPartitioner(tolerance=0.1)
        r1 = p.partition(hg, seed=7)
        r2 = p.partition(hg, seed=7)
        assert r1.assignment == r2.assignment
        assert r1.cut == r2.cut

    def test_seeds_vary_results(self, hg):
        p = FMPartitioner(tolerance=0.1)
        cuts = {p.partition(hg, seed=s).cut for s in range(6)}
        assert len(cuts) > 1

    def test_explicit_initial_solution(self, hg):
        p = FMPartitioner(tolerance=0.1)
        balance = p.balance_for(hg)
        import random

        init = Partition2.random_balanced(hg, balance, random.Random(0))
        init_copy = init.assignment.copy()
        result = p.partition(hg, seed=0, initial=init)
        assert result.cut <= init.cut
        # Caller's object must not be mutated.
        assert np.array_equal(init.assignment, init_copy)

    def test_fixed_parts(self, hg):
        fixed = [None] * hg.num_vertices
        fixed[0], fixed[5] = 0, 1
        result = FMPartitioner(tolerance=0.1).partition(
            hg, seed=0, fixed_parts=fixed
        )
        assert result.assignment[0] == 0
        assert result.assignment[5] == 1

    def test_name_reflects_config(self):
        assert "CLIP" in FMPartitioner(FMConfig(clip=True)).name
        assert FMPartitioner().name.startswith("Flat FM")

    def test_tolerance_2pct_tighter_than_10pct(self, hg):
        """Looser balance admits better cuts (Tables 2-5 show this)."""
        cuts2, cuts10 = [], []
        for s in range(5):
            cuts2.append(FMPartitioner(tolerance=0.02).partition(hg, seed=s).cut)
            cuts10.append(FMPartitioner(tolerance=0.1).partition(hg, seed=s).cut)
        assert sum(cuts10) <= sum(cuts2)


class TestMultistart:
    def test_aggregates(self, hg):
        ms = run_multistart(FMPartitioner(tolerance=0.1), hg, 5, "x")
        assert ms.num_starts == 5
        assert ms.min_cut <= ms.avg_cut
        assert ms.total_runtime == pytest.approx(
            sum(s.runtime_seconds for s in ms.starts)
        )
        assert ms.instance == "x"

    def test_best_assignment_matches_min_cut(self, hg):
        ms = run_multistart(FMPartitioner(tolerance=0.1), hg, 5, "x")
        assert hg.cut_size(ms.best_assignment) == ms.min_cut

    def test_seed_stream_reproducible(self, hg):
        p = FMPartitioner(tolerance=0.1)
        m1 = run_multistart(p, hg, 4, "x", base_seed=10)
        m2 = run_multistart(p, hg, 4, "x", base_seed=10)
        assert [s.cut for s in m1.starts] == [s.cut for s in m2.starts]

    def test_min_avg_format(self, hg):
        ms = run_multistart(FMPartitioner(tolerance=0.1), hg, 3, "x")
        cell = ms.min_avg()
        assert "/" in cell

    def test_zero_starts_rejected(self, hg):
        with pytest.raises(ValueError):
            run_multistart(FMPartitioner(), hg, 0)

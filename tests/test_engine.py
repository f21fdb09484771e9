"""Tests for the FM/CLIP pass engine."""

import random

import numpy as np
import pytest

from repro.core import (
    BalanceConstraint,
    BestChoice,
    FMConfig,
    FMEngine,
    IllegalHeadPolicy,
    InsertionOrder,
    Partition2,
    TieBias,
    UpdatePolicy,
)
from repro.hypergraph import Hypergraph
from repro.instances import (
    corking_initial,
    corking_instance,
    generate_circuit,
)


def refine(hg, assignment, config=None, tolerance=0.1, fixed=None, seed=0):
    part = Partition2(hg, assignment, fixed)
    balance = BalanceConstraint(hg.total_vertex_weight, tolerance)
    engine = FMEngine(balance, config or FMConfig(), random.Random(seed))
    result = engine.refine(part)
    return part, result, balance


def random_assignment(hg, seed=0):
    rng = random.Random(seed)
    return [rng.randint(0, 1) for _ in range(hg.num_vertices)]


class TestRefinement:
    def test_finds_optimal_cut_on_tiny(self, tiny):
        part, result, _ = refine(tiny, [0, 1, 0, 1, 0, 1], tolerance=0.34)
        assert part.cut == 1.0
        assert result.final_cut == 1.0
        assert result.improvement == result.initial_cut - 1.0

    def test_never_worsens_cut(self, circuit300):
        a = random_assignment(circuit300, 3)
        initial = circuit300.cut_size(a)
        part, result, _ = refine(circuit300, a)
        assert part.cut <= initial
        assert result.final_cut == part.cut

    def test_incremental_state_consistent_after_refine(self, circuit300):
        part, _, _ = refine(circuit300, random_assignment(circuit300, 4))
        part.check_consistency()

    def test_balance_respected(self, circuit300):
        # Start from a *legal* random solution; FM must keep legality.
        balance = BalanceConstraint(circuit300.total_vertex_weight, 0.1)
        part = Partition2.random_balanced(
            circuit300, balance, random.Random(5)
        )
        FMEngine(balance, FMConfig(), random.Random(0)).refine(part)
        assert balance.is_legal(part.part_weights)

    def test_fixed_vertices_never_move(self, circuit300):
        a = random_assignment(circuit300, 6)
        fixed = [False] * circuit300.num_vertices
        pinned = {0: a[0], 10: a[10], 20: a[20]}
        for v in pinned:
            fixed[v] = True
        part, _, _ = refine(circuit300, a, fixed=fixed)
        for v, side in pinned.items():
            assert part.assignment[v] == side

    def test_max_passes_limits_work(self, circuit300):
        cfg = FMConfig(max_passes=1)
        _, result, _ = refine(circuit300, random_assignment(circuit300, 7), cfg)
        assert result.passes == 1

    def test_illegal_initial_recovers_legality(self, circuit300):
        # Everything on side 0: wildly illegal; FM moves into legality.
        part, _, balance = refine(
            circuit300, [0] * circuit300.num_vertices, tolerance=0.1
        )
        assert balance.is_legal(part.part_weights)

    def test_non_integral_net_weights_rejected(self):
        hg = Hypergraph([[0, 1]], num_vertices=2, net_weights=[1.5])
        with pytest.raises(ValueError, match="integral"):
            refine(hg, [0, 1])

    def test_weighted_nets_supported(self):
        hg = Hypergraph(
            [[0, 1], [2, 3], [1, 2]],
            num_vertices=4,
            net_weights=[5, 5, 1],
        )
        part, _, _ = refine(hg, [0, 1, 0, 1], tolerance=0.5)
        # The two weight-5 nets must be uncut at the optimum.
        assert part.cut == 1.0


class TestConfigurations:
    @pytest.mark.parametrize("updates", list(UpdatePolicy))
    @pytest.mark.parametrize("bias", list(TieBias))
    def test_all_table1_variants_run(self, circuit300, updates, bias):
        cfg = FMConfig(update_policy=updates, tie_bias=bias, max_passes=3)
        part, result, balance = refine(
            circuit300, random_assignment(circuit300, 8), cfg
        )
        assert part.cut <= result.initial_cut
        assert balance.is_legal(part.part_weights)

    @pytest.mark.parametrize("order", list(InsertionOrder))
    def test_all_insertion_orders_run(self, circuit300, order):
        cfg = FMConfig(insertion_order=order, max_passes=3)
        part, result, _ = refine(circuit300, random_assignment(circuit300, 9), cfg)
        assert part.cut <= result.initial_cut

    @pytest.mark.parametrize("choice", list(BestChoice))
    def test_all_best_choices_run(self, circuit300, choice):
        cfg = FMConfig(best_choice=choice, max_passes=3)
        part, result, _ = refine(circuit300, random_assignment(circuit300, 10), cfg)
        assert part.cut <= result.initial_cut

    @pytest.mark.parametrize("policy", list(IllegalHeadPolicy))
    def test_all_illegal_head_policies_run(self, circuit300, policy):
        cfg = FMConfig(illegal_head=policy, max_passes=3)
        part, result, _ = refine(circuit300, random_assignment(circuit300, 11), cfg)
        assert part.cut <= result.initial_cut

    def test_variants_produce_different_trajectories(self, circuit300):
        """The whole point of Table 1: implicit decisions change results."""
        cuts = set()
        for updates in UpdatePolicy:
            for bias in TieBias:
                cfg = FMConfig(update_policy=updates, tie_bias=bias)
                part, _, _ = refine(
                    circuit300, random_assignment(circuit300, 12), cfg
                )
                cuts.add(part.cut)
        assert len(cuts) > 1


class TestCLIP:
    def test_clip_refines(self, circuit300):
        cfg = FMConfig(clip=True)
        part, result, _ = refine(circuit300, random_assignment(circuit300, 13), cfg)
        assert part.cut < result.initial_cut
        part.check_consistency()

    def test_clip_corks_without_guard(self):
        hg = corking_instance(num_cells=300, num_macros=4, macro_degree=60)
        init = corking_initial(hg, num_macros=4)
        cfg = FMConfig(clip=True, guard_oversized=False)
        part, result, _ = refine(hg, init, cfg, tolerance=0.02)
        assert result.stuck_passes >= 1
        assert result.total_moves == 0
        assert part.cut == result.initial_cut  # nothing improved

    def test_guard_fixes_corking(self):
        hg = corking_instance(num_cells=300, num_macros=4, macro_degree=60)
        init = corking_initial(hg, num_macros=4)
        cfg = FMConfig(clip=True, guard_oversized=True)
        part, result, _ = refine(hg, init, cfg, tolerance=0.02)
        assert result.stuck_passes == 0
        assert part.cut < result.initial_cut

    def test_guard_benefits_plain_fm_too(self):
        """Section 2.3: the guard 'actually benefits all FM variants'."""
        hg = corking_instance(num_cells=300, num_macros=4, macro_degree=60)
        init = corking_initial(hg, num_macros=4)
        for clip in (False, True):
            cfg = FMConfig(clip=clip, guard_oversized=True)
            part, result, _ = refine(hg, init, cfg, tolerance=0.02)
            assert part.cut < result.initial_cut

    def test_plain_fm_does_not_cork(self):
        """Corking is CLIP-specific: plain FM spreads moves over many
        buckets, so an illegal macro head only blocks one bucket."""
        hg = corking_instance(num_cells=300, num_macros=4, macro_degree=60)
        init = corking_initial(hg, num_macros=4)
        cfg = FMConfig(clip=False, guard_oversized=False)
        part, result, _ = refine(hg, init, cfg, tolerance=0.02)
        assert part.cut < result.initial_cut


class TestDeterminism:
    def test_same_seed_same_result(self, circuit300):
        a = random_assignment(circuit300, 14)
        p1, _, _ = refine(circuit300, a, seed=5)
        p2, _, _ = refine(circuit300, a, seed=5)
        assert np.array_equal(p1.assignment, p2.assignment)

    def test_random_insertion_uses_rng(self, circuit300):
        a = random_assignment(circuit300, 15)
        cfg = FMConfig(insertion_order=InsertionOrder.RANDOM, max_passes=2)
        p1, _, _ = refine(circuit300, a, cfg, seed=1)
        p2, _, _ = refine(circuit300, a, cfg, seed=2)
        # Different rngs may (and generally do) give different outcomes.
        # At minimum the runs complete and stay consistent.
        p1.check_consistency()
        p2.check_consistency()

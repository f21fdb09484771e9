"""Tests for the incremental Partition2 state."""

import random

import numpy as np
import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BalanceConstraint, Partition2
from repro.hypergraph import Hypergraph
from repro.instances import generate_circuit, random_hypergraph

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestConstruction:
    def test_initial_cut_matches_scratch(self, tiny):
        p = Partition2(tiny, [0, 0, 0, 1, 1, 1])
        assert p.cut == tiny.cut_size(p.assignment) == 1.0

    def test_part_weights(self, weighted_tiny):
        p = Partition2(weighted_tiny, [0, 0, 0, 1, 1, 1])
        assert p.part_weights == [6.0, 6.0]

    def test_part_weights_past_exact_integers(self):
        # Integral areas too large for an exact int64/float64 sum take
        # the sequential float sum, never a wrapped int64 product.
        hg = Hypergraph([[0, 1], [1, 2], [2, 3]], 4,
                        vertex_weights=[2.0**63, 1.0, 1.0, 1.0])
        p = Partition2(hg, [1, 0, 0, 0])
        assert p.part_weights == [3.0, 2.0**63]

    def test_pin_counts(self, tiny):
        p = Partition2(tiny, [0, 0, 0, 1, 1, 1])
        # Bridging net 6 = {2,3,4}: one pin on side 0, two on side 1.
        assert p.pins_in_part[0][6] == 1
        assert p.pins_in_part[1][6] == 2

    def test_bad_assignment_rejected(self, tiny):
        with pytest.raises(ValueError):
            Partition2(tiny, [0, 1])
        with pytest.raises(ValueError):
            Partition2(tiny, [0, 0, 0, 1, 1, 2])

    def test_fixed_length_checked(self, tiny):
        with pytest.raises(ValueError):
            Partition2(tiny, [0] * 6, fixed=[True])


class TestMoves:
    def test_move_updates_cut(self, tiny):
        p = Partition2(tiny, [0, 0, 0, 1, 1, 1])
        p.move(2)  # vertex 2 to side 1: triangle nets 1, 2 become cut
        assert p.cut == tiny.cut_size(p.assignment)
        p.check_consistency()

    def test_move_back_restores(self, tiny):
        p = Partition2(tiny, [0, 0, 0, 1, 1, 1])
        before = p.cut
        p.move(4)
        p.move(4)
        assert p.cut == before
        p.check_consistency()

    def test_fixed_vertex_cannot_move(self, tiny):
        p = Partition2(tiny, [0, 0, 0, 1, 1, 1], fixed=[True] + [False] * 5)
        with pytest.raises(ValueError, match="fixed"):
            p.move(0)

    def test_random_move_sequence_consistent(self):
        hg = generate_circuit(120, seed=2)
        rng = random.Random(7)
        p = Partition2(hg, [rng.randint(0, 1) for _ in range(hg.num_vertices)])
        for _ in range(300):
            p.move(rng.randrange(hg.num_vertices))
        p.check_consistency()

    def test_weighted_nets_cut_update(self, weighted_tiny):
        p = Partition2(weighted_tiny, [0, 0, 0, 1, 1, 1])
        for v in [2, 3, 2, 4, 3]:
            p.move(v)
            assert p.cut == weighted_tiny.cut_size(p.assignment)


class TestGain:
    def test_gain_matches_brute_force(self):
        hg = random_hypergraph(40, 60, seed=3, unit_areas=False)
        rng = random.Random(1)
        p = Partition2(hg, [rng.randint(0, 1) for _ in range(40)])
        for v in range(40):
            expected = p.cut
            clone = p.copy()
            clone.move(v)
            assert p.gain(v) == pytest.approx(expected - clone.cut)

    def test_gain_of_interior_vertex_negative(self, tiny):
        p = Partition2(tiny, [0, 0, 0, 1, 1, 1])
        # Vertex 0 sits on two uncut nets; moving it cuts both.
        assert p.gain(0) == -2.0


class TestRandomBalanced:
    def test_respects_tolerance(self):
        hg = generate_circuit(250, seed=4)
        b = BalanceConstraint(hg.total_vertex_weight, 0.10)
        p = Partition2.random_balanced(hg, b, random.Random(0))
        assert b.is_legal(p.part_weights)

    def test_different_seeds_differ(self):
        hg = generate_circuit(250, seed=4)
        b = BalanceConstraint(hg.total_vertex_weight, 0.10)
        p1 = Partition2.random_balanced(hg, b, random.Random(1))
        p2 = Partition2.random_balanced(hg, b, random.Random(2))
        assert not np.array_equal(p1.assignment, p2.assignment)

    def test_fixed_parts_respected(self):
        hg = generate_circuit(100, seed=4)
        b = BalanceConstraint(hg.total_vertex_weight, 0.10)
        fixed = [None] * hg.num_vertices
        fixed[0], fixed[1] = 0, 1
        p = Partition2.random_balanced(hg, b, random.Random(0), fixed)
        assert p.assignment[0] == 0
        assert p.assignment[1] == 1
        assert p.fixed[0] and p.fixed[1]
        assert not p.fixed[2]


class TestCopy:
    def test_copy_is_independent(self, tiny):
        p = Partition2(tiny, [0, 0, 0, 1, 1, 1])
        q = p.copy()
        q.move(2)
        assert p.assignment[2] == 0
        assert q.assignment[2] == 1
        assert p.cut != q.cut
        p.check_consistency()
        q.check_consistency()


class TestIntegerCutLedger:
    """Property tests for the exact integer cut ledger.

    With integral net weights the incremental cut must stay a Python
    ``int`` — bit-for-bit equal to a from-scratch recount — under any
    move sequence, including immediate undo (rollback) patterns.  This
    exactness is what makes best-prefix ties detectable (see
    tests/test_kernel_equivalence.py for the end-to-end consequence).
    """

    @staticmethod
    def _random_instance(draw_seed, integral):
        rng = random.Random(draw_seed)
        n = rng.randint(2, 24)
        nets = []
        for _ in range(rng.randint(1, 40)):
            size = rng.randint(2, min(5, n))
            nets.append(rng.sample(range(n), size))
        if integral:
            weights = [float(rng.randint(1, 9)) for _ in nets]
        else:
            weights = [rng.randint(1, 9) * 0.1 for _ in nets]
        hg = Hypergraph(nets, n, net_weights=weights)
        part = Partition2(hg, [rng.randint(0, 1) for _ in range(n)])
        moves = [rng.randrange(n) for _ in range(60)]
        return hg, part, moves

    @given(seed=st.integers(min_value=0, max_value=10**9))
    @SETTINGS
    def test_cut_stays_exact_int_under_random_moves(self, seed):
        hg, part, moves = self._random_instance(seed, integral=True)
        assert part.integral_nets
        assert isinstance(part.cut, int)
        for v in moves:
            part.move(v)
            assert isinstance(part.cut, int)
            # Exact equality, not approx: the ledger never drifts.
            assert part.cut == int(hg.cut_size(part.assignment))
        part.check_consistency()

    @given(seed=st.integers(min_value=0, max_value=10**9))
    @SETTINGS
    def test_move_then_undo_restores_exact_cut(self, seed):
        _, part, moves = self._random_instance(seed, integral=True)
        for v in moves:
            before = part.cut
            part.move(v)
            part.move(v)
            assert part.cut == before  # exact ==, valid only for ints

    @given(seed=st.integers(min_value=0, max_value=10**9))
    @SETTINGS
    def test_float_fallback_stays_close_but_not_exact_typed(self, seed):
        hg, part, moves = self._random_instance(seed, integral=False)
        assert not part.integral_nets
        assert isinstance(part.cut, float)
        for v in moves:
            part.move(v)
        assert part.cut == pytest.approx(hg.cut_size(part.assignment))
        part.check_consistency()

    def test_gain_is_int_in_integral_regime(self):
        hg, part, _ = self._random_instance(7, integral=True)
        for v in range(hg.num_vertices):
            assert isinstance(part.gain(v), int)

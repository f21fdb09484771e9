"""Tests for the initial-solution generators."""

import random

import numpy as np
import pytest

from repro.core import BalanceConstraint, InitialSolution
from repro.core.initial import generate_initial
from repro.instances import generate_circuit


@pytest.fixture
def hg():
    return generate_circuit(200, seed=21)


@pytest.fixture
def balance(hg):
    return BalanceConstraint(hg.total_vertex_weight, 0.10)


@pytest.mark.parametrize("method", list(InitialSolution))
def test_generators_produce_legal_solutions(hg, balance, method):
    part = generate_initial(hg, balance, method, random.Random(0))
    assert balance.is_legal(part.part_weights)
    part.check_consistency()


@pytest.mark.parametrize("method", list(InitialSolution))
def test_fixed_vertices_respected(hg, balance, method):
    fixed = [None] * hg.num_vertices
    fixed[3], fixed[7] = 1, 0
    part = generate_initial(hg, balance, method, random.Random(0), fixed)
    assert part.assignment[3] == 1
    assert part.assignment[7] == 0
    assert part.fixed[3] and part.fixed[7]


def test_random_varies_with_seed(hg, balance):
    p1 = generate_initial(hg, balance, InitialSolution.RANDOM, random.Random(1))
    p2 = generate_initial(hg, balance, InitialSolution.RANDOM, random.Random(2))
    assert not np.array_equal(p1.assignment, p2.assignment)


def test_sorted_area_is_deterministic(hg, balance):
    p1 = generate_initial(hg, balance, InitialSolution.SORTED_AREA, random.Random(1))
    p2 = generate_initial(hg, balance, InitialSolution.SORTED_AREA, random.Random(99))
    assert np.array_equal(p1.assignment, p2.assignment)


def test_bfs_produces_lower_cut_than_random_on_average(hg, balance):
    """Region growth respects locality, so its cuts should usually beat
    purely random legal assignments."""
    random_cuts = []
    bfs_cuts = []
    for seed in range(8):
        random_cuts.append(
            generate_initial(
                hg, balance, InitialSolution.RANDOM, random.Random(seed)
            ).cut
        )
        bfs_cuts.append(
            generate_initial(
                hg, balance, InitialSolution.BFS, random.Random(seed)
            ).cut
        )
    assert sum(bfs_cuts) < sum(random_cuts)


def test_unknown_method_rejected(hg, balance):
    with pytest.raises(ValueError):
        generate_initial(hg, balance, "nope", random.Random(0))  # type: ignore[arg-type]

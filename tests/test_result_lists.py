"""Partitioner results stay plain Python data.

``Partition2`` keeps its state in numpy arrays, but every
``PartitionResult.assignment`` and every multistart ``best_assignment``
must be a ``list`` of ``int``: journals, reports and the service encode
them with ``json``, which rejects arrays and numpy integers alike.
"""

import json

import pytest

from repro.baselines import (
    AnnealingPartitioner,
    BFSGrowthPartitioner,
    KLPartitioner,
    RandomPartitioner,
    SpectralPartitioner,
    WeakFM,
)
from repro.core import FMConfig
from repro.core.lookahead import LookaheadFM
from repro.core.multistart import run_multistart
from repro.core.partitioner import FMPartitioner
from repro.core.pruning import PrunedMultistart
from repro.instances import generate_circuit
from repro.multilevel.mlpart import MLConfig, MLPartitioner
from repro.multilevel.pool import HierarchyPool

PARTITIONERS = {
    "fm": lambda: FMPartitioner(tolerance=0.1),
    "fm-clip-cnative": lambda: FMPartitioner(
        FMConfig(clip=True, backend="cnative"), tolerance=0.1
    ),
    "weak-fm": lambda: WeakFM(tolerance=0.1),
    "ml": lambda: MLPartitioner(tolerance=0.1),
    "ml-cnative-vcycle": lambda: MLPartitioner(
        MLConfig(vcycles=1), tolerance=0.1, backend="cnative"
    ),
    "random": lambda: RandomPartitioner(tolerance=0.1),
    "bfs": lambda: BFSGrowthPartitioner(tolerance=0.1),
    "annealing": lambda: AnnealingPartitioner(
        tolerance=0.1, moves_per_temperature=0.5
    ),
    "lookahead": lambda: LookaheadFM(depth=2, tolerance=0.1, max_passes=2),
    "pruned": lambda: PrunedMultistart(num_starts=2, tolerance=0.1),
    "kl": lambda: KLPartitioner(max_passes=1, tolerance=0.1),
    "spectral": lambda: SpectralPartitioner(tolerance=0.1),
}


@pytest.fixture(scope="module")
def hg():
    return generate_circuit(120, seed=4)


def assert_json_int_list(assignment, n):
    assert type(assignment) is list
    assert len(assignment) == n
    assert all(type(p) is int for p in assignment)
    assert json.loads(json.dumps(assignment)) == assignment


@pytest.mark.parametrize("name", sorted(PARTITIONERS))
def test_partition_result_assignment_is_int_list(hg, name):
    result = PARTITIONERS[name]().partition(hg, seed=3)
    assert_json_int_list(result.assignment, hg.num_vertices)


def test_multistart_best_assignment_is_int_list(hg):
    result = run_multistart(FMPartitioner(tolerance=0.1), hg, 3)
    assert_json_int_list(result.best_assignment, hg.num_vertices)


def test_pooled_multistart_best_assignment_is_int_list(hg):
    pool = HierarchyPool(hg, MLConfig(), 2)
    result = run_multistart(MLPartitioner(tolerance=0.1), hg, 3, pool=pool)
    assert_json_int_list(result.best_assignment, hg.num_vertices)

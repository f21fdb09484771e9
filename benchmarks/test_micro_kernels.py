"""Micro-benchmarks of the performance-critical kernels.

These are conventional pytest-benchmark timings (multiple rounds) of the
inner-loop primitives whose cost dominates FM runtime: single-vertex
moves with incremental cut maintenance, gain-bucket operations, one full
FM pass, and one coarsening level.  They track the substrate's speed —
the quantity CPU-time normalization (paper footnote 9) calibrates away.
"""

import random

from _common import bench_scale

from repro.core import (
    BalanceConstraint,
    FMConfig,
    FMEngine,
    GainBuckets,
    InsertionOrder,
    Partition2,
)
from repro.instances import suite_instance
from repro.multilevel import coarsen, heavy_edge_matching


def _instance():
    return suite_instance("ibm01s", scale=bench_scale())


def test_bench_partition_moves(benchmark):
    hg = _instance()
    rng = random.Random(0)
    part = Partition2(hg, [rng.randint(0, 1) for _ in range(hg.num_vertices)])
    order = [rng.randrange(hg.num_vertices) for _ in range(1000)]

    def run():
        for v in order:
            part.move(v)

    benchmark(run)
    part.check_consistency()


def test_bench_gain_bucket_ops(benchmark):
    rng = random.Random(0)
    n = 2000
    buckets = GainBuckets(n, 64, InsertionOrder.LIFO, rng)
    for v in range(n):
        buckets.insert(v, rng.randint(-64, 64))
    updates = [(rng.randrange(n), rng.randint(-64, 64)) for _ in range(2000)]

    def run():
        for v, k in updates:
            buckets.update(v, k)
        for _ in range(200):
            buckets.head()

    benchmark(run)


def test_bench_fm_pass(benchmark):
    hg = _instance()
    balance = BalanceConstraint(hg.total_vertex_weight, 0.1)
    rng = random.Random(0)
    base = Partition2.random_balanced(hg, balance, rng)

    def run():
        part = base.copy()
        FMEngine(balance, FMConfig(max_passes=1), random.Random(1)).refine(part)
        return part.cut

    cut = benchmark(run)
    assert cut <= base.cut


def test_bench_coarsen_level(benchmark):
    hg = _instance()

    def run():
        cluster = heavy_edge_matching(hg, random.Random(3))
        return coarsen(hg, cluster)

    level = benchmark(run)
    assert level.coarse.num_vertices < hg.num_vertices


def test_bench_cut_from_scratch(benchmark):
    hg = _instance()
    rng = random.Random(0)
    assignment = [rng.randint(0, 1) for _ in range(hg.num_vertices)]
    benchmark(lambda: hg.cut_size(assignment))

"""Tests for hierarchy pooling and coarsening stall guards.

The pooling contract (:mod:`repro.multilevel.pool`): coarsening
randomness and refinement randomness are split into independent
streams, so a pooled multistart is **bit-identical** to a serial run
that rebuilds the same hierarchies from the same hierarchy seeds — and
bit-identical to the frozen seed-oracle path (:mod:`tests.oracles.seed_ml`).
"""

import random

import numpy as np
import pytest

from repro.backends import BACKEND_NAMES, get_backend
from repro.core.perf import PerfCounters
from repro.hypergraph import Hypergraph
from repro.instances import generate_circuit
from repro.multilevel import (
    HierarchyPool,
    MLConfig,
    MLPartitioner,
    build_hierarchy,
    hierarchy_seed,
    run_multistart_pooled,
    shmetis,
)
from tests.oracles.seed_ml import seed_build_hierarchy, seed_ml_partition


@pytest.fixture
def hg():
    return generate_circuit(300, seed=21)


def seed_oracle_cuts(hg, num_starts, pool_size=2):
    """Per-start cuts of the frozen seed path, each start rebuilding
    hierarchy ``i % pool_size`` from its pooling seed (base seed 0)."""
    cfg = MLConfig()
    return [
        seed_ml_partition(
            seed_build_hierarchy(
                hg, cfg, random.Random(hierarchy_seed(0, i % pool_size))
            ),
            cfg,
            0.1,
            seed=i,
        ).cut
        for i in range(num_starts)
    ]


class TestHierarchySeed:
    def test_deterministic_and_distinct(self):
        assert hierarchy_seed(0, 0) == hierarchy_seed(0, 0)
        seeds = {hierarchy_seed(b, j) for b in range(20) for j in range(8)}
        assert len(seeds) == 160

    def test_disjoint_from_start_seeds(self):
        # Start seeds are base_seed + i for small i; hierarchy seeds must
        # never collide with them for any realistic start count.
        base = 0
        start_seeds = {base + i for i in range(100_000)}
        for j in range(8):
            assert hierarchy_seed(base, j) not in start_seeds


class TestBuildHierarchy:
    def test_reaches_coarsest_size(self, hg):
        cfg = MLConfig()
        h = build_hierarchy(hg, cfg, random.Random(0))
        assert h.coarsest.num_vertices <= cfg.coarsest_size
        assert h.num_levels == len(h.levels)
        assert h.hypergraph is hg
        sizes = [level.fine.num_vertices for level, _ in h.levels]
        assert sizes == sorted(sizes, reverse=True)

    def test_oracle_and_kernel_hierarchies_identical(self, hg):
        cfg = MLConfig()
        hk = build_hierarchy(hg, cfg, random.Random(3))
        ho = seed_build_hierarchy(hg, cfg, random.Random(3))
        assert hk.num_levels == ho.num_levels
        for (lk, fk), (lo, fo) in zip(hk.levels, ho.levels):
            assert np.array_equal(lk.cluster_of, lo.cluster_of)
            assert fk == fo
        assert hk.coarsest.num_vertices == ho.coarsest.num_vertices

    def test_perf_counters(self, hg):
        perf = PerfCounters()
        h = build_hierarchy(hg, MLConfig(), random.Random(0), perf=perf)
        assert perf.hierarchies_built == 1
        assert perf.coarsen_levels == h.num_levels > 0
        assert perf.coarsen_seconds > 0.0

    def test_fixed_signature(self, hg):
        fixed = [None] * hg.num_vertices
        fixed[0], fixed[1] = 0, 1
        h = build_hierarchy(hg, MLConfig(), random.Random(0), fixed_parts=fixed)
        assert h.fixed_signature == tuple(fixed)
        # Empty fixed_parts means "no fixed vertices" (truthiness), to
        # agree with MLPartitioner.partition.
        h2 = build_hierarchy(hg, MLConfig(), random.Random(0), fixed_parts=[])
        assert h2.fixed_signature is None


class TestStallGuard:
    """Coarsening must abort cleanly when matching cannot shrink the
    hypergraph at all — even with ``min_reduction <= 1.0``, which the
    reduction test alone would let loop forever."""

    @staticmethod
    def _clique_like():
        # One 50-pin net: larger than the default max_net_size, so every
        # matching scheme sees no eligible net and produces all
        # singletons — zero progress.
        return Hypergraph([list(range(50))], 50)

    def test_build_hierarchy_terminates(self):
        hg = self._clique_like()
        cfg = MLConfig(min_reduction=1.0, coarsest_size=40)
        h = build_hierarchy(hg, cfg, random.Random(0))
        assert h.num_levels == 0
        assert h.coarsest is hg

    def test_oracle_build_terminates(self):
        hg = self._clique_like()
        cfg = MLConfig(min_reduction=1.0, coarsest_size=40)
        h = seed_build_hierarchy(hg, cfg, random.Random(0))
        assert h.num_levels == 0

    def test_partition_terminates_and_is_legal(self):
        hg = self._clique_like()
        cfg = MLConfig(min_reduction=1.0, coarsest_size=40)
        result = MLPartitioner(cfg, tolerance=0.1).partition(hg, seed=0)
        assert result.legal

    def test_vcycle_terminates(self):
        hg = self._clique_like()
        cfg = MLConfig(min_reduction=1.0, coarsest_size=40, vcycles=1)
        result = MLPartitioner(cfg, tolerance=0.1).partition(hg, seed=0)
        assert result.legal


class TestHierarchyPool:
    def test_lazy_and_cycling(self, hg):
        perf = PerfCounters()
        pool = HierarchyPool(hg, MLConfig(), 2, base_seed=5, perf=perf)
        assert len(pool) == 2
        assert pool.num_built == 0
        h0 = pool.get(0)
        assert pool.num_built == 1
        assert pool.get(2) is h0  # start 2 cycles back to hierarchy 0
        h1 = pool.get(1)
        assert pool.num_built == 2
        assert h1 is not h0
        assert pool.get(3) is h1
        assert perf.hierarchies_built == 2
        assert perf.hierarchies_reused == 2

    def test_pool_matches_serial_rebuild(self, hg):
        cfg = MLConfig()
        pool = HierarchyPool(hg, cfg, 2, base_seed=7)
        for i in range(4):
            serial = build_hierarchy(
                hg, cfg, random.Random(hierarchy_seed(7, i % 2))
            )
            pooled = pool.get(i)
            assert pooled.seed == hierarchy_seed(7, i % 2)
            assert serial.num_levels == pooled.num_levels
            for (ls, _), (lp, _) in zip(serial.levels, pooled.levels):
                assert np.array_equal(ls.cluster_of, lp.cluster_of)

    def test_bad_size_rejected(self, hg):
        with pytest.raises(ValueError):
            HierarchyPool(hg, MLConfig(), 0)

    def test_concurrent_get_builds_each_slot_once(self, hg, monkeypatch):
        """Many threads requesting the same slot at once (the service
        scheduler's shared-pool pattern) must trigger exactly one build:
        losers of the build race block on the lock and then reuse."""
        import threading
        import time

        import repro.multilevel.pool as pool_mod

        real_build = pool_mod.build_hierarchy
        build_calls = []

        def slow_build(*args, **kwargs):
            build_calls.append(threading.get_ident())
            time.sleep(0.05)  # widen the race window
            return real_build(*args, **kwargs)

        monkeypatch.setattr(pool_mod, "build_hierarchy", slow_build)

        perf = PerfCounters()
        pool = HierarchyPool(hg, MLConfig(), 1, base_seed=3, perf=perf)
        n = 8
        barrier = threading.Barrier(n)
        results = [None] * n
        errors = []

        def worker(k):
            try:
                barrier.wait()
                results[k] = pool.get(0)
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors
        assert len(build_calls) == 1  # exactly one build for the slot
        assert pool.num_built == 1
        assert all(r is results[0] for r in results)
        assert perf.hierarchies_built == 1
        assert perf.hierarchies_reused == n - 1


class TestPartitionWithHierarchy:
    def test_wrong_hypergraph_rejected(self, hg):
        other = generate_circuit(100, seed=1)
        h = build_hierarchy(other, MLConfig(), random.Random(0))
        with pytest.raises(ValueError, match="different hypergraph"):
            MLPartitioner().partition(hg, hierarchy=h)

    def test_fixed_mismatch_rejected(self, hg):
        fixed = [None] * hg.num_vertices
        fixed[0] = 0
        h = build_hierarchy(hg, MLConfig(), random.Random(0))
        with pytest.raises(ValueError, match="fixed_parts"):
            MLPartitioner().partition(hg, fixed_parts=fixed, hierarchy=h)

    def test_fixed_sides_respected_through_pool(self, hg):
        fixed = [None] * hg.num_vertices
        for v in range(0, 20):
            fixed[v] = v % 2
        pool = HierarchyPool(hg, MLConfig(), 2, fixed_parts=fixed)
        result = MLPartitioner(tolerance=0.1).partition(
            hg, seed=3, fixed_parts=fixed, hierarchy=pool.get(0)
        )
        for v in range(0, 20):
            assert result.assignment[v] == v % 2


class TestPooledMultistart:
    def test_serial_equals_pooled(self, hg):
        """The pooling contract: same seeds, bit-identical records."""
        engine = MLPartitioner(tolerance=0.1)
        pooled = run_multistart_pooled(
            engine, hg, 6, base_seed=11, pool_size=2
        )
        serial_cuts = []
        cfg = MLConfig()
        serial_engine = MLPartitioner(tolerance=0.1)
        for i in range(6):
            h = build_hierarchy(
                hg, cfg, random.Random(hierarchy_seed(11, i % 2))
            )
            serial_cuts.append(
                serial_engine.partition(hg, seed=11 + i, hierarchy=h).cut
            )
        assert [s.cut for s in pooled.starts] == serial_cuts

    def test_kernel_equals_seed_oracle(self, hg):
        """Pooled kernel path vs per-start oracle rebuild with frozen
        seed engines."""
        pooled = run_multistart_pooled(
            MLPartitioner(tolerance=0.1), hg, 4, base_seed=0, pool_size=2
        )
        assert [s.cut for s in pooled.starts] == seed_oracle_cuts(hg, 4)

    @pytest.mark.parametrize(
        "backend",
        [n for n in BACKEND_NAMES
         if n != "numpy" and get_backend(n).available],
    )
    def test_backend_equals_seed_oracle(self, hg, backend):
        """The same pooled run with matching, contraction and FM on a
        registry backend."""
        pooled = run_multistart_pooled(
            MLPartitioner(tolerance=0.1, backend=backend),
            hg, 4, base_seed=0, pool_size=2,
        )
        assert [s.cut for s in pooled.starts] == seed_oracle_cuts(hg, 4)

    def test_best_assignment_matches_best_cut(self, hg):
        ms = run_multistart_pooled(
            MLPartitioner(tolerance=0.1), hg, 3, base_seed=2
        )
        assert hg.cut_size(ms.best_assignment) == ms.min_cut

    def test_foreign_pool_rejected(self, hg):
        other = generate_circuit(100, seed=1)
        pool = HierarchyPool(other, MLConfig(), 2)
        with pytest.raises(ValueError, match="different hypergraph"):
            run_multistart_pooled(MLPartitioner(), hg, 2, pool=pool)

    def test_bad_num_starts(self, hg):
        with pytest.raises(ValueError):
            run_multistart_pooled(MLPartitioner(), hg, 0)

    def test_shmetis_pooled_path_still_legal(self, hg):
        res = shmetis(hg, k=2, ubfactor=5.0, nruns=3, seed=1)
        weights = hg.part_weights(res.assignment, 2)
        total = hg.total_vertex_weight
        assert max(weights) <= 0.55 * total + max(
            hg.vertex_weight(v) for v in hg.vertices()
        )

"""Tests for clustering schemes and hypergraph coarsening."""

import random
import sys
import threading

import pytest

from repro.core.perf import PerfCounters
from repro.instances import generate_circuit, random_hypergraph
from repro.multilevel import (
    coarsen,
    first_choice_clustering,
    heavy_edge_matching,
    restricted_matching,
)


@pytest.fixture
def hg():
    return generate_circuit(200, seed=50)


class TestHeavyEdgeMatching:
    def test_clusters_have_at_most_two_members(self, hg):
        cluster = heavy_edge_matching(hg, random.Random(0))
        sizes = {}
        for c in cluster:
            sizes[c] = sizes.get(c, 0) + 1
        assert max(sizes.values()) <= 2

    def test_every_vertex_clustered(self, hg):
        cluster = heavy_edge_matching(hg, random.Random(0))
        assert len(cluster) == hg.num_vertices
        assert all(c >= 0 for c in cluster)

    def test_reduces_size(self, hg):
        cluster = heavy_edge_matching(hg, random.Random(0))
        assert len(set(cluster)) < hg.num_vertices * 0.75

    def test_weight_cap_respected(self, hg):
        cap = 10.0
        cluster = heavy_edge_matching(hg, random.Random(0), max_cluster_weight=cap)
        weight = {}
        for v, c in enumerate(cluster):
            weight[c] = weight.get(c, 0.0) + hg.vertex_weight(v)
        singleton_ok = {
            c: w
            for c, w in weight.items()
            if w > cap
        }
        # Overweight clusters may only be singletons (unmatchable cells).
        counts = {}
        for c in cluster:
            counts[c] = counts.get(c, 0) + 1
        for c in singleton_ok:
            assert counts[c] == 1

    def test_fixed_conflict_prevents_merge(self, hg):
        fixed = [None] * hg.num_vertices
        # Fix everything alternately: no pair may merge across sides.
        for v in range(hg.num_vertices):
            fixed[v] = v % 2
        cluster = heavy_edge_matching(hg, random.Random(0), fixed_parts=fixed)
        members = {}
        for v, c in enumerate(cluster):
            members.setdefault(c, []).append(v)
        for vs in members.values():
            if len(vs) == 2:
                assert fixed[vs[0]] == fixed[vs[1]]


class TestFirstChoice:
    def test_stronger_reduction_than_matching(self, hg):
        m = len(set(heavy_edge_matching(hg, random.Random(0))))
        fc = len(set(first_choice_clustering(hg, random.Random(0))))
        assert fc <= m

    def test_weight_cap(self, hg):
        cap = 12.0
        cluster = first_choice_clustering(
            hg, random.Random(0), max_cluster_weight=cap
        )
        weight = {}
        counts = {}
        for v, c in enumerate(cluster):
            weight[c] = weight.get(c, 0.0) + hg.vertex_weight(v)
            counts[c] = counts.get(c, 0) + 1
        for c, w in weight.items():
            if w > cap:
                assert counts[c] == 1


class TestRestrictedMatching:
    def test_only_same_side_merges(self, hg):
        rng = random.Random(1)
        assignment = [rng.randint(0, 1) for _ in range(hg.num_vertices)]
        cluster = restricted_matching(hg, assignment, random.Random(2))
        members = {}
        for v, c in enumerate(cluster):
            members.setdefault(c, []).append(v)
        for vs in members.values():
            sides = {assignment[v] for v in vs}
            assert len(sides) == 1


class TestCoarsen:
    def test_weight_conserved(self, hg):
        cluster = heavy_edge_matching(hg, random.Random(0))
        level = coarsen(hg, cluster)
        assert level.coarse.total_vertex_weight == pytest.approx(
            hg.total_vertex_weight
        )

    def test_projection_preserves_cut(self, hg):
        """The defining invariant: a coarse assignment and its fine
        projection have identical cuts."""
        rng = random.Random(3)
        cluster = heavy_edge_matching(hg, rng)
        level = coarsen(hg, cluster)
        coarse_assignment = [
            rng.randint(0, 1) for _ in range(level.coarse.num_vertices)
        ]
        fine = level.project_assignment(coarse_assignment)
        assert hg.cut_size(fine) == pytest.approx(
            level.coarse.cut_size(coarse_assignment)
        )

    def test_identical_nets_merged(self):
        hg = random_hypergraph(10, 20, seed=4)
        # Collapse everything into 2 clusters: all surviving nets span
        # both clusters and must merge into a single weighted net.
        cluster = [v % 2 for v in range(10)]
        level = coarsen(hg, cluster)
        assert level.coarse.num_nets <= 1
        if level.coarse.num_nets == 1:
            expected = sum(
                hg.net_weight(e)
                for e in hg.nets()
                if len({cluster[v] for v in hg.pins_of(e)}) == 2
            )
            assert level.coarse.net_weight(0) == pytest.approx(expected)

    def test_sub2pin_nets_dropped(self):
        hg = random_hypergraph(10, 15, seed=5)
        cluster = [0] * 10
        level = coarsen(hg, cluster)
        assert level.coarse.num_nets == 0
        assert level.coarse.num_vertices == 1

    def test_sparse_cluster_ids_renumbered(self):
        hg = random_hypergraph(4, 5, seed=6)
        level = coarsen(hg, [100, 100, 7, 7])
        assert level.coarse.num_vertices == 2

    def test_bad_cluster_map_rejected(self, hg):
        with pytest.raises(ValueError):
            coarsen(hg, [0])
        with pytest.raises(ValueError):
            coarsen(hg, [-1] * hg.num_vertices)


class TestThreads:
    def test_concurrent_calls_equal_serial_ones(self):
        """The interpreted matchers and ``coarsen`` keep no state between
        calls, so four threads clustering and contracting two instances
        at once, switching every 10 microseconds, get the serial
        results: cluster maps, coarse levels and touched counts."""
        instances = [generate_circuit(3000, seed=s) for s in (1, 2)]

        def work(hg):
            perf = PerfCounters()
            hem = heavy_edge_matching(hg, random.Random(5), perf=perf,
                                      backend="numpy")
            fc = first_choice_clustering(hg, random.Random(6), perf=perf,
                                         backend="numpy")
            level = coarsen(hg, fc, backend="numpy")
            return (hem.tolist(), fc.tolist(), level.cluster_of.tolist(),
                    [a.tolist() for a in level.coarse.csr],
                    level.coarse.vertex_weight_list,
                    perf.coarsen_neighbors_touched)

        serial = [work(hg) for hg in instances]
        results = [None] * 4

        def run(i):
            results[i] = work(instances[i % 2])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert results == [serial[i % 2] for i in range(4)]

"""Tests for the multilevel partitioner and V-cycling."""

import weakref

import pytest

from repro.backends import get_backend
from repro.core import FMConfig, FMPartitioner
from repro.core.engine import FMEngine
from repro.instances import generate_circuit
from repro.multilevel import MLConfig, MLPartitioner, mlpart
from repro.multilevel.pool import HierarchyPool


@pytest.fixture(scope="module")
def hg():
    return generate_circuit(500, seed=60)


class TestMLPartitioner:
    def test_produces_legal_solution(self, hg):
        result = MLPartitioner(tolerance=0.1).partition(hg, seed=0)
        assert result.legal
        assert result.cut == hg.cut_size(result.assignment)

    def test_deterministic(self, hg):
        ml = MLPartitioner(tolerance=0.1)
        r1 = ml.partition(hg, seed=3)
        r2 = ml.partition(hg, seed=3)
        assert r1.assignment == r2.assignment

    def test_beats_flat_on_average(self, hg):
        """The paper's strength ordering: ML engines dominate flat ones."""
        flat_avg = sum(
            FMPartitioner(tolerance=0.1).partition(hg, seed=s).cut
            for s in range(4)
        )
        ml_avg = sum(
            MLPartitioner(tolerance=0.1).partition(hg, seed=s).cut
            for s in range(4)
        )
        assert ml_avg < flat_avg

    def test_clip_refinement_variant(self, hg):
        cfg = MLConfig(fm_config=FMConfig(clip=True))
        result = MLPartitioner(cfg, tolerance=0.1).partition(hg, seed=0)
        assert result.legal

    def test_first_choice_clustering_variant(self, hg):
        cfg = MLConfig(clustering="first_choice")
        result = MLPartitioner(cfg, tolerance=0.1).partition(hg, seed=0)
        assert result.legal

    def test_unknown_clustering_rejected(self):
        with pytest.raises(ValueError):
            MLPartitioner(MLConfig(clustering="magic"))

    def test_fixed_vertices_respected(self, hg):
        fixed = [None] * hg.num_vertices
        for v in range(0, 40):
            fixed[v] = v % 2
        result = MLPartitioner(tolerance=0.1).partition(
            hg, seed=0, fixed_parts=fixed
        )
        for v in range(0, 40):
            assert result.assignment[v] == v % 2

    def test_tiny_instance_skips_coarsening(self):
        small = generate_circuit(40, seed=61)
        result = MLPartitioner(
            MLConfig(coarsest_size=100), tolerance=0.34
        ).partition(small, seed=0)
        assert result.cut == small.cut_size(result.assignment)

    def test_name(self):
        assert MLPartitioner().name.startswith("ML FM/")
        assert "CLIP" in MLPartitioner(
            MLConfig(fm_config=FMConfig(clip=True))
        ).name


class TestVCycle:
    def test_vcycle_never_worsens(self, hg):
        ml = MLPartitioner(tolerance=0.1)
        base = ml.partition(hg, seed=1)
        improved = ml.vcycle(hg, base.assignment, seed=2, rounds=1)
        assert improved.cut <= base.cut
        assert improved.legal

    def test_vcycles_in_partition_config(self, hg):
        with_v = MLPartitioner(MLConfig(vcycles=1), tolerance=0.1)
        result = with_v.partition(hg, seed=1)
        assert result.legal

    def test_multiple_rounds(self, hg):
        ml = MLPartitioner(tolerance=0.1)
        base = ml.partition(hg, seed=4)
        r2 = ml.vcycle(hg, base.assignment, seed=5, rounds=2)
        assert r2.cut <= base.cut


class TestLevelRelease:
    """A start releases the levels of a hierarchy it built itself as
    uncoarsening passes them; a hierarchy it is handed stays whole."""

    @pytest.mark.parametrize("backend", ["numpy", "cnative"])
    def test_no_coarser_level_alive_at_the_finest_refine(
            self, hg, backend, monkeypatch):
        if not get_backend(backend).available:
            pytest.skip(f"{backend} unavailable")
        expected = MLPartitioner(tolerance=0.1, backend=backend).partition(
            hg, seed=1)
        coarse = []
        build = mlpart.build_hierarchy

        def recording(*args, **kwargs):
            hierarchy = build(*args, **kwargs)
            coarse.extend(weakref.ref(level.coarse)
                          for level, _ in hierarchy.levels)
            return hierarchy

        alive = []
        refine = FMEngine.refine

        def watching(engine, partition):
            if partition.hypergraph is hg:
                alive.append(sum(ref() is not None for ref in coarse))
            return refine(engine, partition)

        monkeypatch.setattr(mlpart, "build_hierarchy", recording)
        monkeypatch.setattr(FMEngine, "refine", watching)
        result = MLPartitioner(tolerance=0.1, backend=backend).partition(
            hg, seed=1)
        assert len(coarse) > 2 and alive == [0]
        assert (result.cut, result.assignment) == (
            expected.cut, expected.assignment)

    def test_supplied_hierarchy_keeps_every_level(self, hg):
        hierarchy = HierarchyPool(hg, MLConfig(), 1).get(0)
        levels = [weakref.ref(level.coarse)
                  for level, _ in hierarchy.levels]
        ml = MLPartitioner(tolerance=0.1)
        runs = [ml.partition(hg, seed=2, hierarchy=hierarchy)
                for _ in range(2)]
        assert len(hierarchy.levels) == len(levels) > 2
        assert all(ref() is level.coarse
                   for ref, (level, _) in zip(levels, hierarchy.levels))
        assert (runs[0].cut, runs[0].assignment) == (
            runs[1].cut, runs[1].assignment)

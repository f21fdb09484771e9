"""Kernel-vs-seed equivalence suite for the coarsening kernels.

Mirrors ``test_kernel_equivalence.py`` one layer up: the rewritten
matching/contraction kernels (:mod:`repro.multilevel.matching`,
:mod:`repro.multilevel.coarsen`) are pinned to the frozen seed oracle
(:mod:`tests.oracles._seed_coarsen`) — identical cluster maps,
identical coarse hypergraphs (CSR arrays and weights), identical RNG
stream consumption — across every clustering scheme, the
``max_net_size``/``max_cluster_weight`` knobs, fixed vertices, and
hypothesis-fuzzed instances.

Also here: the trusted :meth:`Hypergraph.from_csr` constructor's
``validate=True`` error surface, ``project_assignment_into`` (the
allocation-free projection the multilevel refiner uses), and the
:meth:`Partition2.fast` numpy constructor's exact agreement with the
plain constructor.
"""

import random
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BalanceConstraint, Partition2
from repro.hypergraph import Hypergraph
from repro.instances import generate_circuit, random_hypergraph
from repro.multilevel import (
    coarsen,
    first_choice_clustering,
    heavy_edge_matching,
    hyperedge_coarsening,
    restricted_matching,
)
from tests.oracles import _seed_coarsen as _oracle

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: (kernel, frozen oracle) pairs for the three free clustering schemes.
SCHEMES = [
    (heavy_edge_matching, _oracle.seed_heavy_edge_matching, "heavy_edge"),
    (first_choice_clustering, _oracle.seed_first_choice_clustering,
     "first_choice"),
    (hyperedge_coarsening, _oracle.seed_hyperedge_coarsening, "hyperedge"),
]


def assert_same_hypergraph(a: Hypergraph, b: Hypergraph) -> None:
    """Structural equality: CSR arrays and both weight vectors."""
    assert a.num_vertices == b.num_vertices
    assert a.num_nets == b.num_nets
    a_ptr, a_pins, a_vptr, a_vnets = a.raw_csr
    b_ptr, b_pins, b_vptr, b_vnets = b.raw_csr
    assert a_ptr == b_ptr
    assert a_pins == b_pins
    assert a_vptr == b_vptr
    assert a_vnets == b_vnets
    assert [a.vertex_weight(v) for v in a.vertices()] == [
        b.vertex_weight(v) for v in b.vertices()
    ]
    assert [a.net_weight(e) for e in a.nets()] == [
        b.net_weight(e) for e in b.nets()
    ]


def assert_matching_equivalent(hg, kernel, seed_fn, rng_seed=0, **kwargs):
    """Same cluster map AND same RNG stream consumption."""
    rng_k = random.Random(rng_seed)
    rng_s = random.Random(rng_seed)
    cluster_k = kernel(hg, rng_k, **kwargs)
    cluster_s = seed_fn(hg, rng_s, **kwargs)
    assert np.array_equal(cluster_k, cluster_s)
    # Both implementations must draw exactly the same randomness, or a
    # later consumer of the shared RNG would silently diverge.
    assert rng_k.random() == rng_s.random()
    return cluster_k


class TestMatchingEquivalence:
    @pytest.mark.parametrize("kernel,seed_fn,name", SCHEMES)
    @pytest.mark.parametrize("unit_areas", [False, True])
    def test_schemes_on_circuits(self, kernel, seed_fn, name, unit_areas):
        hg = generate_circuit(150, seed=9, unit_areas=unit_areas)
        for rng_seed in range(3):
            assert_matching_equivalent(hg, kernel, seed_fn, rng_seed)

    @pytest.mark.parametrize("kernel,seed_fn,name", SCHEMES)
    @pytest.mark.parametrize("max_net_size", [2, 3, 10, 40])
    def test_max_net_size(self, kernel, seed_fn, name, max_net_size):
        hg = generate_circuit(120, seed=4)
        assert_matching_equivalent(
            hg, kernel, seed_fn, max_net_size=max_net_size
        )

    @pytest.mark.parametrize("kernel,seed_fn,name", SCHEMES)
    @pytest.mark.parametrize("cap", [1.0, 3.0, 8.0, None])
    def test_max_cluster_weight(self, kernel, seed_fn, name, cap):
        hg = generate_circuit(120, seed=6, macro_fraction=0.1)
        assert_matching_equivalent(
            hg, kernel, seed_fn, max_cluster_weight=cap
        )

    @pytest.mark.parametrize("kernel,seed_fn,name", SCHEMES)
    def test_fixed_vertices(self, kernel, seed_fn, name):
        hg = generate_circuit(100, seed=2)
        rng = random.Random(5)
        fixed = [
            rng.randint(0, 1) if rng.random() < 0.2 else None
            for _ in range(hg.num_vertices)
        ]
        assert_matching_equivalent(
            hg, kernel, seed_fn, fixed_parts=fixed
        )

    def test_restricted_matching(self):
        hg = generate_circuit(150, seed=3)
        rng = random.Random(1)
        assignment = [rng.randint(0, 1) for _ in range(hg.num_vertices)]
        for rng_seed in range(3):
            rng_k, rng_s = random.Random(rng_seed), random.Random(rng_seed)
            ck = restricted_matching(hg, assignment, rng_k)
            cs = _oracle.seed_restricted_matching(hg, assignment, rng_s)
            assert np.array_equal(ck, cs)
            assert rng_k.random() == rng_s.random()

    def test_weighted_instance(self):
        hg = random_hypergraph(60, 90, seed=8, unit_areas=False)
        for kernel, seed_fn, _ in SCHEMES:
            assert_matching_equivalent(hg, kernel, seed_fn)


class TestCoarsenEquivalence:
    @pytest.mark.parametrize("kernel,seed_fn,name", SCHEMES)
    def test_contraction_matches_oracle(self, kernel, seed_fn, name):
        hg = generate_circuit(150, seed=9)
        cluster = assert_matching_equivalent(hg, kernel, seed_fn)
        level_k = coarsen(hg, cluster)
        level_s = _oracle.seed_coarsen(hg, cluster)
        assert np.array_equal(level_k.cluster_of, level_s.cluster_of)
        assert_same_hypergraph(level_k.coarse, level_s.coarse)

    def test_multilevel_descent_matches_oracle(self):
        # Chain three levels through both implementations.
        hg_k = hg_s = generate_circuit(200, seed=12)
        rng_k, rng_s = random.Random(0), random.Random(0)
        for _ in range(3):
            lk = coarsen(hg_k, heavy_edge_matching(hg_k, rng_k))
            ls = _oracle.seed_coarsen(
                hg_s, _oracle.seed_heavy_edge_matching(hg_s, rng_s)
            )
            assert np.array_equal(lk.cluster_of, ls.cluster_of)
            assert_same_hypergraph(lk.coarse, ls.coarse)
            hg_k, hg_s = lk.coarse, ls.coarse

    def test_sparse_ids_and_degenerate_maps(self):
        hg = random_hypergraph(10, 20, seed=4)
        for cluster in ([7, 7, 100, 100, 3, 3, 9, 9, 5, 5], [0] * 10):
            lk = coarsen(hg, list(cluster))
            ls = _oracle.seed_coarsen(hg, list(cluster))
            assert np.array_equal(lk.cluster_of, ls.cluster_of)
            assert_same_hypergraph(lk.coarse, ls.coarse)


@st.composite
def hypergraphs(draw, max_vertices=30, max_nets=45):
    n = draw(st.integers(min_value=4, max_value=max_vertices))
    num_nets = draw(st.integers(min_value=2, max_value=max_nets))
    nets = []
    for _ in range(num_nets):
        size = draw(st.integers(min_value=2, max_value=min(6, n)))
        nets.append(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=size,
                    max_size=size,
                    unique=True,
                )
            )
        )
    vertex_weights = draw(
        st.lists(st.integers(min_value=1, max_value=9), min_size=n, max_size=n)
    )
    net_weights = draw(
        st.lists(
            st.integers(min_value=1, max_value=4),
            min_size=num_nets,
            max_size=num_nets,
        )
    )
    return Hypergraph(
        nets,
        num_vertices=n,
        vertex_weights=vertex_weights,
        net_weights=net_weights,
    )


class TestPropertyEquivalence:
    @SETTINGS
    @given(
        hg=hypergraphs(),
        scheme=st.sampled_from(SCHEMES),
        rng_seed=st.integers(min_value=0, max_value=2**16),
        max_net_size=st.sampled_from([2, 4, 40]),
        cap=st.sampled_from([2.0, 6.0, None]),
    )
    def test_random_hypergraph_random_scheme(
        self, hg, scheme, rng_seed, max_net_size, cap
    ):
        kernel, seed_fn, _ = scheme
        cluster = assert_matching_equivalent(
            hg, kernel, seed_fn, rng_seed,
            max_net_size=max_net_size, max_cluster_weight=cap,
        )
        lk = coarsen(hg, cluster)
        ls = _oracle.seed_coarsen(hg, cluster)
        assert np.array_equal(lk.cluster_of, ls.cluster_of)
        assert_same_hypergraph(lk.coarse, ls.coarse)


class TestFromCsrValidation:
    """``from_csr(validate=True)`` must reject what the list-of-lists
    constructor rejects; the trusted path is for kernel-built CSR only."""

    def _ok(self):
        # nets [0,1] and [1,2] over 3 vertices.
        return [0, 2, 4], [0, 1, 1, 2], 3, [1.0, 1.0, 1.0], [1.0, 1.0]

    def test_valid_csr_roundtrips(self):
        ptr, pins, n, vw, nw = self._ok()
        hg = Hypergraph.from_csr(ptr, pins, n, vw, nw, validate=True)
        assert hg.num_vertices == 3 and hg.num_nets == 2
        assert list(hg.pins_of(0)) == [0, 1]
        assert list(hg.nets_of(1)) == [0, 1]

    def test_bad_prefix_array(self):
        ptr, pins, n, vw, nw = self._ok()
        with pytest.raises(ValueError, match="prefix"):
            Hypergraph.from_csr([1, 2, 4], pins, n, vw, nw, validate=True)
        with pytest.raises(ValueError, match="prefix"):
            Hypergraph.from_csr([0, 2, 3], pins, n, vw, nw, validate=True)

    def test_pin_out_of_range(self):
        ptr, pins, n, vw, nw = self._ok()
        with pytest.raises(ValueError, match="outside"):
            Hypergraph.from_csr(ptr, [0, 1, 1, 3], n, vw, nw, validate=True)

    def test_duplicate_pin(self):
        ptr, pins, n, vw, nw = self._ok()
        with pytest.raises(ValueError, match="duplicate"):
            Hypergraph.from_csr(ptr, [0, 0, 1, 2], n, vw, nw, validate=True)

    def test_weight_length_and_sign(self):
        ptr, pins, n, vw, nw = self._ok()
        with pytest.raises(ValueError, match="vertex_weights"):
            Hypergraph.from_csr(ptr, pins, n, [1.0], nw, validate=True)
        with pytest.raises(ValueError, match="net_weights"):
            Hypergraph.from_csr(ptr, pins, n, vw, [1.0], validate=True)
        with pytest.raises(ValueError, match="negative"):
            Hypergraph.from_csr(
                ptr, pins, n, [1.0, -1.0, 1.0], nw, validate=True
            )

    def test_trusted_path_skips_validation(self):
        # The ownership-transfer contract: no checks, adopted verbatim.
        ptr, pins, n, vw, nw = self._ok()
        hg = Hypergraph.from_csr(ptr, pins, n, vw, nw)
        assert hg.raw_csr[0] is ptr
        assert hg.raw_csr[1] is pins


class TestProjectAssignmentInto:
    def test_matches_fresh_projection(self):
        hg = generate_circuit(150, seed=7)
        level = coarsen(hg, heavy_edge_matching(hg, random.Random(2)))
        rng = random.Random(3)
        coarse = [rng.randint(0, 1) for _ in range(level.coarse.num_vertices)]
        buf = np.full(hg.num_vertices, 9, dtype=np.int64)
        out = level.project_assignment_into(coarse, buf)
        assert out is buf
        assert np.array_equal(buf, level.project_assignment(coarse))

    def test_buffer_length_mismatch_raises(self):
        hg = generate_circuit(60, seed=1)
        level = coarsen(hg, heavy_edge_matching(hg, random.Random(0)))
        coarse = [0] * level.coarse.num_vertices
        with pytest.raises(ValueError, match="projection buffer"):
            level.project_assignment_into(coarse, [0] * (hg.num_vertices - 1))


class TestPartitionFast:
    """``Partition2.fast`` must agree exactly with the plain constructor
    in the all-integral regime and fall back to it everywhere else."""

    def assert_same(self, hg, assignment, fixed=None):
        fast = Partition2.fast(hg, assignment, fixed)
        plain = Partition2(hg, assignment, fixed)
        assert np.array_equal(fast.assignment, plain.assignment)
        assert fast.cut == plain.cut
        assert fast.part_weights == plain.part_weights
        for side in (0, 1):
            assert np.array_equal(
                fast.pins_in_part[side], plain.pins_in_part[side]
            )
        assert np.array_equal(fast.fixed, plain.fixed)
        fast.check_consistency()

    def test_integral_instances(self):
        for seed in range(3):
            hg = generate_circuit(120, seed=seed)
            rng = random.Random(seed)
            assignment = [rng.randint(0, 1) for _ in range(hg.num_vertices)]
            self.assert_same(hg, assignment)

    def test_fixed_vertices(self):
        hg = generate_circuit(80, seed=4)
        rng = random.Random(1)
        assignment = [rng.randint(0, 1) for _ in range(hg.num_vertices)]
        fixed = [rng.random() < 0.2 for _ in range(hg.num_vertices)]
        self.assert_same(hg, assignment, fixed)

    def test_float_weights_fall_back(self):
        hg = Hypergraph([[0, 1], [1, 2]], 3, net_weights=[0.5, 1.5])
        part = Partition2.fast(hg, [0, 0, 1])
        assert not part.integral_nets
        assert part.cut == pytest.approx(1.5)
        part.check_consistency()

    def test_invalid_assignment_rejected(self):
        hg = generate_circuit(40, seed=0)
        with pytest.raises(ValueError):
            Partition2.fast(hg, [2] * hg.num_vertices)
        with pytest.raises(ValueError):
            Partition2.fast(hg, [0] * (hg.num_vertices - 1))

    def test_moves_after_fast_construction(self):
        # The fast path shares weight lists with the hypergraph; moves
        # must keep the ledger exact afterwards.
        hg = generate_circuit(60, seed=2)
        rng = random.Random(0)
        part = Partition2.fast(
            hg, [rng.randint(0, 1) for _ in range(hg.num_vertices)]
        )
        for _ in range(50):
            part.move(rng.randrange(hg.num_vertices))
        part.check_consistency()


# ----------------------------------------------------------------------
# Registry-backend sweeps: coarsening kernels per backend
# ----------------------------------------------------------------------
from repro.backends import BACKEND_NAMES, get_backend  # noqa: E402

#: Free clustering schemes by kernel (the backend sweep compares the
#: production kernel against itself on another backend, so the frozen
#: oracle column is not needed here).
BACKEND_SCHEMES = [
    (heavy_edge_matching, "heavy_edge"),
    (first_choice_clustering, "first_choice"),
    (hyperedge_coarsening, "hyperedge"),
]


def _available_backends():
    return [
        name
        for name in BACKEND_NAMES
        if name != "numpy" and get_backend(name).available
    ]


def assert_backend_matching_equivalent(hg, kernel, backend, rng_seed=0,
                                       **kwargs):
    """Same cluster map, same RNG stream, same contracted hypergraph."""
    rng_ref = random.Random(rng_seed)
    rng_b = random.Random(rng_seed)
    cluster_ref = kernel(hg, rng_ref, backend="numpy", **kwargs)
    cluster_b = kernel(hg, rng_b, backend=backend, **kwargs)
    assert np.array_equal(cluster_b, cluster_ref)
    assert rng_b.random() == rng_ref.random()
    level_ref = coarsen(hg, cluster_ref, backend="numpy")
    level_b = coarsen(hg, cluster_b, backend=backend)
    assert np.array_equal(level_b.cluster_of, level_ref.cluster_of)
    assert_same_hypergraph(level_b.coarse, level_ref.coarse)


class TestBackendCoarsenSmoke:
    """Tier-1 smoke: one circuit through every scheme per backend."""

    @pytest.mark.parametrize("backend", _available_backends() or ["numpy"])
    def test_schemes_bit_identical(self, backend):
        if backend == "numpy":
            pytest.skip("no non-numpy backend available on this install")
        hg = generate_circuit(120, seed=9)
        for kernel, _name in BACKEND_SCHEMES:
            assert_backend_matching_equivalent(hg, kernel, backend)

    @pytest.mark.parametrize("backend", _available_backends() or ["numpy"])
    def test_restricted_matching_bit_identical(self, backend):
        if backend == "numpy":
            pytest.skip("no non-numpy backend available on this install")
        hg = generate_circuit(120, seed=9)
        bal = BalanceConstraint(hg.total_vertex_weight, 0.2)
        part = Partition2.random_balanced(hg, bal, random.Random(7))
        assignment = list(part.assignment)
        rng_ref = random.Random(1)
        rng_b = random.Random(1)
        c_ref = restricted_matching(hg, assignment, rng_ref,
                                    backend="numpy")
        c_b = restricted_matching(hg, assignment, rng_b, backend=backend)
        assert np.array_equal(c_b, c_ref)
        assert rng_b.random() == rng_ref.random()


class TestLongNetContraction:
    def test_cnative_matches_and_keeps_pace(self):
        """A net of 160,000 shuffled pins contracted pairwise.  The
        cnative kernel sorts the 80,000 coarse pins in O(k log k), so it
        gives the interpreted result in no more time than the
        interpreted path takes; a quadratic sort takes several times
        longer."""
        info = get_backend("cnative")
        if not info.available:
            pytest.skip(f"cnative: {info.reason}")
        n = 160_000
        pins = list(range(n))
        random.Random(0).shuffle(pins)
        hg = Hypergraph([pins], n)
        cluster = np.arange(n, dtype=np.int64) // 2
        levels, best = {}, {}
        for backend in ("numpy", "cnative"):
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                levels[backend] = coarsen(hg, cluster, backend=backend)
                times.append(time.perf_counter() - t0)
            best[backend] = min(times)
        ref, got = levels["numpy"], levels["cnative"]
        assert np.array_equal(got.cluster_of, ref.cluster_of)
        assert_same_hypergraph(got.coarse, ref.coarse)
        assert best["cnative"] <= best["numpy"], best


@pytest.mark.backend
class TestBackendCoarsenSweep:
    """Full knob sweep per registered backend (``-m backend``)."""

    @pytest.mark.parametrize(
        "backend", [n for n in BACKEND_NAMES if n != "numpy"]
    )
    @pytest.mark.parametrize("kernel,name", BACKEND_SCHEMES)
    @pytest.mark.parametrize("unit_areas", [False, True])
    def test_schemes_with_knobs(self, backend, kernel, name, unit_areas):
        info = get_backend(backend)
        if not info.available:
            pytest.skip(f"{backend}: {info.reason}")
        hg = generate_circuit(150, seed=9, unit_areas=unit_areas)
        total = hg.total_vertex_weight
        for rng_seed in range(3):
            assert_backend_matching_equivalent(hg, kernel, backend, rng_seed)
            assert_backend_matching_equivalent(
                hg, kernel, backend, rng_seed,
                max_cluster_weight=total / 20.0, max_net_size=6,
            )

    @pytest.mark.parametrize(
        "backend", [n for n in BACKEND_NAMES if n != "numpy"]
    )
    def test_fixed_vertices_and_hierarchy(self, backend):
        info = get_backend(backend)
        if not info.available:
            pytest.skip(f"{backend}: {info.reason}")
        hg = generate_circuit(150, seed=9)
        rng = random.Random(5)
        fixed_parts = [
            rng.randint(0, 1) if rng.random() < 0.1 else None
            for _ in range(hg.num_vertices)
        ]
        for rng_seed in range(3):
            assert_backend_matching_equivalent(
                hg, heavy_edge_matching, backend, rng_seed,
                fixed_parts=fixed_parts,
            )
        # A full hierarchy: coarsen repeatedly until it stops shrinking.
        cur_ref = cur_b = hg
        for level in range(6):
            rng_ref = random.Random(level)
            rng_b = random.Random(level)
            cl_ref = heavy_edge_matching(cur_ref, rng_ref, backend="numpy")
            cl_b = heavy_edge_matching(cur_b, rng_b, backend=backend)
            assert np.array_equal(cl_b, cl_ref)
            coarse_ref = coarsen(cur_ref, cl_ref, backend="numpy").coarse
            coarse_b = coarsen(cur_b, cl_b, backend=backend).coarse
            assert_same_hypergraph(coarse_b, coarse_ref)
            if coarse_ref.num_vertices == cur_ref.num_vertices:
                break
            cur_ref, cur_b = coarse_ref, coarse_b

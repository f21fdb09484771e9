"""Cross-backend property suite (``-m backend``).

Hypothesis fuzz over arbitrary hypergraphs and record pools, holding
every available registry backend to the interpreted numpy paths **bit
for bit**: speculative FM move prefixes (not just final cuts),
multi-level coarsening hierarchies (cluster maps, contracted CSR
arrays, RNG stream positions), and bootstrap BSF curves (samples,
means, reach probabilities, shuffle matrices).

The deterministic sweeps in the three oracle-equivalence suites cover
the curated config grid; this module covers the *shapes nobody
curated* — degenerate nets, skewed weights, tiny instances — where a
flat-array kernel rewrite is most likely to diverge from the
interpreted loop it mirrors.  Marked ``backend`` (excluded from
tier 1): hypothesis example counts times backend sweeps are minutes,
not tier-1 material.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import BACKEND_NAMES, get_backend
from repro.core import BalanceConstraint, FMConfig, FMEngine, Partition2
from repro.core.perf import PerfCounters
from repro.evaluation.bsf import BootstrapKernel, shuffle_matrix
from repro.evaluation.records import TrialRecord
from repro.hypergraph import Hypergraph
from repro.multilevel import coarsen, heavy_edge_matching

pytestmark = pytest.mark.backend

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

BACKENDS = [n for n in BACKEND_NAMES if n != "numpy"]


def _require(backend):
    info = get_backend(backend)
    if not info.available:
        pytest.skip(f"{backend}: {info.reason}")


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
        st.lists(st.integers(min_value=1, max_value=9), min_size=n,
                 max_size=n)
    )
    net_weights = draw(
        st.lists(st.integers(min_value=1, max_value=4), min_size=num_nets,
                 max_size=num_nets)
    )
    return Hypergraph(
        nets,
        num_vertices=n,
        vertex_weights=vertex_weights,
        net_weights=net_weights,
    )


class TestFMMovePrefixes:
    @pytest.mark.parametrize("backend", BACKENDS)
    @SETTINGS
    @given(
        hg=hypergraphs(),
        part_seed=st.integers(min_value=0, max_value=1000),
        engine_seed=st.integers(min_value=0, max_value=1000),
        clip=st.booleans(),
        tolerance=st.sampled_from([0.05, 0.2, 0.5]),
    )
    def test_speculative_move_log_bit_identical(
        self, backend, hg, part_seed, engine_seed, clip, tolerance
    ):
        _require(backend)
        bal = BalanceConstraint(hg.total_vertex_weight, tolerance)
        base = Partition2.random_balanced(hg, bal,
                                          random.Random(part_seed))
        cfg = FMConfig(clip=clip, max_passes=3)
        p_ref, p_b = base.copy(), base.copy()
        r_ref = FMEngine(bal, cfg, random.Random(engine_seed),
                         record_moves=True, backend="numpy").refine(p_ref)
        eng = FMEngine(bal, cfg, random.Random(engine_seed),
                       record_moves=True, backend=backend)
        r_b = eng.refine(p_b)
        assert eng._backend_name == backend
        assert r_b.final_cut == r_ref.final_cut
        assert np.array_equal(p_b.assignment, p_ref.assignment)
        assert r_b.passes == r_ref.passes
        for s_b, s_ref in zip(r_b.pass_stats, r_ref.pass_stats):
            # The full speculative sequence, not just the kept prefix.
            assert s_b.move_log == s_ref.move_log
            assert s_b.moves_kept == s_ref.moves_kept
            assert s_b.cut_after == s_ref.cut_after
        for name in PerfCounters.COUNT_FIELDS:
            assert getattr(r_b.perf, name) == getattr(r_ref.perf, name), name
        p_b.check_consistency()


class TestCoarseningHierarchies:
    @pytest.mark.parametrize("backend", BACKENDS)
    @SETTINGS
    @given(hg=hypergraphs(), rng_seed=st.integers(min_value=0,
                                                  max_value=1000))
    def test_full_hierarchy_bit_identical(self, backend, hg, rng_seed):
        _require(backend)
        cur_ref = cur_b = hg
        for level in range(4):
            rng_ref = random.Random(rng_seed + level)
            rng_b = random.Random(rng_seed + level)
            cl_ref = heavy_edge_matching(cur_ref, rng_ref, backend="numpy")
            cl_b = heavy_edge_matching(cur_b, rng_b, backend=backend)
            assert np.array_equal(cl_b, cl_ref)
            assert rng_b.random() == rng_ref.random()
            lvl_ref = coarsen(cur_ref, cl_ref, backend="numpy")
            lvl_b = coarsen(cur_b, cl_b, backend=backend)
            assert np.array_equal(lvl_b.cluster_of, lvl_ref.cluster_of)
            a = lvl_ref.coarse
            b = lvl_b.coarse
            assert b.num_vertices == a.num_vertices
            assert b.num_nets == a.num_nets
            assert b.raw_csr == a.raw_csr
            assert [b.vertex_weight(v) for v in b.vertices()] == [
                a.vertex_weight(v) for v in a.vertices()
            ]
            assert [b.net_weight(e) for e in b.nets()] == [
                a.net_weight(e) for e in a.nets()
            ]
            if a.num_vertices == cur_ref.num_vertices:
                break
            cur_ref, cur_b = a, b


class TestBootstrapCurves:
    @pytest.mark.parametrize("backend", BACKENDS)
    @SETTINGS
    @given(
        pool=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=15).map(float),
                st.one_of(
                    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                    st.floats(min_value=0.0, max_value=3.0,
                              allow_nan=False, allow_infinity=False),
                ),
            ),
            min_size=1,
            max_size=20,
        ),
        num_shuffles=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        taus=st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False,
                      allow_infinity=False),
            min_size=1,
            max_size=5,
        ),
    )
    def test_curves_bit_identical(self, backend, pool, num_shuffles, seed,
                                  taus):
        _require(backend)
        records = [
            TrialRecord(heuristic="h", instance="i", seed=i, cut=cut,
                        runtime_seconds=t, legal=True)
            for i, (cut, t) in enumerate(pool)
        ]
        n = len(records)
        m_ref = shuffle_matrix(n, num_shuffles, seed, backend="numpy")
        m_b = shuffle_matrix(n, num_shuffles, seed, backend=backend)
        assert m_b.tolist() == m_ref.tolist()
        ref = BootstrapKernel(records, num_shuffles, seed, backend="numpy")
        k_b = BootstrapKernel(records, num_shuffles, seed, backend=backend)
        for tau in taus:
            assert k_b.c_tau_samples(tau) == ref.c_tau_samples(tau)
            assert k_b.mean_c_tau(tau) == ref.mean_c_tau(tau)
            for target in (0.0, 4.0):
                assert k_b.probability_reaching(tau, target) == \
                    ref.probability_reaching(tau, target)

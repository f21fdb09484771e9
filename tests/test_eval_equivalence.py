"""Kernel-vs-oracle equivalence suite for the vectorized evaluation engine.

Same methodology as ``tests/test_kernel_equivalence.py`` (FM engine) and
``tests/test_coarsen_equivalence.py`` (coarsener): the vectorized
bootstrap kernels in :mod:`repro.evaluation.bsf` /
:mod:`repro.evaluation.pareto` must be *bit-identical* to the frozen
pure-Python reference in :mod:`tests.oracles._seed_eval` — element
for element, float for float — under the contract

    kernel(records, ..., seed=s) == oracle(records, ..., rng=random.Random(s))

with multi-tau kernel curves matching *fresh-RNG single-tau* oracle
calls (common random numbers).  Property-based over record pools with
zero runtimes, tied cuts and single-record pools — the degenerate
shapes where a vectorized cumsum/prefix-min rewrite is most likely to
drift from the sequential loop.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.evaluation.bsf import (
    c_tau_samples,
    eval_seed,
    expected_bsf_curve,
    probability_reaching,
)
from repro.evaluation.pareto import PerfPoint, non_dominated
from repro.evaluation.ranking import ranking_diagram
from repro.evaluation.records import TrialRecord
from tests.oracles import _seed_eval

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Small integer-ish cuts force ties; the runtime pool includes 0.0
# (instant starts) and repeated values (tied elapsed times at a tau
# boundary).  allow_nan/allow_infinity are excluded by construction.
cut_values = st.integers(min_value=0, max_value=15).map(float)
runtime_values = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]),
    st.floats(min_value=0.0, max_value=3.0,
              allow_nan=False, allow_infinity=False),
)
tau_values = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.5, 100.0]),
    st.floats(min_value=0.0, max_value=10.0,
              allow_nan=False, allow_infinity=False),
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def record_pool(heuristics=("h",), min_size=1, max_size=12):
    def build(draw_list):
        return [
            TrialRecord(
                heuristic=h, instance="i", seed=i, cut=cut,
                runtime_seconds=t, legal=True,
            )
            for i, (h, cut, t) in enumerate(draw_list)
        ]

    return st.lists(
        st.tuples(st.sampled_from(list(heuristics)), cut_values,
                  runtime_values),
        min_size=min_size,
        max_size=max_size,
    ).map(build)


class TestBootstrapEquivalence:
    @SETTINGS
    @given(rs=record_pool(), tau=tau_values, seed=seeds,
           num_shuffles=st.integers(1, 40))
    def test_c_tau_samples_matches_oracle(self, rs, tau, seed, num_shuffles):
        kernel = c_tau_samples(rs, tau, num_shuffles=num_shuffles, seed=seed)
        oracle = _seed_eval.c_tau_samples(
            rs, tau, num_shuffles, random.Random(seed)
        )
        assert kernel == oracle

    @SETTINGS
    @given(rs=record_pool(), tau=tau_values, seed=seeds)
    def test_single_record_pool(self, rs, tau, seed):
        rs = rs[:1]
        kernel = c_tau_samples(rs, tau, num_shuffles=10, seed=seed)
        oracle = _seed_eval.c_tau_samples(rs, tau, 10, random.Random(seed))
        assert kernel == oracle

    @SETTINGS
    @given(rs=record_pool(),
           taus=st.lists(tau_values, min_size=1, max_size=5),
           seed=seeds)
    def test_curve_entries_match_fresh_rng_oracle(self, rs, taus, seed):
        curve = expected_bsf_curve(rs, taus, num_shuffles=20, seed=seed)
        for tau, value in curve:
            samples = _seed_eval.c_tau_samples(
                rs, tau, 20, random.Random(seed)
            )
            expected = sum(samples) / len(samples) if samples else None
            assert value == expected

    @SETTINGS
    @given(rs=record_pool(), tau=tau_values, target=cut_values, seed=seeds)
    def test_probability_reaching_matches_oracle(self, rs, tau, target, seed):
        kernel = probability_reaching(
            rs, tau, target, num_shuffles=30, seed=seed
        )
        oracle = _seed_eval.probability_reaching(
            rs, tau, target, 30, random.Random(seed)
        )
        assert kernel == oracle

    @SETTINGS
    @given(rs=record_pool(heuristics=("a", "b", "c"), min_size=1, max_size=18),
           taus=st.lists(tau_values, min_size=1, max_size=4, unique=True),
           base_seed=seeds)
    def test_ranking_matches_composed_oracle(self, rs, taus, base_seed):
        taus = sorted(taus)
        diagram = ranking_diagram(
            rs, taus=taus, num_shuffles=15, base_seed=base_seed
        )
        oracle = _seed_eval.ranking_diagram_oracle(
            rs, taus, num_shuffles=15, base_seed=base_seed
        )
        assert diagram.mean_ctau == oracle

    def test_zero_runtime_pool(self):
        # All-zero runtimes: every start fits any non-negative budget.
        rs = [
            TrialRecord(heuristic="h", instance="i", seed=s, cut=float(c),
                        runtime_seconds=0.0, legal=True)
            for s, c in enumerate([9, 3, 7])
        ]
        for tau in (0.0, 1.0):
            kernel = c_tau_samples(rs, tau, num_shuffles=25, seed=4)
            oracle = _seed_eval.c_tau_samples(rs, tau, 25, random.Random(4))
            assert kernel == oracle
            assert kernel and all(s == 3.0 for s in kernel)

    def test_derived_seeds_distinct_per_heuristic(self):
        assert eval_seed(0, "a") != eval_seed(0, "b")
        assert eval_seed(0, "a") != eval_seed(1, "a")
        assert eval_seed(0, "a") == eval_seed(0, "a")


class TestFrontierEquivalence:
    points = st.lists(
        st.tuples(st.integers(0, 10).map(float), st.integers(0, 10).map(float)),
        min_size=0,
        max_size=40,
    )

    @SETTINGS
    @given(raw=points)
    def test_sweep_matches_quadratic_oracle(self, raw):
        pts = [
            PerfPoint(cost=c, time=t, label=f"p{i}")
            for i, (c, t) in enumerate(raw)
        ]
        assert non_dominated(pts) == _seed_eval.non_dominated(pts)

    def test_all_tied_points_survive(self):
        # Strict dominance: identical points cannot dominate each other,
        # so the frontier keeps all of them, in input order.
        pts = [PerfPoint(cost=5.0, time=5.0, label=f"p{i}") for i in range(4)]
        assert non_dominated(pts) == _seed_eval.non_dominated(pts)
        assert len(non_dominated(pts)) == 4


# ----------------------------------------------------------------------
# Registry-backend sweeps: bootstrap kernel per backend
# ----------------------------------------------------------------------
import pytest  # noqa: E402

from repro.backends import BACKEND_NAMES, get_backend  # noqa: E402
from repro.evaluation.bsf import BootstrapKernel, shuffle_matrix  # noqa: E402

TAUS = [0.0, 0.4, 1.0, 2.5, 100.0]


def _available_backends():
    return [
        name
        for name in BACKEND_NAMES
        if name != "numpy" and get_backend(name).available
    ]


def make_records(n, seed):
    rng = random.Random(seed)
    return [
        TrialRecord(
            heuristic="h", instance="i", seed=i,
            cut=float(rng.randint(0, 15)),
            runtime_seconds=rng.choice([0.0, 0.25, 0.5, 1.0])
            if rng.random() < 0.5 else rng.uniform(0.0, 3.0),
            legal=True,
        )
        for i in range(n)
    ]


def assert_backend_bootstrap_equivalent(records, num_shuffles, seed,
                                        backend):
    """Shuffle matrix, c_tau samples, means and reach probabilities all
    bit-identical between the numpy kernel and ``backend``."""
    ref = BootstrapKernel(records, num_shuffles, seed, backend="numpy")
    k_b = BootstrapKernel(records, num_shuffles, seed, backend=backend)
    n = len(records)
    m_ref = shuffle_matrix(n, num_shuffles, seed, backend="numpy")
    m_b = shuffle_matrix(n, num_shuffles, seed, backend=backend)
    assert m_b.tolist() == m_ref.tolist()
    for tau in TAUS:
        assert k_b.c_tau_samples(tau) == ref.c_tau_samples(tau)
        assert k_b.mean_c_tau(tau) == ref.mean_c_tau(tau)
        for target in (0.0, 3.0, 8.0):
            assert k_b.probability_reaching(tau, target) == \
                ref.probability_reaching(tau, target)


class TestBackendBootstrapSmoke:
    """Tier-1 smoke: one pool per available backend."""

    @pytest.mark.parametrize("backend", _available_backends() or ["numpy"])
    def test_bootstrap_bit_identical(self, backend):
        if backend == "numpy":
            pytest.skip("no non-numpy backend available on this install")
        records = make_records(40, seed=3)
        assert_backend_bootstrap_equivalent(records, 50, seed=7,
                                            backend=backend)


@pytest.mark.backend
class TestBackendBootstrapSweep:
    """Degenerate-shape sweep per registered backend (``-m backend``)."""

    @pytest.mark.parametrize(
        "backend", [n for n in BACKEND_NAMES if n != "numpy"]
    )
    def test_pool_shapes(self, backend):
        info = get_backend(backend)
        if not info.available:
            pytest.skip(f"{backend}: {info.reason}")
        # Single record, tied cuts, zero runtimes, larger mixed pool.
        for records in (
            make_records(1, seed=0),
            [TrialRecord(heuristic="h", instance="i", seed=i, cut=4.0,
                         runtime_seconds=0.0, legal=True)
             for i in range(6)],
            make_records(12, seed=1),
            make_records(200, seed=2),
        ):
            for num_shuffles in (1, 17, 64):
                for seed in (0, 9, 12345):
                    assert_backend_bootstrap_equivalent(
                        records, num_shuffles, seed, backend
                    )

"""The numpy Wilcoxon signed-rank test held to scipy, and the campaign
significance matrix it feeds.

scipy stays installed as the oracle: :func:`signed_rank_p` must return
``scipy.stats.wilcoxon(x, y).pvalue`` bit for bit where scipy's null
distribution is exact (no zeros or ties and at most 50 pairs; all sign
flips for at most 13 pairs) and to rounding under the normal
approximation, so a campaign report renders the same text either way.
"""

import numpy as np
import pytest
import scipy.stats
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import FMConfig, FMPartitioner
from repro.evaluation import (
    CampaignResult,
    CampaignSpec,
    TrialRecord,
    mann_whitney,
    paired_wilcoxon,
    run_campaign,
)
from repro.evaluation import stats_tests
from repro.evaluation.stats_tests import signed_rank_p
from repro.instances import generate_circuit

# scipy enumerates sign flips through its generic permutation test,
# 0.7-1.5 s a call at 12-13 tied pairs, so the sweep stays modest.
SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def regime(x, y):
    """Which branch of ``scipy.stats.wilcoxon(method="auto")`` runs."""
    d = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    nonzero = d[d != 0]
    tied = nonzero.size < d.size or np.unique(np.abs(nonzero)).size < nonzero.size
    if tied and d.size <= 13:
        return "sign-flip"
    if not tied and d.size <= 50:
        return "exact"
    return "normal"


#: One sample per regime; the parity sweep always runs them.
REGIME_EXAMPLES = {
    "exact": ([3, 1, 4, 15, 5, 9, 2, 6], [0] * 8),
    "sign-flip": ([1, 2, 2, 3, 0, 5], [0] * 6),
    "normal": (list(range(1, 52)), [0] * 51),
}


def scipy_signed_rank_p(diffs):
    """The scipy implementation ``paired_wilcoxon`` used to call."""
    d = np.asarray(diffs, dtype=np.float64)
    return float(scipy.stats.wilcoxon(d).pvalue) if d.any() else 1.0


@st.composite
def paired_samples(draw):
    """1-80 pairs of integer cuts (small ranges tie and zero often, wide
    ones rarely) or float cuts."""
    n = draw(st.integers(min_value=1, max_value=80))
    kind = draw(st.sampled_from(["small", "wide", "float"]))
    if kind == "small":
        values = st.integers(min_value=0, max_value=draw(st.integers(1, 6)))
    elif kind == "wide":
        values = st.integers(min_value=0, max_value=10**6)
    else:
        values = st.floats(min_value=-1e6, max_value=1e6,
                           allow_nan=False, allow_infinity=False)
    pairs = st.lists(values, min_size=n, max_size=n)
    return draw(pairs), draw(pairs)


def rec(h, cut, seed, i="x"):
    return TrialRecord(heuristic=h, instance=i, seed=seed, cut=cut,
                       runtime_seconds=1.0, legal=True)


# ----------------------------------------------------------------------
# signed_rank_p == scipy.stats.wilcoxon
# ----------------------------------------------------------------------
class TestSignedRankParity:
    @SETTINGS
    @given(paired_samples())
    @example(REGIME_EXAMPLES["exact"])
    @example((list(range(1, 51)), [0] * 50))                      # exact, n = 50
    @example(REGIME_EXAMPLES["sign-flip"])
    @example(([1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233], [0] * 13))
    @example(REGIME_EXAMPLES["normal"])
    @example(([100] * 20 + [120], [101] * 20 + [100]))            # normal, ties
    def test_matches_scipy(self, sample):
        x, y = sample
        d = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
        got = signed_rank_p(d)
        if not d.any():
            assert got == 1.0
            return
        want = float(scipy.stats.wilcoxon(x, y).pvalue)
        if regime(x, y) == "normal":
            assert got == pytest.approx(want, rel=1e-12, abs=0)
        else:
            assert got == want

    def test_examples_reach_every_regime(self):
        for name, (x, y) in REGIME_EXAMPLES.items():
            assert regime(x, y) == name

    def test_sign_of_differences_does_not_matter(self):
        d = np.array([4.0, -1.0, 2.5, 2.5, 0.0, -7.0, 3.0, 1.5])
        assert signed_rank_p(d) == signed_rank_p(-d)

    def test_no_nonzero_difference_is_p_one(self):
        assert signed_rank_p([]) == 1.0
        assert signed_rank_p([0.0] * 30) == 1.0


# ----------------------------------------------------------------------
# The campaign report renders as it did with scipy
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def generated_campaign():
    spec = CampaignSpec(
        name="significance",
        heuristics=[
            FMPartitioner(tolerance=0.1, name="Flat LIFO FM"),
            FMPartitioner(FMConfig(clip=True), tolerance=0.1,
                          name="Flat CLIP FM"),
            FMPartitioner(tolerance=0.02, name="Flat LIFO FM 2%"),
        ],
        instances={"a": generate_circuit(150, seed=24),
                   "b": generate_circuit(120, seed=7)},
        num_starts=8,
    )
    return run_campaign(spec)


class TestReportParity:
    @pytest.mark.parametrize("instances", [["a"], ["a", "b"]])
    def test_report_renders_as_with_scipy(self, generated_campaign,
                                          instances, monkeypatch):
        result = CampaignResult(
            spec_name=generated_campaign.spec_name,
            records=[r for r in generated_campaign.records
                     if r.instance in instances],
        )
        shipped = result.report(num_shuffles=20)
        monkeypatch.setattr(stats_tests, "signed_rank_p",
                            scipy_signed_rank_p)
        assert result.report(num_shuffles=20) == shipped


# ----------------------------------------------------------------------
# Direction of a significant test when the two means tie
# ----------------------------------------------------------------------
def tied_mean_records():
    """A cuts 100 on seeds 0-19 and 120 on seed 20; B cuts 101, then
    100.  Both means are 2120/21, yet the signed ranks favour A."""
    return ([rec("A", 100 if s < 20 else 120, s) for s in range(21)]
            + [rec("B", 101 if s < 20 else 100, s) for s in range(21)])


def matrix_cells(matrix):
    """``{(row, column): symbol}`` of a rendered significance matrix."""
    lines = matrix.splitlines()
    names = lines[0].split()
    return {(row[0], col): cell
            for row in (line.split() for line in lines[2:])
            for col, cell in zip(names, row[1:])}


MIRROR = {"<": ">", ">": "<", "~": "~", "?": "?", ".": "."}


class TestTiedMeans:
    def test_wilcoxon_direction_comes_from_the_signed_ranks(self):
        records = tied_mean_records()
        ab = paired_wilcoxon(records, "A", "B")
        ba = paired_wilcoxon(records, "B", "A")
        assert ab.mean_a == ab.mean_b
        assert ab.significant and ba.significant
        assert ab.better == ba.better == "A"

    def test_matrix_marks_one_winner(self):
        cells = matrix_cells(
            CampaignResult("tied", tied_mean_records()).significance_matrix())
        assert cells[("A", "B")] == "<"
        assert cells[("B", "A")] == ">"

    def test_mann_whitney_direction_comes_from_u(self):
        records = tied_mean_records()
        ab = mann_whitney(records, "A", "B")
        ba = mann_whitney(records, "B", "A")
        assert ab.mean_a == ab.mean_b
        assert ab.significant
        assert ab.better == ba.better == "A"

    def test_distinct_means_outrank_the_statistic(self):
        """A cuts 150, not 120, on seed 20: the signed ranks still
        favour A, but B's mean is lower, and the mean decides."""
        records = [rec(r.heuristic, 150, r.seed)
                   if (r.heuristic, r.seed) == ("A", 20) else r
                   for r in tied_mean_records()]
        test = paired_wilcoxon(records, "A", "B")
        assert test.mean_a > test.mean_b and test.statistic_sign < 0
        assert test.significant and test.better == "B"

    @SETTINGS
    @given(st.data())
    def test_matrix_is_antisymmetric(self, data):
        seeds = data.draw(st.integers(min_value=4, max_value=24))
        cuts = st.lists(st.integers(min_value=0, max_value=12),
                        min_size=seeds, max_size=seeds)
        a = data.draw(cuts)
        step = data.draw(st.integers(min_value=-3, max_value=3))
        # B trails (or leads) A by ``step`` on every seed but the last,
        # which pays it all back, and C shuffles A's cuts across seeds:
        # both tie A's mean, and B's signed ranks lean one way.
        columns = {"A": a,
                   "B": [cut + step for cut in a[:-1]]
                        + [a[-1] - step * (seeds - 1)],
                   "C": data.draw(st.permutations(a))}
        records = [rec(h, cut, s) for h, col in columns.items()
                   for s, cut in enumerate(col)]
        cells = matrix_cells(
            CampaignResult("prop", records).significance_matrix())
        for (row, col), cell in cells.items():
            assert cells[(col, row)] == MIRROR[cell]

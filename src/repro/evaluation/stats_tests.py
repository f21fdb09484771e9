"""Statistical significance of heuristic comparisons.

Brglez (cited in Section 3.2) points out that VLSI CAD papers routinely
claim improvements that are indistinguishable from randomization noise.
These helpers answer "is heuristic A actually better than B on this
data?" with standard tests:

* Wilcoxon signed-rank for paired per-seed comparisons (same instance,
  same seed stream — the design :func:`repro.evaluation.runner.run_trials`
  guarantees), computed here with numpy (:func:`signed_rank_p`);
* Mann-Whitney U for unpaired cut distributions;
* a permutation test on mean difference (no distributional assumptions).

Every campaign report renders a Wilcoxon matrix, so this module loads no
scipy: ``scipy.stats`` costs about a second and 70 MB per process, and
only :func:`mann_whitney` imports it, when called.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.evaluation.records import TrialRecord


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of a two-heuristic significance comparison."""

    heuristic_a: str
    heuristic_b: str
    mean_a: float
    mean_b: float
    p_value: float
    test: str
    significant: bool  #: at the requested alpha
    #: Where the test statistic leans: -1 when it puts ``heuristic_a``'s
    #: cuts lower, +1 when higher, 0 when balanced.  Decides
    #: :attr:`better` only when the two means tie.
    statistic_sign: int = 0

    @property
    def better(self) -> Optional[str]:
        """The significantly better heuristic, if any: the one with the
        lower mean cut, or, when the means tie, the one the test
        statistic favours."""
        lean = ((self.mean_a > self.mean_b) - (self.mean_a < self.mean_b)
                or self.statistic_sign)
        if not self.significant or not lean:
            return None
        return self.heuristic_a if lean < 0 else self.heuristic_b


def _cuts_by_heuristic(
    records: Sequence[TrialRecord], a: str, b: str
) -> Tuple[List[TrialRecord], List[TrialRecord]]:
    ra = [r for r in records if r.heuristic == a]
    rb = [r for r in records if r.heuristic == b]
    if not ra or not rb:
        raise ValueError(f"records missing for {a!r} or {b!r}")
    return ra, rb


#: ``scipy.stats.wilcoxon(method="auto")`` uses the exact null
#: distribution up to this many pairs when no difference is zero or tied,
_EXACT_MAX_PAIRS = 50
#: and enumerates every sign flip up to this many pairs when some are.
_FLIP_MAX_PAIRS = 13


def _signed_ranks(d: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Twice the average ranks of the nonzero ``|d|`` (integers), whether
    each of those differences is positive, and the tie-group sizes."""
    nonzero = d[d != 0]
    magnitude = np.abs(nonzero)
    order = np.argsort(magnitude, kind="stable")
    sorted_abs = magnitude[order]
    starts = np.flatnonzero(np.r_[True, sorted_abs[1:] != sorted_abs[:-1]])
    sizes = np.diff(np.r_[starts, nonzero.size])
    ranks2 = np.empty(nonzero.size, dtype=np.int64)
    ranks2[order] = np.repeat(2 * starts + sizes + 1, sizes)
    return ranks2, nonzero > 0, sizes


@functools.lru_cache(maxsize=128)
def _flip_counts(ranks2: Tuple[int, ...]) -> np.ndarray:
    """``counts[s]``: how many of the ``2**len(ranks2)`` sign patterns
    give a doubled positive-rank sum of ``s``."""
    counts = np.zeros(sum(ranks2) + 1, dtype=np.int64)
    counts[0] = 1
    for r in ranks2:
        counts[r:] = counts[r:] + counts[:-r]
    counts.flags.writeable = False
    return counts


def signed_rank_p(diffs: Sequence[float]) -> float:
    """Two-sided p-value of the Wilcoxon signed-rank test on paired
    differences ``diffs = x - y``.

    Equals ``scipy.stats.wilcoxon(x, y).pvalue`` with scipy's defaults
    (zero differences dropped, average ranks, no continuity correction,
    ``method="auto"``), whose three regimes it follows; ``n`` counts
    every pair, zeros included:

    * no zeros or ties and ``n <= 50``: the exact null distribution of
      the positive-rank sum ``T``;
    * zeros or ties and ``n <= 13``: all ``2**n`` sign flips, which is
      what scipy's permutation test enumerates;
    * otherwise the normal approximation with the tie-corrected
      variance.

    In the first two the null counts are integers, so the p-value
    ``min(1, 2 min(#(T <= t), #(T >= t)) / 2**n)`` is exact and matches
    scipy's bit for bit; the normal tail agrees to about 1e-15
    relative.  With no nonzero difference the p-value is 1 (scipy
    returns NaN past 13 pairs).

    >>> signed_rank_p([1, 2, 3, 4, 5])
    0.0625
    """
    d = np.asarray(diffs, dtype=np.float64)
    ranks2, positive, sizes = _signed_ranks(d)
    m = ranks2.size
    if m == 0:
        return 1.0
    t2 = int(ranks2[positive].sum())
    zeros_or_ties = m < d.size or bool((sizes > 1).any())
    # Both exact regimes count the same integer null distribution; where
    # both apply (no zeros or ties, at most 13 pairs) they agree.
    if d.size <= _FLIP_MAX_PAIRS or (
            not zeros_or_ties and d.size <= _EXACT_MAX_PAIRS):
        counts = _flip_counts(tuple(sorted(ranks2.tolist())))
        tail = min(int(counts[: t2 + 1].sum()), int(counts[t2:].sum()))
        return min(1.0, 2 * tail / 2**m)
    # scipy's operation order, on exactly representable operands.
    mean = m * (m + 1.0) * 0.25
    var = m * (m + 1.0) * (2.0 * m + 1.0)
    ties = sum(c**3 - c for c in sizes.tolist())
    z = (t2 / 2 - mean) / math.sqrt((var - ties / 2) / 24)
    return math.erfc(abs(z) / math.sqrt(2))


def _signed_rank_sign(diffs: Sequence[float]) -> int:
    """Sign of ``T+ - T-``: -1 when the negative differences carry more
    rank, +1 when the positive ones do."""
    ranks2, positive, _ = _signed_ranks(np.asarray(diffs, dtype=np.float64))
    return int(np.sign(2 * ranks2[positive].sum() - ranks2.sum()))


def paired_wilcoxon(
    records: Sequence[TrialRecord],
    heuristic_a: str,
    heuristic_b: str,
    alpha: float = 0.05,
) -> ComparisonResult:
    """Wilcoxon signed-rank test on per-seed paired cuts.

    Requires both heuristics to have been run with the same seed stream
    on the same instance (pairs are matched on ``(instance, seed)``).
    """
    ra, rb = _cuts_by_heuristic(records, heuristic_a, heuristic_b)
    by_key_a: Dict[tuple, float] = {(r.instance, r.seed): r.cut for r in ra}
    by_key_b: Dict[tuple, float] = {(r.instance, r.seed): r.cut for r in rb}
    keys = sorted(set(by_key_a) & set(by_key_b))
    if len(keys) < 5:
        raise ValueError("need at least 5 matched pairs for Wilcoxon")
    xs = [by_key_a[k] for k in keys]
    ys = [by_key_b[k] for k in keys]
    diffs = np.asarray(xs, dtype=np.float64) - np.asarray(ys, dtype=np.float64)
    p_value = signed_rank_p(diffs)
    return ComparisonResult(
        heuristic_a=heuristic_a,
        heuristic_b=heuristic_b,
        mean_a=sum(xs) / len(xs),
        mean_b=sum(ys) / len(ys),
        p_value=p_value,
        test="wilcoxon-signed-rank",
        significant=p_value < alpha,
        statistic_sign=_signed_rank_sign(diffs),
    )


def mann_whitney(
    records: Sequence[TrialRecord],
    heuristic_a: str,
    heuristic_b: str,
    alpha: float = 0.05,
) -> ComparisonResult:
    """Mann-Whitney U test on the two unpaired cut distributions."""
    import scipy.stats

    ra, rb = _cuts_by_heuristic(records, heuristic_a, heuristic_b)
    xs = [r.cut for r in ra]
    ys = [r.cut for r in rb]
    test = scipy.stats.mannwhitneyu(xs, ys)
    p_value = float(test.pvalue)
    return ComparisonResult(
        heuristic_a=heuristic_a,
        heuristic_b=heuristic_b,
        mean_a=sum(xs) / len(xs),
        mean_b=sum(ys) / len(ys),
        p_value=p_value,
        test="mann-whitney-u",
        significant=p_value < alpha,
        # U counts the pairs in which ``a`` cuts more; n_a n_b / 2 is
        # its null centre.
        statistic_sign=int(np.sign(test.statistic - len(xs) * len(ys) / 2)),
    )


def permutation_test(
    records: Sequence[TrialRecord],
    heuristic_a: str,
    heuristic_b: str,
    alpha: float = 0.05,
    num_permutations: int = 2000,
    rng: Optional[random.Random] = None,
) -> ComparisonResult:
    """Two-sided permutation test on the difference of mean cuts."""
    if rng is None:
        rng = random.Random(0)
    ra, rb = _cuts_by_heuristic(records, heuristic_a, heuristic_b)
    xs = [r.cut for r in ra]
    ys = [r.cut for r in rb]
    observed = abs(sum(xs) / len(xs) - sum(ys) / len(ys))
    pooled = xs + ys
    n_a = len(xs)
    extreme = 0
    for _ in range(num_permutations):
        rng.shuffle(pooled)
        pa = pooled[:n_a]
        pb = pooled[n_a:]
        stat = abs(sum(pa) / len(pa) - sum(pb) / len(pb))
        if stat >= observed - 1e-12:
            extreme += 1
    p_value = (extreme + 1) / (num_permutations + 1)
    return ComparisonResult(
        heuristic_a=heuristic_a,
        heuristic_b=heuristic_b,
        mean_a=sum(xs) / len(xs),
        mean_b=sum(ys) / len(ys),
        p_value=p_value,
        test="permutation",
        significant=p_value < alpha,
    )

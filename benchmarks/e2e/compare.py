"""Medians, quartiles and the verdict rule of ``run.py compare``.

A result set is a JSON-lines file of workload runs (``run.py --out``).
For each (workload, end-to-end metric) pair, each side is summarised by
the median and quartiles of its runs, and the change (side B) gets one
verdict against the parent (side A):

* ``unresolved`` -- a side's quartile spread exceeds the metric's bound,
  unless every B run beats every A run (then ``better``);
* ``worse`` -- B's median is worse than A's by more than the bound;
* ``better`` -- B's median is better than A's by more than A's own
  quartile spread;
* ``within`` -- anything else.

Any ``worse`` verdict, a metric missing from B, or a failed op in B is a
regression.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

WORSE, BETTER, WITHIN, UNRESOLVED, MISSING = (
    "worse", "better", "within", "unresolved", "missing")


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    values = list(values)
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> str:
    """Verdict of change ``b`` against parent ``a`` for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    _, med_a, _ = quartiles(a)
    _, med_b, _ = quartiles(b)
    # Positive = B is worse, as a share of A's median.
    change = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if max(spread(a), spread(b)) > bound:
        if all(sign * (x - y) < 0 for x in b for y in a):
            return BETTER
        return UNRESOLVED
    if change > bound:
        return WORSE
    if -change > spread(a):
        return BETTER
    return WITHIN


def load_runs(path) -> List[dict]:
    with open(path, "r", encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def _values(runs: Sequence[dict]) -> Dict[Tuple[str, str], List[float]]:
    out: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for run in runs:
        if run.get("trace"):
            continue
        for name, m in run["metrics"].items():
            if m.get("value") is not None:
                out[(run["workload"], name)].append(float(m["value"]))
    return out


def compare(runs_a: Sequence[dict], runs_b: Sequence[dict],
            metrics: Sequence[dict]) -> Tuple[List[List[str]], bool]:
    """Rows for the comparison table and whether B regressed.

    ``metrics`` are the ``end_to_end`` entries of ``BENCHMARK.json``.
    """
    spec = {m["name"]: m for m in metrics}
    va, vb = _values(runs_a), _values(runs_b)
    rows: List[List[str]] = []
    regressed = False
    for key in sorted(va):
        workload, name = key
        if name not in spec:
            continue
        m = spec[name]
        qa = quartiles(va[key])
        if key not in vb:
            rows.append([workload, name, _fmt(qa, len(va[key])), "-",
                         MISSING])
            regressed = True
            continue
        qb = quartiles(vb[key])
        v = verdict(va[key], vb[key], m["better"], m["bound"])
        regressed |= v == WORSE
        rows.append([workload, name, _fmt(qa, len(va[key])),
                     _fmt(qb, len(vb[key])), v])
    for workload in sorted({r["workload"] for r in runs_b}):
        failed = sum(r["failed"] for r in runs_b
                     if r["workload"] == workload)
        attempted = sum(r["attempted"] for r in runs_b
                        if r["workload"] == workload)
        if failed:
            regressed = True
            rows.append([workload, "fail_frac", "-",
                         f"{failed}/{attempted}", WORSE])
    return rows, regressed


def _fmt(q: Tuple[float, float, float], n: int) -> str:
    q1, med, q3 = q
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={n}"


def render(rows: Sequence[Sequence[str]]) -> str:
    header = ["workload", "metric", "A median [q1, q3]",
              "B median [q1, q3]", "verdict"]
    table = [header] + [list(r) for r in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
        for r in table
    )

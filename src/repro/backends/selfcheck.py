"""Activation self-check: hold a candidate backend to the interpreted paths.

:func:`run_selfcheck` runs the layers' own entry points — the FM engine,
the four clusterings and contraction — on small deterministic instances,
once with ``backend="numpy"`` and once with a candidate
:class:`~repro.backends.registry.KernelSet`, and requires bit-identical
partition state, move logs and pass statistics, cluster maps, coarse
hypergraphs (values and dtypes), ``PerfCounters`` counts and
Mersenne-Twister state.  The kernels read the instances' int32 CSR as
the layers hand it over, so the check runs them on the layout they see
in production.  The transpose, the shuffle and the bootstrap tables are
compared directly with the hypergraph's own ``_build_transpose``,
CPython's ``random.shuffle`` and numpy's ``cumsum`` / indexing /
``minimum.accumulate`` — the numpy branch of ``repro.evaluation.bsf``,
which is not imported: processes that only partition activate a backend
too, and need no evaluation layer.  Checks run in dependency order (the
shuffle before the clusterings that call it, the transpose before the
contraction that calls it), so a mismatch raises
:class:`SelfCheckError` naming the kernel at fault.

The registry runs the check at every activation and records a failing
backend unavailable.  The oracle-equivalence suites pin the interpreted
paths to the seed oracles, closing the chain ``seed oracles == numpy
paths == compiled backend``.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List

import numpy as np

from repro.core.balance import BalanceConstraint
from repro.core.config import BestChoice, FMConfig, TieBias, UpdatePolicy
from repro.core.engine import FMEngine, PassStats
from repro.core.gain_bucket import IllegalHeadPolicy, InsertionOrder
from repro.core.partition import Partition2
from repro.core.perf import PerfCounters
from repro.hypergraph.hypergraph import Hypergraph, _build_transpose
from repro.multilevel import matching
from repro.multilevel.coarsen import coarsen


class SelfCheckError(AssertionError):
    """A candidate kernel diverged from the interpreted paths."""


def _require(cond: bool, kernel: str, what: str) -> None:
    if not cond:
        raise SelfCheckError(
            f"backend self-check mismatch: {kernel}: {what}"
        )


def _counts(perf: PerfCounters) -> List[int]:
    return [getattr(perf, name) for name in PerfCounters.COUNT_FIELDS]


def _micro(seed: int, n: int, m: int) -> Hypergraph:
    """A random hypergraph with small integer weights."""
    rng = random.Random(seed)
    nets = [rng.sample(range(n), rng.randrange(2, min(6, n) + 1))
            for _ in range(m)]
    vwt = [rng.randrange(1, 4) for _ in range(n)]
    net_w = [rng.randrange(1, 3) for _ in range(m)]
    return Hypergraph(nets, n, vertex_weights=vwt, net_weights=net_w)


# ----------------------------------------------------------------------
def _check_bootstrap(ks) -> None:
    rng = random.Random(17)
    for n, rows in ((1, 3), (9, 8)):
        runtimes = np.array([rng.random() * 2.0 for _ in range(n)])
        cuts = np.array([float(rng.randrange(1, 99)) for _ in range(n)])
        ref_rng = random.Random(29)
        order = list(range(n))
        ref_perm = np.empty((rows, n), dtype=np.int64)
        for s in range(rows):
            ref_rng.shuffle(order)
            ref_perm[s] = order
        state = random.Random(29).getstate()[1]
        mt = np.array(state[:-1], dtype=np.int64)
        mti_io = np.array(state[-1:], dtype=np.int64)
        perm = np.empty((rows, n), dtype=np.int64)
        ks.shuffle_rows(mt, mti_io, np.arange(n, dtype=np.int64), perm)
        _require(np.array_equal(perm, ref_perm), "shuffle_rows",
                 f"n={n} permutations")
        _require(
            tuple(mt.tolist()) + (int(mti_io[0]),) == ref_rng.getstate()[1],
            "shuffle_rows", f"n={n} MT state",
        )
        tables = [np.empty((rows, n)) for _ in range(3)]
        ks.bootstrap_tables(perm, runtimes, cuts, *tables)
        ref_cuts = cuts[perm]
        refs = (np.cumsum(runtimes[perm], axis=1), ref_cuts,
                np.minimum.accumulate(ref_cuts, axis=1))
        for got, ref, what in zip(tables, refs,
                                  ("elapsed", "cuts", "prefix minima")):
            _require(np.array_equal(got, ref), "bootstrap_tables",
                     f"n={n} {what}")


def _check_matching(ks) -> None:
    hg = _micro(31, 16, 14)
    n = hg.num_vertices
    fixed_parts = [None] * n
    fixed_parts[0] = 0
    fixed_parts[5] = 1
    fixed = {"fixed_parts": fixed_parts}
    assignment = [v % 2 for v in range(n)]
    cap = hg.total_vertex_weight / 4.0
    for kernel, clustering, lead, extra in (
        ("hem_match", matching.heavy_edge_matching, (), fixed),
        ("hem_match", matching.restricted_matching, (assignment,), {}),
        ("fc_cluster", matching.first_choice_clustering, (), fixed),
        ("hec_contract", matching.hyperedge_coarsening, (), fixed),
    ):
        runs = []
        for backend in ("numpy", ks):
            rng = random.Random(3)
            perf = PerfCounters()
            cluster = clustering(
                hg, *lead, rng, max_cluster_weight=cap, max_net_size=5,
                perf=perf, backend=backend, **extra,
            )
            runs.append((cluster.tolist(), rng.getstate(), _counts(perf)))
        for ref, got, what in zip(runs[0], runs[1],
                                  ("cluster map", "RNG state", "counters")):
            _require(got == ref, kernel, f"{clustering.__name__} {what}")


def _check_transpose(ks) -> None:
    # Beside a random instance: isolated vertices (0, 4 and 6), an empty
    # net and a one-pin net.
    for hg in (_micro(53, 12, 10),
               Hypergraph([[3], [], [1, 2, 3], [5, 1]], 7)):
        net_ptr, net_pins, _, _ = hg.csr
        ref = _build_transpose(hg.num_vertices, net_ptr, net_pins)
        got = [np.empty_like(a) for a in ref]
        ks.transpose(net_ptr, net_pins, *got)
        for a, b, what in zip(got, ref, ("vtx_ptr", "vtx nets")):
            _require(np.array_equal(a, b), "transpose",
                     f"{hg.num_vertices} vertices: {what}")


def _check_contract(ks) -> None:
    hg = _micro(41, 18, 20)
    n = hg.num_vertices
    rng = random.Random(13)
    # Repeated ids, so nets merge and some collapse below two pins.
    cluster = np.array([rng.randrange(n // 3) for _ in range(n)],
                       dtype=np.int64)
    runs = []
    for backend in ("numpy", ks):
        perf = PerfCounters()
        level = coarsen(hg, cluster, perf=perf, backend=backend)
        c = level.coarse
        runs.append((level.cluster_of, *c.csr, c.vertex_weight_array,
                     c.net_weight_array, _counts(perf)))
    for ref, got, what in zip(runs[0], runs[1],
                              ("cluster map", "net_ptr", "net pins",
                               "vtx_ptr", "vtx nets", "vertex weights",
                               "net weights", "counters")):
        _require(np.array_equal(got, ref)
                 and np.asarray(got).dtype == np.asarray(ref).dtype,
                 "contract", what)
    bad = cluster.copy()
    bad[7] = -2
    errors = []
    for backend in ("numpy", ks):
        try:
            coarsen(hg, bad, backend=backend)
            errors.append(None)
        except ValueError as exc:
            errors.append(str(exc))
    _require(errors[0] is not None and errors[1] == errors[0], "contract",
             "negative cluster id error")


#: One flat FM configuration per value of every implicit decision.
_FM_CONFIGS = (
    FMConfig(),
    FMConfig(update_policy=UpdatePolicy.ALL, tie_bias=TieBias.PART0,
             insertion_order=InsertionOrder.FIFO,
             best_choice=BestChoice.FIRST,
             illegal_head=IllegalHeadPolicy.SKIP_PARTITION,
             guard_oversized=False),
    FMConfig(clip=True, tie_bias=TieBias.TOWARD,
             insertion_order=InsertionOrder.RANDOM,
             best_choice=BestChoice.LAST,
             illegal_head=IllegalHeadPolicy.SCAN_BUCKET),
)

#: Every deterministic ``PassStats`` field (all but the wall clock).
_PASS_FIELDS = [f.name for f in dataclasses.fields(PassStats)
                if f.name != "seconds"]


def _check_fm(ks) -> None:
    hg = _micro(11, 14, 16)
    n = hg.num_vertices
    bal = BalanceConstraint(hg.total_vertex_weight, 0.3)
    fixed = [v == n - 1 for v in range(n)]
    for ci, cfg in enumerate(_FM_CONFIGS):
        rng = random.Random(23 + ci)
        assignment = [rng.randrange(2) for _ in range(n)]
        runs: List[Dict[str, object]] = []
        for backend in ("numpy", ks):
            part = Partition2(hg, assignment, fixed)
            engine_rng = random.Random(7)
            result = FMEngine(bal, cfg, engine_rng, record_moves=True,
                              backend=backend).refine(part)
            _require(backend is not ks or result.perf.backend == ks.name,
                     "fm_pass", f"config {ci}: the kernel declined a pass")
            runs.append({
                "assignment": part.assignment.tolist(),
                "pin counts": [c.tolist() for c in part.pins_in_part],
                "part weights": list(part.part_weights),
                "cut": part.cut,
                "RNG state": engine_rng.getstate(),
                "pass stats": [[getattr(s, f) for f in _PASS_FIELDS]
                               for s in result.pass_stats],
                "counters": _counts(result.perf),
            })
        ref, got = runs
        for what in ref:
            _require(got[what] == ref[what], "fm_pass",
                     f"config {ci} {what}")


def run_selfcheck(ks) -> None:
    """Raise :class:`SelfCheckError` unless every kernel of ``ks``
    reproduces the interpreted paths bit for bit."""
    _check_bootstrap(ks)
    _check_matching(ks)
    _check_transpose(ks)
    _check_contract(ks)
    _check_fm(ks)

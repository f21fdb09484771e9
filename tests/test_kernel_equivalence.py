"""Kernel-vs-seed equivalence suite for the allocation-free FM kernel.

The paper's central claim is that implicit implementation decisions
change results; a faster kernel that silently resolves one of them
differently is therefore *wrong*, not merely different.  These tests
pin the rewritten :class:`repro.core.engine.FMEngine` to the frozen
seed reference (:class:`tests.oracles._seed_engine.SeedFMEngine`)
**move-for-move**: identical per-pass move sequences, kept prefixes,
logged cuts, stuck flags, final cuts and final assignments —
exhaustively over every FMConfig combination on fixed instances, and
property-based over random hypergraphs.

Also here: the float-accumulation tie regression for
:meth:`FMEngine._best_prefix` (the bug the integer cut ledger fixes),
the read-only-hypergraph scratch-cache tests, and the
perf-counter smoke test (counters, not wall-clock, so tier-1 safe).
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    BalanceConstraint,
    BestChoice,
    FMConfig,
    FMEngine,
    IllegalHeadPolicy,
    InsertionOrder,
    Partition2,
    TieBias,
    UpdatePolicy,
)
from repro.core.engine import _VECTOR_SEED_MIN_VERTICES
from repro.hypergraph import Hypergraph
from repro.instances import generate_circuit
from tests.oracles._seed_engine import SeedFMEngine

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Every implicit-decision combination: 2 (clip) x 2 (update) x 3 (bias)
#: x 3 (order) x 3 (best) x 3 (illegal head) x 2 (guard) = 648.
ALL_COMBOS = list(
    itertools.product(
        [False, True],
        list(UpdatePolicy),
        list(TieBias),
        list(InsertionOrder),
        list(BestChoice),
        list(IllegalHeadPolicy),
        [False, True],
    )
)


def make_config(combo, max_passes=2) -> FMConfig:
    clip, up, tb, io, bc, ih, gd = combo
    return FMConfig(
        clip=clip,
        update_policy=up,
        tie_bias=tb,
        insertion_order=io,
        best_choice=bc,
        illegal_head=ih,
        guard_oversized=gd,
        max_passes=max_passes,
    )


def assert_equivalent(bal, cfg, base, engine_seed=42):
    """Refine copies of ``base`` with both engines; compare everything."""
    p_seed = base.copy()
    p_new = base.copy()
    r_seed = SeedFMEngine(
        bal, cfg, random.Random(engine_seed), record_moves=True
    ).refine(p_seed)
    r_new = FMEngine(
        bal, cfg, random.Random(engine_seed), record_moves=True
    ).refine(p_new)
    assert r_new.final_cut == r_seed.final_cut
    assert r_new.initial_cut == r_seed.initial_cut
    assert np.array_equal(p_new.assignment, p_seed.assignment)
    assert r_new.passes == r_seed.passes
    assert r_new.total_moves == r_seed.total_moves
    assert r_new.stuck_passes == r_seed.stuck_passes
    for sn, ss in zip(r_new.pass_stats, r_seed.pass_stats):
        assert sn.move_log == ss.move_log
        assert sn.moves_considered == ss.moves_considered
        assert sn.moves_kept == ss.moves_kept
        assert sn.cut_before == ss.cut_before
        assert sn.cut_after == ss.cut_after
        assert sn.stuck == ss.stuck
    p_new.check_consistency()
    return r_new


class TestExhaustiveConfigGrid:
    """All 648 combinations on one weighted and one unit-area instance."""

    @pytest.mark.parametrize("unit_areas", [False, True])
    def test_all_combos(self, unit_areas):
        hg = generate_circuit(90, seed=5, unit_areas=unit_areas)
        bal = BalanceConstraint(hg.total_vertex_weight, 0.2)
        base = Partition2.random_balanced(hg, bal, random.Random(3))
        for combo in ALL_COMBOS:
            assert_equivalent(bal, make_config(combo), base)

    def test_flat_and_clip_with_and_without_guard_tight_balance(self):
        # Tight tolerance exercises illegal selections and corking.
        hg = generate_circuit(120, seed=11, macro_fraction=0.05)
        bal = BalanceConstraint(hg.total_vertex_weight, 0.02)
        base = Partition2.random_balanced(hg, bal, random.Random(9))
        for clip in (False, True):
            for guard in (False, True):
                cfg = FMConfig(clip=clip, guard_oversized=guard, max_passes=4)
                assert_equivalent(bal, cfg, base)

    def test_fixed_vertices(self):
        hg = generate_circuit(80, seed=2)
        bal = BalanceConstraint(hg.total_vertex_weight, 0.2)
        rng = random.Random(4)
        fixed_parts = [
            rng.randint(0, 1) if rng.random() < 0.15 else None
            for _ in range(hg.num_vertices)
        ]
        base = Partition2.random_balanced(hg, bal, rng, fixed_parts)
        for clip in (False, True):
            assert_equivalent(bal, FMConfig(clip=clip, max_passes=3), base)

    def test_full_convergence_default_config(self):
        # No pass cap: both engines must agree all the way to the
        # no-improvement fixed point, not just for the first passes.
        hg = generate_circuit(100, seed=7)
        bal = BalanceConstraint(hg.total_vertex_weight, 0.1)
        base = Partition2.random_balanced(hg, bal, random.Random(1))
        for clip in (False, True):
            assert_equivalent(bal, FMConfig(clip=clip), base)


class TestVectorSeedPath:
    """From ``_VECTOR_SEED_MIN_VERTICES`` vertices on, the engine seeds a
    pass's gains with numpy instead of the per-vertex loop; every other
    case in this suite is too small to take that path."""

    @pytest.mark.parametrize("clip", [False, True], ids=["lifo", "clip"])
    @pytest.mark.parametrize(
        "unit_areas", [False, True], ids=["weighted", "unit"]
    )
    def test_matches_seed_engine(self, unit_areas, clip):
        hg = generate_circuit(400, seed=13, unit_areas=unit_areas)
        assert hg.num_vertices >= _VECTOR_SEED_MIN_VERTICES
        bal = BalanceConstraint(hg.total_vertex_weight, 0.1)
        base = Partition2.random_balanced(hg, bal, random.Random(1))
        assert_equivalent(bal, FMConfig(clip=clip, max_passes=4), base)


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
        combo=st.sampled_from(ALL_COMBOS),
        start_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_random_hypergraph_random_config(self, hg, combo, start_seed):
        bal = BalanceConstraint(hg.total_vertex_weight, 0.3)
        base = Partition2.random_balanced(hg, bal, random.Random(start_seed))
        assert_equivalent(bal, make_config(combo, max_passes=3), base)


class TestBestPrefixFloatTieRegression:
    """The bug the integer cut ledger fixes.

    ``_best_prefix`` detects best-of-pass ties with ``==`` on logged cut
    values.  Under a float ledger, a cut that leaves and re-enters the
    same mathematical value through non-representable intermediates
    (0.1 + 0.2 != 0.3) picks up drift, so two genuinely tied prefixes
    compare unequal and the FIRST/LAST tie-break silently never runs.
    With integral net weights the ledger is exact ``int`` arithmetic and
    the tie is detected.
    """

    # One net of weight 0.3 and a pair of weights 0.1 + 0.2: cutting
    # the former vs the pair is a mathematical tie that float
    # accumulation breaks (0.6000000000000001 - 0.3 != 0.3).  The
    # weights x10 give the exact integer twin of the same instance.
    @staticmethod
    def _cut_logs(weights):
        # v0-v1 on net a, v2-v3 on nets b and c.
        nets = [[0, 1], [2, 3], [2, 3]]
        hg = Hypergraph(nets, 4, net_weights=weights)
        part = Partition2(hg, [0, 0, 0, 0])
        assert part.cut == 0
        # Move v0: cuts a.  Move v2: also cuts b+c.  Move v1: uncuts a,
        # returning to the same mathematical cut as after move 1 — a
        # detectable tie iff the ledger is exact.
        cut_log = []
        for v in (0, 2, 1):
            part.move(v)
            cut_log.append(part.cut)
        return part, cut_log

    def test_float_ledger_breaks_the_tie(self):
        part, cut_log = self._cut_logs([0.3, 0.1, 0.2])
        assert not part.integral_nets
        # Prefixes 1 and 3 are mathematically tied at 0.3 but the
        # drifted ledger reports 0.3 vs 0.30000000000000004.
        assert cut_log[0] == 0.3
        assert cut_log[2] != cut_log[0]

    def test_integer_ledger_detects_the_tie(self):
        part, cut_log = self._cut_logs([3, 1, 2])
        assert part.integral_nets
        assert cut_log[0] == cut_log[2] == 3

    def test_first_vs_last_split_only_in_float_regime(self):
        # Start from an illegal initial solution so only the three move
        # prefixes compete on cut.
        dist = [1.0, 1.0, 1.0]
        for weights, tied in (([0.3, 0.1, 0.2], False), ([3, 1, 2], True)):
            _, cut_log = self._cut_logs(weights)
            first = FMEngine._best_prefix(
                BestChoice.FIRST, 0, -1.0, False, cut_log, dist, 3
            )
            last = FMEngine._best_prefix(
                BestChoice.LAST, 0, -1.0, False, cut_log, dist, 3
            )
            if tied:
                # Exact ledger: prefixes 1 and 3 tie at the minimum cut
                # 3, so FIRST and LAST genuinely differ — the implicit
                # decision is live, as the paper requires.
                assert (first, last) == (1, 3)
            else:
                # Drifted ledger: 0.30000000000000004 > 0.3 makes
                # prefix 1 the unique "minimum"; FIRST == LAST and the
                # configured tie-break silently never runs.
                assert first == last == 1

    def test_seed_and_kernel_agree_on_best_prefix(self):
        # The seed's list-based and the kernel's allocation-free
        # _best_prefix must agree everywhere (shared scratch may be
        # longer than the pass, hence the explicit count).
        rng = random.Random(0)
        for _ in range(200):
            m = rng.randint(0, 12)
            cut_log = [rng.randint(0, 6) for _ in range(m)]
            dist_log = [rng.choice([-2.0, 0.0, 1.0, 3.0]) for _ in range(m)]
            cut_before = rng.randint(0, 6)
            initial_distance = rng.choice([-1.0, 0.5, 2.0])
            initial_legal = rng.random() < 0.7
            padded_cut = cut_log + [99] * 3  # scratch tail must be ignored
            padded_dist = dist_log + [99.0] * 3
            for bc in BestChoice:
                expect = SeedFMEngine._best_prefix(
                    bc, cut_before, initial_distance, initial_legal,
                    cut_log, dist_log,
                )
                got = FMEngine._best_prefix(
                    bc, cut_before, initial_distance, initial_legal,
                    padded_cut, padded_dist, m,
                )
                assert got == expect


class TestScratchCacheInvalidation:
    """The kernel scratch is keyed on hypergraph identity alone: a
    hypergraph's arrays are read-only, so nothing cached from them can
    go stale behind the engine's back."""

    def test_weights_are_read_only(self):
        hg = generate_circuit(60, seed=1)
        bal = BalanceConstraint(hg.total_vertex_weight, 0.2)
        engine = FMEngine(bal, FMConfig(max_passes=2), random.Random(0))
        part = Partition2.random_balanced(hg, bal, random.Random(2))
        engine.refine(part.copy())
        first_scratch = engine._scratch
        assert first_scratch is not None

        # Same hypergraph: scratch is reused.
        engine.refine(part.copy())
        assert engine._scratch is first_scratch

        # Out-of-band mutation is impossible rather than detected.
        for arr in hg.csr + (hg.vertex_weight_array, hg.net_weight_array):
            with pytest.raises(ValueError):
                arr[0] = arr[0] + 1
        assert first_scratch.net_w == hg.int_net_weights().tolist()

    def test_insertion_order_change_invalidates_scratch(self):
        """Nothing in the scratch depends on the configuration, so an
        insertion-order change between refines invalidates nothing: the
        engine keeps its scratch, and the FIFO refine on it still
        matches the seed engine move for move."""
        hg = generate_circuit(60, seed=1)
        bal = BalanceConstraint(hg.total_vertex_weight, 0.2)
        part = Partition2.random_balanced(hg, bal, random.Random(2))
        engine = FMEngine(bal, FMConfig(max_passes=1), random.Random(0),
                          record_moves=True)
        engine.refine(part.copy())
        s1 = engine._scratch
        fifo = FMConfig(max_passes=2, insertion_order=InsertionOrder.FIFO)
        engine.config = fifo
        p_new, p_seed = part.copy(), part.copy()
        r_new = engine.refine(p_new)
        assert engine._scratch is s1
        r_seed = SeedFMEngine(
            bal, fifo, random.Random(0), record_moves=True
        ).refine(p_seed)
        assert ([ps.move_log for ps in r_new.pass_stats]
                == [ps.move_log for ps in r_seed.pass_stats])
        assert r_new.final_cut == r_seed.final_cut
        assert np.array_equal(p_new.assignment, p_seed.assignment)

    def test_pickled_hypergraph_stays_read_only(self):
        # Unpickled numpy arrays come back writeable; the hypergraph must
        # re-freeze them, and must not ship its per-instance caches.
        import pickle

        hg = Hypergraph([[0, 1], [1, 2]], 3, vertex_weights=[1.0, 2.0, 4.0])
        hg.raw_csr  # populate the list views
        clone = pickle.loads(pickle.dumps(hg))
        assert clone.raw_csr == hg.raw_csr
        assert clone.vertex_weights == hg.vertex_weights
        for arr in clone.csr + (clone.vertex_weight_array,):
            assert not arr.flags.writeable


class TestPerfCountersSmoke:
    """Counters are asserted structurally — never on wall-clock — so
    this stays tier-1 safe on any machine."""

    def test_counters_populated_and_consistent(self):
        hg = generate_circuit(100, seed=3)
        bal = BalanceConstraint(hg.total_vertex_weight, 0.1)
        part = Partition2.random_balanced(hg, bal, random.Random(1))
        res = FMEngine(bal, FMConfig(max_passes=3), random.Random(0)).refine(part)
        perf = res.perf
        assert perf is not None
        assert perf.passes == res.passes == len(perf.pass_seconds)
        assert perf.moves_applied == sum(
            ps.moves_considered for ps in res.pass_stats
        )
        assert perf.moves_kept == res.total_moves
        assert perf.moves_rolled_back == perf.moves_applied - perf.moves_kept
        assert perf.vertices_seeded > 0
        assert perf.moves_applied > 0
        assert perf.gain_updates > 0
        # One select per applied move plus the terminating round of
        # each pass — an exact identity of the kernel's control flow.
        assert perf.selects == perf.moves_applied + perf.passes
        d = perf.as_dict()
        assert d["moves_applied"] == perf.moves_applied
        assert "moves_per_second" in d
        assert "passes" in perf.summary()

    def test_update_policy_all_has_no_zero_delta_skips(self):
        hg = generate_circuit(80, seed=6)
        bal = BalanceConstraint(hg.total_vertex_weight, 0.1)
        part = Partition2.random_balanced(hg, bal, random.Random(1))
        res = FMEngine(
            bal,
            FMConfig(max_passes=2, update_policy=UpdatePolicy.ALL),
            random.Random(0),
        ).refine(part)
        assert res.perf.zero_delta_skips == 0
        assert res.perf.noncritical_net_skips == 0

    def test_merge_accumulates(self):
        hg = generate_circuit(60, seed=8)
        bal = BalanceConstraint(hg.total_vertex_weight, 0.1)
        engine = FMEngine(bal, FMConfig(max_passes=2), random.Random(0))
        r1 = engine.refine(Partition2.random_balanced(hg, bal, random.Random(1)))
        r2 = engine.refine(Partition2.random_balanced(hg, bal, random.Random(2)))
        total = r1.perf
        total.merge(r2.perf)
        assert total.passes == r1.passes + r2.passes
        assert len(total.pass_seconds) == total.passes

    def test_as_dict_and_merge_pinned(self):
        """Every field, with ``as_dict``'s key order and values and
        ``merge``'s rule per field, on fully populated counters."""
        from dataclasses import fields

        from repro.core.perf import PerfCounters

        def populated(k, backend, pass_seconds):
            return PerfCounters(
                passes=1 * k, vertices_seeded=2 * k, selects=3 * k,
                moves_applied=4 * k, moves_kept=5 * k,
                moves_rolled_back=6 * k, gain_updates=7 * k,
                zero_delta_skips=8 * k, noncritical_net_skips=9 * k,
                pass_seconds=pass_seconds, total_seconds=2.0 * k,
                coarsen_levels=10 * k, coarsen_neighbors_touched=11 * k,
                coarsen_nets_projected=12 * k, coarsen_nets_merged=13 * k,
                coarsen_nets_dropped=14 * k, coarsen_seconds=0.75 * k,
                hierarchies_built=15 * k, hierarchies_reused=16 * k,
                backend=backend, compile_seconds=3.0 * k,
            )

        names = {f.name for f in fields(PerfCounters)}
        assert names == set(
            PerfCounters.COUNT_FIELDS + PerfCounters.TIMING_FIELDS
        ) | {"pass_seconds", "backend"}

        perf = populated(1, "cnative", [0.5, 0.25])
        d = perf.as_dict()
        assert list(d.items()) == [
            ("passes", 1), ("vertices_seeded", 2), ("selects", 3),
            ("moves_applied", 4), ("moves_kept", 5),
            ("moves_rolled_back", 6), ("gain_updates", 7),
            ("zero_delta_skips", 8), ("noncritical_net_skips", 9),
            ("pass_seconds", [0.5, 0.25]), ("total_seconds", 2.0),
            ("moves_per_second", 2.0), ("coarsen_levels", 10),
            ("coarsen_neighbors_touched", 11),
            ("coarsen_nets_projected", 12), ("coarsen_nets_merged", 13),
            ("coarsen_nets_dropped", 14), ("coarsen_seconds", 0.75),
            ("hierarchies_built", 15), ("hierarchies_reused", 16),
            ("backend", "cnative"),
            ("compile_seconds", 3.0),
        ]
        assert d["pass_seconds"] is not perf.pass_seconds

        # Counts and timings add, pass times concatenate, and two
        # different backends merge to "mixed".
        perf.merge(populated(2, "numpy", [1.0]))
        assert perf == populated(3, "mixed", [0.5, 0.25, 1.0])


# ----------------------------------------------------------------------
# Registry-backend sweeps: every backend behind the same oracle chain
# ----------------------------------------------------------------------
from repro.backends import BACKEND_NAMES, get_backend  # noqa: E402
from repro.core.perf import PerfCounters  # noqa: E402
from repro.multilevel.mlpart import MLConfig  # noqa: E402
from repro.multilevel.pool import build_hierarchy  # noqa: E402


def _available_backends():
    """Non-numpy registry backends that activated on this install."""
    return [
        name
        for name in BACKEND_NAMES
        if name != "numpy" and get_backend(name).available
    ]


def assert_backend_equivalent(bal, cfg, base, backend, engine_seed=42):
    """Refine copies of ``base`` on the interpreted numpy engine and on
    ``backend``; compare move for move (the same contract the seed
    oracle is held to, one link further down the chain), and every
    deterministic perf counter, which ``perf.json`` reports per
    heuristic."""
    p_ref = base.copy()
    p_b = base.copy()
    r_ref = FMEngine(
        bal, cfg, random.Random(engine_seed), record_moves=True,
        backend="numpy",
    ).refine(p_ref)
    eng = FMEngine(
        bal, cfg, random.Random(engine_seed), record_moves=True,
        backend=backend,
    )
    r_b = eng.refine(p_b)
    assert eng._backend_name == backend, eng._backend_note
    assert r_b.final_cut == r_ref.final_cut
    assert r_b.initial_cut == r_ref.initial_cut
    assert np.array_equal(p_b.assignment, p_ref.assignment)
    assert r_b.passes == r_ref.passes
    assert r_b.total_moves == r_ref.total_moves
    assert r_b.stuck_passes == r_ref.stuck_passes
    for sb, sr in zip(r_b.pass_stats, r_ref.pass_stats):
        assert sb.move_log == sr.move_log
        assert sb.moves_considered == sr.moves_considered
        assert sb.moves_kept == sr.moves_kept
        assert sb.cut_before == sr.cut_before
        assert sb.cut_after == sr.cut_after
        assert sb.stuck == sr.stuck
    for name in PerfCounters.COUNT_FIELDS:
        assert getattr(r_b.perf, name) == getattr(r_ref.perf, name), name
    p_b.check_consistency()


class TestBackendSmoke:
    """Tier-1 backend smoke: flat + CLIP on every available backend.

    Cheap (two short refinements per backend), so a compiler-equipped
    install exercises the compiled path on every tier-1 run.
    """

    @pytest.mark.parametrize("backend", _available_backends() or ["numpy"])
    def test_flat_and_clip_bit_identical(self, backend):
        hg = generate_circuit(90, seed=5)
        bal = BalanceConstraint(hg.total_vertex_weight, 0.2)
        base = Partition2.random_balanced(hg, bal, random.Random(3))
        for clip in (False, True):
            cfg = FMConfig(clip=clip, max_passes=2)
            if backend == "numpy":  # numpy-only install: nothing to sweep
                assert_equivalent(bal, cfg, base)
            else:
                assert_backend_equivalent(bal, cfg, base, backend)

    @pytest.mark.parametrize("backend", _available_backends() or ["numpy"])
    def test_dense_coarse_levels_bit_identical(self, backend):
        """Every coarse level of a 2000-cell hierarchy: 1106 down to 40
        vertices, up to 8.4 nets per vertex, nets of up to 99 pins and a
        gain bound up to 249, a shape neither the self-check nor the
        fuzz instances reach.  The All update policy walks the large
        nets the Nonzero policy mostly skips as non-critical."""
        hierarchy = build_hierarchy(
            generate_circuit(2000, seed=3), MLConfig(), random.Random(1)
        )
        for level, _ in hierarchy.levels:
            hg = level.coarse
            bal = BalanceConstraint(hg.total_vertex_weight, 0.1)
            base = Partition2.random_balanced(hg, bal, random.Random(3))
            for clip, policy in itertools.product(
                (False, True), UpdatePolicy
            ):
                cfg = FMConfig(clip=clip, update_policy=policy, max_passes=2)
                if backend == "numpy":
                    assert_equivalent(bal, cfg, base)
                else:
                    assert_backend_equivalent(bal, cfg, base, backend)

    def test_unavailable_backends_record_reasons(self):
        """Every registered-but-unavailable backend carries a reason."""
        for name in BACKEND_NAMES:
            info = get_backend(name)
            if not info.available:
                assert info.reason


@pytest.mark.backend
class TestBackendConfigGrid:
    """Full implicit-decision grid per registered backend (``-m
    backend``; the smoke above keeps a slice in tier-1)."""

    @pytest.mark.parametrize(
        "backend", [n for n in BACKEND_NAMES if n != "numpy"]
    )
    @pytest.mark.parametrize("unit_areas", [False, True])
    def test_all_combos(self, backend, unit_areas):
        info = get_backend(backend)
        if not info.available:
            pytest.skip(f"{backend}: {info.reason}")
        hg = generate_circuit(90, seed=5, unit_areas=unit_areas)
        bal = BalanceConstraint(hg.total_vertex_weight, 0.2)
        base = Partition2.random_balanced(hg, bal, random.Random(3))
        for combo in ALL_COMBOS:
            assert_backend_equivalent(bal, make_config(combo), base, backend)

    @pytest.mark.parametrize(
        "backend", [n for n in BACKEND_NAMES if n != "numpy"]
    )
    def test_fixed_vertices_and_tight_balance(self, backend):
        info = get_backend(backend)
        if not info.available:
            pytest.skip(f"{backend}: {info.reason}")
        hg = generate_circuit(120, seed=11, macro_fraction=0.05)
        bal = BalanceConstraint(hg.total_vertex_weight, 0.02)
        base = Partition2.random_balanced(hg, bal, random.Random(9))
        for clip in (False, True):
            cfg = FMConfig(clip=clip, max_passes=4)
            assert_backend_equivalent(bal, cfg, base, backend)
        hg = generate_circuit(80, seed=2)
        bal = BalanceConstraint(hg.total_vertex_weight, 0.2)
        rng = random.Random(4)
        fixed_parts = [
            rng.randint(0, 1) if rng.random() < 0.15 else None
            for _ in range(hg.num_vertices)
        ]
        base = Partition2.random_balanced(hg, bal, rng, fixed_parts)
        for clip in (False, True):
            assert_backend_equivalent(
                bal, FMConfig(clip=clip, max_passes=3), base, backend
            )

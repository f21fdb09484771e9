"""Backend registry behaviour: resolution, fallback, self-check, and
the warm-up accounting contract.

The bit-identity of each backend's *kernels* is pinned by the sweeps in
``test_kernel_equivalence.py`` / ``test_coarsen_equivalence.py`` /
``test_eval_equivalence.py``; this module tests the machinery around
them:

* resolution order (explicit > process default > ``REPRO_BACKEND`` >
  numpy) and the ``auto`` alias;
* the silent-fallback contract — requesting an unavailable backend
  (cnative whose import fails) or an unknown one (``flatref``, a name
  older stores carry) runs the interpreted paths with the reason
  recorded, never raises, and produces records identical to a plain run
  on every execution plane;
* the activation self-check rejecting a mutant of each kernel, running
  inside a multilevel run, and importing no evaluation layer;
* honest warm-up accounting — compile time charged to
  ``PerfCounters.compile_seconds`` at payload-attach, never leaking
  into trial runtimes;
* ``PerfCounters.backend`` merge semantics and the JobSpec wire
  stability contract for the ``backend`` field.
"""

import os
import random
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from repro.backends import (
    BACKEND_NAMES,
    ENV_VAR,
    KernelSet,
    active_kernels,
    backend_status,
    get_backend,
    resolution_generation,
    resolve_backend,
    set_default_backend,
    warmup,
)
from repro.backends import registry as registry_mod
from repro.backends.selfcheck import SelfCheckError, run_selfcheck
from repro.core import (
    BalanceConstraint,
    FMConfig,
    FMEngine,
    FMPartitioner,
    InsertionOrder,
    Partition2,
)
from repro.core.perf import PerfCounters
from repro.hypergraph import Hypergraph, write_hgr
from repro.hypergraph.hypergraph import _build_transpose
from repro.instances import generate_circuit
from repro.multilevel import MLPartitioner


@pytest.fixture(autouse=True)
def clean_registry(monkeypatch):
    """Isolate resolution state: no inherited env/default, and any
    default a test sets is dropped afterwards.  The activation cache is
    left alone (activations are immutable facts about this install)
    except for tests that explicitly reset entries, which re-probe."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    set_default_backend(None)
    yield
    set_default_backend(None)


@pytest.fixture
def no_cnative(monkeypatch):
    """Make cnative's activation fail, even where a compiler exists:
    poison its import (the ``sys.modules`` entry and the package
    attribute) and reset the registry; both are restored, and the
    registry reset again, afterwards."""
    import repro.backends as backends_pkg

    monkeypatch.setitem(sys.modules, "repro.backends.cnative", None)
    monkeypatch.delattr(backends_pkg, "cnative", raising=False)
    registry_mod.reset()
    yield
    monkeypatch.undo()
    registry_mod.reset()


def _available():
    return [
        name
        for name in BACKEND_NAMES
        if name != "numpy" and get_backend(name).available
    ]


def _cnative_kernels():
    info = get_backend("cnative")
    if not info.available:
        pytest.skip(f"cnative: {info.reason}")
    return info.kernels


def _campaign_keys(store_dir, tag, **kwargs):
    """Records of a 3-start flat FM campaign run with ``kwargs``."""
    from repro.evaluation import CampaignSpec
    from repro.orchestrate import orchestrate_campaign

    spec = CampaignSpec(
        name=f"fb-{tag}",
        heuristics=[FMPartitioner(tolerance=0.1, name="fm10")],
        instances={"c60": generate_circuit(60, seed=7)},
        num_starts=3,
    )
    result = orchestrate_campaign(spec, store_dir=store_dir / tag, **kwargs)
    return [
        (r.heuristic, r.instance, r.seed, r.cut, r.legal)
        for r in result.records
    ]


# ----------------------------------------------------------------------
# Resolution order
# ----------------------------------------------------------------------
class TestResolution:
    def test_default_is_numpy(self):
        assert resolve_backend() == ("numpy", "")
        name, kernels, note = active_kernels()
        assert (name, kernels, note) == ("numpy", None, "")

    def test_explicit_beats_default_beats_env(self, monkeypatch):
        _cnative_kernels()
        monkeypatch.setenv(ENV_VAR, "cnative")
        assert resolve_backend()[0] == "cnative"
        set_default_backend("numpy")
        assert resolve_backend()[0] == "numpy"
        set_default_backend("cnative")
        assert resolve_backend()[0] == "cnative"
        assert resolve_backend("numpy") == ("numpy", "")

    def test_empty_env_means_numpy(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "")
        assert resolve_backend() == ("numpy", "")

    def test_unknown_name_falls_back_with_reason(self):
        name, note = resolve_backend("fortran77")
        assert name == "numpy"
        assert "fortran77" in note and "unknown" in note

    def test_unavailable_falls_back_with_reason(self, no_cnative):
        name, note = resolve_backend("cnative")
        assert name == "numpy"
        assert "cnative" in note
        assert get_backend("cnative").reason in note

    def test_auto_prefers_compiled_else_numpy(self):
        """``auto`` is an alias for cnative."""
        name, note = resolve_backend("auto")
        info = get_backend("cnative")
        if info.available:
            assert (name, note) == ("cnative", "")
        else:
            assert name == "numpy"
            assert info.reason in note

    def test_status_covers_every_registered_backend(self):
        status = backend_status()
        assert [row["name"] for row in status] == list(BACKEND_NAMES)
        for row in status:
            if not row["available"]:
                assert row["reason"]

    def test_generation_bumps_on_default_and_reset(self):
        _cnative_kernels()
        g0 = resolution_generation()
        set_default_backend("cnative")
        g1 = resolution_generation()
        assert g1 > g0
        registry_mod.reset("cnative")
        assert resolution_generation() > g1
        get_backend("cnative")  # re-probe so later tests see it cached


# ----------------------------------------------------------------------
# Warm-up accounting (registry level)
# ----------------------------------------------------------------------
class TestWarmup:
    def test_numpy_warmup_is_free(self):
        assert warmup("numpy") == ("numpy", 0.0)
        assert warmup(None) == ("numpy", 0.0)

    def test_second_warmup_never_double_bills(self):
        for name in _available():
            warmup(name)  # ensure activated (maybe billed here)
            resolved, seconds = warmup(name)
            assert resolved == name
            assert seconds == 0.0

    def test_cold_warmup_bills_once(self):
        for name in _available():
            registry_mod.reset(name)
            resolved, seconds = warmup(name)
            assert resolved == name
            assert seconds > 0.0
            assert seconds == get_backend(name).compile_seconds


# ----------------------------------------------------------------------
# Self-check: a divergent kernel set must be unselectable
# ----------------------------------------------------------------------
def _mutant(ks, kernel, perturb):
    """``ks`` with ``kernel`` wrapped so that ``perturb`` edits one of
    its outputs after every call."""
    kernels = {k: getattr(ks, k) for k in KernelSet.__slots__ if k != "name"}
    inner = kernels[kernel]

    def broken(*args):
        inner(*args)
        perturb(args)

    kernels[kernel] = broken
    return KernelSet("mutant", types.SimpleNamespace(**kernels))


def _bump(array, index, delta=1):
    array[index] += delta


SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Stacks that only the code using them imports: no partitioning entry
#: point may load a module whose name starts so.  networkx and scipy
#: load inside the functions that call them, and ``multiprocessing``
#: only with ``repro.orchestrate.executor``, the one module that starts
#: worker processes.
HEAVY = ("networkx", "scipy", "multiprocessing")

#: Activates cnative in a fresh interpreter and lists the heavy modules
#: that got imported.
ACTIVATE = """
import sys
sys.path.insert(0, {src!r})
import repro
from repro.backends import get_backend
get_backend("cnative")
print(sorted(m for m in sys.modules
             if m == "repro.evaluation" or m.startswith({heavy!r})))
"""

#: Interpreter arguments of the other entry points that must stay clear
#: of ``HEAVY``: the e2e set-up imports of ``ml_paper_scale`` and
#: ``flat_multistart``, the baselines, and the CLI.
ENTRY_POINTS = {
    "ml_setup": ["-c", "import repro.multilevel.mlpart, "
                       "repro.hypergraph.io_hmetis"],
    "flat_setup": ["-c", "import repro.core.config, repro.core.multistart, "
                         "repro.core.partitioner"],
    "baselines": ["-c", "import repro.baselines"],
    "cli": ["-c", "import repro.cli"],
    "cli_help": ["-m", "repro", "--help"],
}

#: The campaign and service planes start the worker pool, so they may
#: load ``multiprocessing``, but neither scientific stack: the Wilcoxon
#: matrix every report renders is numpy, ``scipy.stats`` loads only
#: inside ``mann_whitney`` and ``scipy.sparse`` only inside the spectral
#: baseline.
SCIENTIFIC = ("networkx", "scipy")

#: Renders a campaign report on synthetic records.
REPORT = """
from repro.evaluation import CampaignResult, TrialRecord
records = [TrialRecord(h, "x", s, float(50 + (7 * s + 3 * i) % 13),
                       0.01 * (1 + s % 4), True)
           for i, h in enumerate("ABC") for s in range(16)]
print(CampaignResult("synthetic", records).report(num_shuffles=20))
"""

#: Interpreter arguments of the campaign and service planes' entry
#: points: the e2e set-up imports of ``campaign_table45``, the service,
#: ``repro campaign report`` on a finished journal (``STORE`` stands for
#: its directory) and a report rendered in a fresh interpreter.
STORE = "<store>"
PLANE_ENTRY_POINTS = {
    "table45_setup": ["-c", "import repro.core.config, "
                            "repro.evaluation.campaign, "
                            "repro.hypergraph.io_hmetis, "
                            "repro.multilevel.mlpart, repro.orchestrate"],
    "service": ["-c", "import repro.service"],
    "campaign_report": ["-m", "repro", "campaign", "report", STORE],
    "report": ["-c", REPORT],
}


def _imported(argv):
    """Run the interpreter on ``argv`` under ``-X importtime``, which
    lists every module the process imports; return the completed
    process and those module names."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "repro" in imported
    return proc, imported


@pytest.fixture(scope="module")
def finished_store(tmp_path_factory):
    """The journal directory of a finished one-worker campaign."""
    from repro.evaluation import CampaignSpec, run_campaign

    spec = CampaignSpec(
        name="tiny",
        heuristics=[FMPartitioner(tolerance=0.1, name="LIFO"),
                    FMPartitioner(FMConfig(clip=True), tolerance=0.1,
                                  name="CLIP")],
        instances={"c80": generate_circuit(80, seed=3)},
        num_starts=6,
    )
    root = tmp_path_factory.mktemp("stores")
    run_campaign(spec, workers=1, store_dir=root)
    return root / spec.name


#: One perturbed output per kernel other than ``fm_pass``, addressed by
#: its position in the kernel's arguments (see ``repro.backends.cnative``).
MUTANTS = [
    ("hem_match", lambda a: _bump(a[-2], 0)),                # a cluster id
    ("fc_cluster", lambda a: _bump(a[-2], 0)),
    ("hec_contract", lambda a: _bump(a[-2], 0)),
    ("contract", lambda a: _bump(a[-2], 0, 1.0)),            # a net weight
    ("transpose", lambda a: _bump(a[-1], 0)),                # a vtx_nets entry
    ("shuffle_rows", lambda a: _bump(a[3], (0, 0))),         # a permutation entry
    ("bootstrap_tables", lambda a: _bump(a[5], (0, -1), -1.0)),  # a prefix minimum
]


class TestInt32Kernels:
    """The kernels read the hypergraph's int32 CSR in place."""

    def test_wrappers_refuse_other_csr_layouts(self):
        ks = _cnative_kernels()
        hg = generate_circuit(60, seed=3)
        wide = [a.astype(np.int64) for a in hg.csr]
        strided = np.repeat(hg.csr[1], 2)[::2]
        assert strided.dtype == np.int32 and not strided.flags.c_contiguous
        calls = {
            "fm_pass": lambda c: ks.fm_pass(*c, *[None] * 25),
            "hem_match": lambda c: ks.hem_match(*c, *[None] * 8),
            "fc_cluster": lambda c: ks.fc_cluster(*c, *[None] * 8),
            "hec_contract": lambda c: ks.hec_contract(*c[:2], *[None] * 8),
            "contract": lambda c: ks.contract(
                *c[:2], None, None, None, None, None, *c[:2], None, None),
        }
        for kernel, call in calls.items():
            for csr in (wide, [strided] * 4):
                with pytest.raises(ValueError, match="int32"):
                    call(csr)

    def test_transpose_matches_the_stable_sort(self):
        """The counting-sort kernel lists each vertex's nets as
        ``_build_transpose`` does, on the shapes a coarse level can take:
        isolated vertices, empty and one-pin nets, and one net of
        160,000 pins (listed in descending order) that every other net
        overlaps."""
        ks = _cnative_kernels()
        rng = random.Random(6)
        big = 160_000
        cases = [
            Hypergraph([], 3),
            Hypergraph([[3], [], [1, 2, 3], [5, 1], [], [6]], 9),
            Hypergraph([list(range(big - 1, -1, -1))]
                       + [rng.sample(range(big), 3) for _ in range(500)],
                       big + 2),
            generate_circuit(3000, seed=2),
        ]
        for hg in cases:
            net_ptr, net_pins, _, _ = hg.csr
            want = _build_transpose(hg.num_vertices, net_ptr, net_pins)
            got = [np.full_like(a, -7) for a in want]
            ks.transpose(net_ptr, net_pins, *got)
            for g, w in zip(got, want):
                assert g.dtype == np.int32 and np.array_equal(g, w)

    def test_transpose_refuses_other_layouts(self):
        ks = _cnative_kernels()
        csr = generate_circuit(60, seed=3).csr
        wide = [a.astype(np.int64) for a in csr]
        strided = [np.repeat(a, 2)[::2] for a in csr]
        for bad in (wide, strided):
            for i in range(4):
                args = list(csr[:2]) + [np.empty_like(a) for a in csr[2:]]
                args[i] = bad[i]
                with pytest.raises(ValueError, match="int32"):
                    ks.transpose(*args)
        short = np.empty(csr[1].shape[0] - 1, dtype=np.int32)
        with pytest.raises(ValueError, match="slots for"):
            ks.transpose(csr[0], csr[1], np.empty_like(csr[2]), short)

    @pytest.mark.parametrize("clustering", ["heavy_edge", "restricted"])
    def test_matching_skips_matched_neighbours_unseen(self, clustering):
        """Neighbours matched earlier are skipped while connectivity
        accumulates; cluster maps, draws and the touched count stay the
        interpreted loop's."""
        from repro.multilevel import matching

        _cnative_kernels()
        hg = generate_circuit(3000, seed=8)
        runs = []
        for backend in ("numpy", "cnative"):
            rng, perf = random.Random(4), PerfCounters()
            if clustering == "heavy_edge":
                cluster = matching.heavy_edge_matching(
                    hg, rng, perf=perf, backend=backend)
            else:
                side = [v % 2 for v in range(hg.num_vertices)]
                cluster = matching.restricted_matching(
                    hg, side, rng, perf=perf, backend=backend)
            runs.append((cluster.tolist(), rng.getstate(),
                         perf.coarsen_neighbors_touched))
        assert runs[0] == runs[1]
        assert len(set(runs[0][0])) < hg.num_vertices  # it matched

    @pytest.mark.parametrize("clustering", [
        "heavy_edge_matching", "first_choice_clustering",
        "hyperedge_coarsening",
    ])
    def test_fixed_map_of_another_length_is_refused(self, clustering):
        """A fixed map without one entry per vertex raises on every
        backend before any draw: the kernels read the map by vertex id
        and would read a short one past its end."""
        from repro.multilevel import matching

        _cnative_kernels()
        hg = generate_circuit(300, seed=1)
        n = hg.num_vertices
        for backend in ("numpy", "cnative"):
            for fixed in ([], [None] * (n - 1),
                          np.zeros(n + 1, dtype=np.int64)):
                rng = random.Random(0)
                with pytest.raises(ValueError,
                                   match=f"entries for {n} vertices"):
                    getattr(matching, clustering)(
                        hg, rng, fixed_parts=fixed, backend=backend)
                assert rng.getstate() == random.Random(0).getstate()


class TestSelfCheck:
    def test_selfcheck_accepts_reference(self):
        """cnative reproduces the interpreted paths."""
        run_selfcheck(_cnative_kernels())

    def test_selfcheck_rejects_corrupted_fm_pass(self):
        # Flip the kept-prefix length (``out[1]``): a plausible
        # off-by-one in a hand-written kernel.
        ks = _mutant(_cnative_kernels(), "fm_pass",
                     lambda a: _bump(a[-1], 1))
        with pytest.raises(SelfCheckError, match=": fm_pass: "):
            run_selfcheck(ks)

    @pytest.mark.parametrize("kernel,perturb", MUTANTS,
                             ids=[kernel for kernel, _ in MUTANTS])
    def test_selfcheck_rejects_each_corrupted_kernel(self, kernel, perturb):
        ks = _mutant(_cnative_kernels(), kernel, perturb)
        with pytest.raises(SelfCheckError, match=f": {kernel}: "):
            run_selfcheck(ks)

    def test_activation_inside_a_run(self):
        """With the registry reset, cnative activates, self-check and
        all, inside an ML start's first matching call.  That start, and
        an interpreted start run afterwards, equal a start on a backend
        activated beforehand."""
        _cnative_kernels()
        hg = generate_circuit(300, seed=4)

        def start(backend):
            result = MLPartitioner(tolerance=0.1, backend=backend).partition(
                hg, seed=2
            )
            return result.cut, result.assignment

        warm = start("cnative")
        registry_mod.reset()
        assert start("cnative") == warm
        assert start("numpy") == warm

    def test_read_hgr_activates_no_backend(self, tmp_path):
        """The reader runs on numpy alone, even where the environment
        asks for cnative: it neither activates a backend nor loads the
        kernel module."""
        path = tmp_path / "c.hgr"
        write_hgr(generate_circuit(300, seed=5), path)
        code = (
            f"import sys; sys.path.insert(0, {SRC!r}); "
            "from repro.backends import registry; "
            "from repro.hypergraph import read_hgr; "
            f"read_hgr({str(path)!r}); "
            "print(sorted(registry._ACTIVATED), "
            "'repro.backends.cnative' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, timeout=300,
            env=dict(os.environ, REPRO_BACKEND="cnative"),
        )
        assert proc.stdout.split() == ["[]", "False"]

    def test_activation_imports_no_evaluation_layer(self):
        """Activation is paid in every campaign worker's attach and in
        the e2e ``setup_s``, and processes that only partition need no
        evaluation layer.  scipy costs about a second of imports,
        networkx another 0.1 s and ``multiprocessing`` about 6 ms, so
        neither ``import repro`` nor the self-check may reach any of
        them."""
        proc = subprocess.run(
            [sys.executable, "-c", ACTIVATE.format(src=SRC, heavy=HEAVY)],
            capture_output=True, text=True, check=True, timeout=300,
        )
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv", ENTRY_POINTS.values(),
                             ids=ENTRY_POINTS.keys())
    def test_entry_point_imports_no_heavy_stack(self, argv):
        """The CLI is checked as users run it."""
        proc, imported = _imported(argv)
        assert [m for m in imported if m.startswith(HEAVY)] == []
        if argv[0] == "-m":
            assert proc.stdout.startswith("usage:")

    @pytest.mark.parametrize("name", PLANE_ENTRY_POINTS)
    def test_plane_entry_point_imports_no_scientific_stack(
            self, name, finished_store):
        proc, imported = _imported(
            [str(finished_store) if a == STORE else a
             for a in PLANE_ENTRY_POINTS[name]])
        assert [m for m in imported if m.startswith(SCIENTIFIC)] == []
        if name.endswith("report"):
            assert "Pairwise significance" in proc.stdout


# ----------------------------------------------------------------------
# The C kernels: warnings gate and the 32-bit working-set limit
# ----------------------------------------------------------------------
class TestCnativeKernels:
    def test_source_compiles_warning_free(self):
        """The build uses plain ``-O2``, so narrowing into the 32-bit
        working set would otherwise pass unnoticed."""
        cc = shutil.which(os.environ.get("CC", "cc"))
        if cc is None:
            pytest.skip("no C compiler")
        import repro.backends

        source = Path(repro.backends.__file__).with_name("_kernels.c")
        proc = subprocess.run(
            [cc, "-Wall", "-Wextra", "-Wconversion", "-Wshadow",
             "-Werror", "-fsyntax-only", str(source)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_fm_pass_declines_spans_past_32_bits(self):
        """A bucket span ``2*max_abs+1`` of 2**31 or more is declined
        (``out[7] == 2``) before any state, draw or log is touched."""
        ks = _cnative_kernels()
        hg = generate_circuit(40, seed=2)
        bal = BalanceConstraint(hg.total_vertex_weight, 0.2)
        part = Partition2.random_balanced(hg, bal, random.Random(0))
        st = random.Random(5).getstate()
        state = [
            part.assignment.copy(), part.fixed.astype(np.int64),
            part.pins_in_part[0].copy(), part.pins_in_part[1].copy(),
            np.array([int(w) for w in part.part_weights], dtype=np.int64),
            np.array([part.cut], dtype=np.int64),
            np.array(st[1][:624], dtype=np.int64),
            np.array(st[1][624:], dtype=np.int64),
            np.zeros(hg.num_vertices, dtype=np.int64),
            np.zeros(8, dtype=np.int64),
        ]
        args = [a.copy() for a in state]
        assign, fixed, pins0, pins1, pw, cut_io, mt, mti, log, out = args
        for max_abs in (2**30, 2**40):
            ks.fm_pass(
                *hg.csr, hg.int_net_weights(),
                hg.vertex_weight_array.astype(np.int64),
                assign, fixed, pins0, pins1, pw, cut_io,
                bal.lower_bound, bal.upper_bound, bal.slack, 1, 0.0,
                0, 0, 0, 2, 2, 0, 1, max_abs, mt, mti, log, out,
            )
            assert out[7] == 2
            out[7] = 0
            for before, after in zip(state, args):
                assert np.array_equal(before, after)

    def test_engine_runs_interpreted_when_kernel_declines(self, monkeypatch):
        import repro.backends as backends

        class Declining:
            @staticmethod
            def fm_pass(*args):
                args[-1][7] = 2

        monkeypatch.setattr(
            backends, "active_kernels",
            lambda explicit=None: ("cnative", Declining, ""),
        )
        hg = generate_circuit(60, seed=1)
        bal = BalanceConstraint(hg.total_vertex_weight, 0.2)
        base = Partition2.random_balanced(hg, bal, random.Random(0))
        p_ref, p_dec = base.copy(), base.copy()
        r_ref = FMEngine(bal, FMConfig(max_passes=2), random.Random(7),
                         backend="numpy").refine(p_ref)
        r_dec = FMEngine(bal, FMConfig(max_passes=2), random.Random(7),
                         backend="cnative").refine(p_dec)
        assert r_dec.perf.backend == "numpy"
        assert r_dec.final_cut == r_ref.final_cut
        assert np.array_equal(p_dec.assignment, p_ref.assignment)
        p_dec.check_consistency()

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("order", list(InsertionOrder),
                             ids=lambda o: o.value)
    @pytest.mark.parametrize("clip", [False, True], ids=["fm", "clip"])
    def test_declined_pass_continues_the_same_refine(self, clip, order, k):
        """When the kernel declines its k-th pass, that pass and the rest
        of the call run interpreted under the same pass budget, so the
        refine equals the numpy engine's in every observable."""
        ks = _cnative_kernels()
        calls = 0

        def fm_pass(*args):
            nonlocal calls
            calls += 1
            if calls == k:
                args[-1][7] = 2  # out[7]: the kernel declined
            else:
                ks.fm_pass(*args)

        kernels = {name: getattr(ks, name)
                   for name in KernelSet.__slots__ if name != "name"}
        kernels["fm_pass"] = fm_pass
        declining = KernelSet("declining", types.SimpleNamespace(**kernels))
        hg = generate_circuit(400, seed=13)
        bal = BalanceConstraint(hg.total_vertex_weight, 0.1)
        base = Partition2.random_balanced(hg, bal, random.Random(1))
        cfg = FMConfig(clip=clip, insertion_order=order, max_passes=4)
        runs = []
        for backend in ("numpy", declining):
            part = base.copy()
            rng = random.Random(7)
            result = FMEngine(bal, cfg, rng, record_moves=True,
                              backend=backend).refine(part)
            runs.append({
                "assignment": part.assignment.tolist(),
                "passes": result.passes,
                "initial cut": result.initial_cut,
                "final cut": result.final_cut,
                "move logs": [ps.move_log for ps in result.pass_stats],
                "RNG state": rng.getstate(),
                "backend": result.perf.backend,
            })
        assert calls == k  # passes 1..k-1 ran on the kernel
        ref, got = runs
        assert got["backend"] == "numpy"
        for what in ref:
            assert got[what] == ref[what], what


# ----------------------------------------------------------------------
# Fallback: a failed activation or an unknown name degrades to numpy
# ----------------------------------------------------------------------
class TestNumbaFallback:
    """Requests the registry cannot honour — cnative with its import
    poisoned, and names it does not know — run numpy."""

    def test_unavailable_with_recorded_reason(self, no_cnative):
        info = get_backend("cnative")
        assert not info.available
        assert "activation failed" in info.reason
        name, note = resolve_backend("cnative")
        assert name == "numpy"
        assert info.reason in note

    def test_auto_names_cnative_reason(self, no_cnative):
        name, note = resolve_backend("auto")
        assert name == "numpy"
        assert "cnative" in note
        assert get_backend("cnative").reason in note

    def test_engine_runs_interpreted_with_note(self, no_cnative):
        hg = generate_circuit(60, seed=1)
        bal = BalanceConstraint(hg.total_vertex_weight, 0.2)
        base = Partition2.random_balanced(hg, bal, random.Random(0))
        eng_ref = FMEngine(bal, FMConfig(max_passes=2), random.Random(7),
                           record_moves=True, backend="numpy")
        eng_fb = FMEngine(bal, FMConfig(max_passes=2), random.Random(7),
                          record_moves=True, backend="cnative")
        p_ref, p_fb = base.copy(), base.copy()
        r_ref = eng_ref.refine(p_ref)
        r_fb = eng_fb.refine(p_fb)
        assert eng_fb._backend_name == "numpy"
        assert "cnative" in eng_fb._backend_note
        assert r_fb.final_cut == r_ref.final_cut
        assert np.array_equal(p_fb.assignment, p_ref.assignment)
        for s_fb, s_ref in zip(r_fb.pass_stats, r_ref.pass_stats):
            assert s_fb.move_log == s_ref.move_log

    def test_campaign_records_identical_on_all_planes(self, no_cnative,
                                                      tmp_path):
        def run(tag, **kwargs):
            return _campaign_keys(tmp_path, tag, **kwargs)

        plain = run("plain")
        # Forked pool workers inherit the failed activation.
        assert run("serial", backend="cnative") == plain
        assert run("pool", backend="cnative", workers=2) == plain
        assert run("batched", backend="cnative", workers=2,
                   batch_size=2) == plain
        # Sticky caching draws hierarchy seeds from the pooled stream,
        # so its reference is a sticky run without the backend request.
        sticky = run("sticky-ref", sticky_cache=True)
        assert run("sticky", backend="cnative", sticky_cache=True) == sticky

    def test_retired_backend_name_runs_numpy(self, tmp_path):
        """``flatref`` is a name older stores, job specs and configs
        carry; it resolves like any unknown name."""
        from repro.orchestrate.store import RunStore

        name, note = resolve_backend("flatref")
        assert name == "numpy"
        assert "unknown backend" in note
        plain = _campaign_keys(tmp_path, "plain")
        assert _campaign_keys(tmp_path, "old", backend="flatref") == plain
        perf = RunStore(tmp_path / "old" / "fb-old").load_perf()
        assert perf["fm10"].backend == "numpy"


# ----------------------------------------------------------------------
# Engine re-resolution: cached engines follow the process default
# ----------------------------------------------------------------------
class TestEngineResolution:
    def test_reused_engine_follows_default_backend(self):
        hg = generate_circuit(60, seed=2)
        bal = BalanceConstraint(hg.total_vertex_weight, 0.2)
        eng = FMEngine(bal, FMConfig(max_passes=1), random.Random(1))
        part = Partition2.random_balanced(hg, bal, random.Random(3))
        eng.refine(part.copy())
        assert eng._backend_name == "numpy"
        for name in _available():
            set_default_backend(name)
            eng.refine(part.copy())
            assert eng._backend_name == name, (
                "engine kept a stale kernel resolution across "
                "set_default_backend"
            )
        set_default_backend(None)
        eng.refine(part.copy())
        assert eng._backend_name == "numpy"

    def test_explicit_engine_backend_wins_over_default(self):
        hg = generate_circuit(60, seed=2)
        bal = BalanceConstraint(hg.total_vertex_weight, 0.2)
        part = Partition2.random_balanced(hg, bal, random.Random(3))
        _cnative_kernels()
        set_default_backend("cnative")
        eng = FMEngine(bal, FMConfig(max_passes=1), random.Random(1),
                       backend="numpy")
        eng.refine(part.copy())
        assert eng._backend_name == "numpy"


# ----------------------------------------------------------------------
# Warm-up accounting (executor level): the timing-skew regression
# ----------------------------------------------------------------------
class TestWarmupAccounting:
    def test_compile_charged_to_perf_not_trial_runtime(self, tmp_path,
                                                       monkeypatch):
        """A slow warm-up must surface as ``compile_seconds`` exactly
        once and never inflate any trial's journalled runtime."""
        from repro.evaluation import CampaignSpec
        from repro.orchestrate import executor as executor_mod
        from repro.orchestrate import orchestrate_campaign
        from repro.orchestrate.store import RunStore

        fake_cost = 7.25  # far above any real trial at this scale

        def fake_warmup(explicit=None):
            return "fakejit", fake_cost

        monkeypatch.setattr(executor_mod, "warmup", fake_warmup)
        hg = generate_circuit(60, seed=7)
        spec = CampaignSpec(
            name="warm",
            heuristics=[FMPartitioner(tolerance=0.1, name="fm10")],
            instances={"c60": hg},
            num_starts=3,
        )
        orchestrate_campaign(spec, store_dir=tmp_path)
        store = RunStore(tmp_path / "warm")
        totals = store.load_perf()
        # The engine stamps the backend that actually executed (the
        # fake warm-up activated nothing, so the interpreted paths ran);
        # the warm-up bill still lands in compile_seconds, exactly once.
        assert totals["fm10"].backend == "numpy"
        assert totals["fm10"].compile_seconds == fake_cost
        for outcome in store.outcomes():
            assert outcome.ok
            assert outcome.runtime_seconds < fake_cost

    def test_real_backend_stamps_perf_json(self, tmp_path):
        from repro.evaluation import CampaignSpec
        from repro.orchestrate import orchestrate_campaign
        from repro.orchestrate.store import RunStore

        backends = _available()
        if not backends:
            pytest.skip("no non-numpy backend available on this install")
        backend = backends[-1]
        hg = generate_circuit(60, seed=7)
        spec = CampaignSpec(
            name="stamp",
            heuristics=[FMPartitioner(tolerance=0.1, name="fm10")],
            instances={"c60": hg},
            num_starts=2,
        )
        orchestrate_campaign(spec, store_dir=tmp_path, backend=backend)
        totals = RunStore(tmp_path / "stamp").load_perf()
        assert totals["fm10"].backend == backend


# ----------------------------------------------------------------------
# PerfCounters backend field
# ----------------------------------------------------------------------
class TestPerfBackendField:
    def test_merge_adopts_then_mixes(self):
        a = PerfCounters()
        b = PerfCounters()
        b.backend = "cnative"
        b.compile_seconds = 1.5
        a.merge(b)
        assert a.backend == "cnative"
        assert a.compile_seconds == 1.5
        c = PerfCounters()
        c.backend = "cnative"
        a.merge(c)
        assert a.backend == "cnative"
        d = PerfCounters()
        d.backend = "numpy"
        d.compile_seconds = 0.5
        a.merge(d)
        assert a.backend == "mixed"
        assert a.compile_seconds == 2.0

    def test_unreported_merge_keeps_existing(self):
        a = PerfCounters()
        a.backend = "cnative"
        a.merge(PerfCounters())
        assert a.backend == "cnative"

    def test_wire_omits_backend_until_stamped(self):
        from repro.orchestrate.executor import _perf_from_wire, _perf_to_wire

        perf = PerfCounters()
        assert "backend" not in _perf_to_wire(perf)
        perf.backend = "cnative"
        wire = _perf_to_wire(perf)
        assert wire["backend"] == "cnative"
        assert _perf_from_wire(wire).backend == "cnative"


# ----------------------------------------------------------------------
# JobSpec wire stability
# ----------------------------------------------------------------------
class TestJobSpecBackend:
    def _spec(self, **kwargs):
        from repro.service.spec import InstanceSource, JobSpec

        return JobSpec(
            name="j",
            instances=[
                InstanceSource(kind="generate", label="g", cells=40, seed=1)
            ],
            engines=["flat-lifo"],
            num_starts=2,
            **kwargs,
        )

    def test_backend_omitted_from_wire_when_unset(self):
        spec = self._spec()
        assert "backend" not in spec.to_json()

    def test_backend_roundtrips_and_changes_fingerprint(self):
        from repro.service.spec import JobSpec

        plain = self._spec()
        tagged = self._spec(backend="cnative")
        assert tagged.to_json()["backend"] == "cnative"
        assert JobSpec.from_json(tagged.to_json()).backend == "cnative"
        assert JobSpec.from_json(plain.to_json()).backend is None
        assert plain.fingerprint() != tagged.fingerprint()
        assert plain.fingerprint() == self._spec().fingerprint()


# ----------------------------------------------------------------------
# Service plane: backend request never changes the record stream
# ----------------------------------------------------------------------
@pytest.mark.service
class TestServicePlane:
    def test_backend_job_matches_plain_job(self, tmp_path):
        from repro.service.server import CampaignService

        service = CampaignService(tmp_path / "svc", workers=2)
        try:
            maker = TestJobSpecBackend()
            plain = maker._spec()
            # cnative, or its numpy fallback on an install without a
            # compiler: either way the stream must match the plain job
            # bit for bit.
            tagged = maker._spec(backend="cnative")
            jid_plain = service.submit(plain)
            jid_tagged = service.submit(tagged)
            assert service.wait(jid_plain, timeout=120.0) == "done"
            assert service.wait(jid_tagged, timeout=120.0) == "done"

            def keys(jid):
                from repro.orchestrate.store import RunStore

                store = RunStore(service._records[jid].directory)
                return [
                    (o.trial, o.status, o.heuristic, o.instance, o.seed,
                     o.cut, o.legal)
                    for o in store.outcomes()
                ]

            assert keys(jid_tagged) == keys(jid_plain)
        finally:
            service.close()

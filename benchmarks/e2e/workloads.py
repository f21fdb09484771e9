"""The three end-to-end workloads.

Each workload is set up once per worker process (:meth:`Workload.setup`:
everything before the first op is ready) and then yields *batches* of
ops from :meth:`Workload.batches` until the caller stops consuming.  An
op is what a user waits for: one multilevel run, one flat start, one
whole campaign.  Every op is timed by the benchmark and
its output is checked here, outside the timed region; the checked value
(a cut or a journal digest) is returned so the caller can compare it
with the pinned outputs.

All start seeds derive from the run's ``--seed`` (``base = 1000 * seed``)
and every workload pins its kernel backend explicitly, so
``REPRO_BACKEND`` has no effect.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import shutil
import statistics
import tempfile
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Sequence

import numpy as np

from spans import self_by_name, self_times

#: Balance tolerance of every op (the paper's "10%": parts within 45-55%).
TOLERANCE = 0.1


@dataclass
class Op:
    """One timed op and what its output checks found."""

    key: str  #: identifies the op within a seed (pins are keyed on it)
    seconds: float
    observed: object = None  #: value compared against the pinned output
    errors: List[str] = field(default_factory=list)
    #: Journal-derived numbers for the per-layer metrics.
    layer: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"key": self.key, "seconds": self.seconds,
                "observed": self.observed, "errors": self.errors,
                "layer": self.layer}


class WorkloadError(RuntimeError):
    """Set-up could not produce a runnable workload."""


def input_key(suite: str, scale: int) -> str:
    return f"{suite}@{scale}"


def require_backend(name: str) -> None:
    """Fail -- never fall back -- when a pinned backend is unavailable."""
    from repro.backends import get_backend

    info = get_backend(name)
    if not info.available:
        raise WorkloadError(
            f"pinned backend {name} is unavailable: {info.reason}")


def recount(hg, assignment, tolerance: float = TOLERANCE):
    """(cut, legal) of a 2-way ``assignment``, recounted from the
    hypergraph's nets independently of the partitioner's own ledger."""
    net_ptr, net_pins, _, _ = hg.raw_csr
    ptr = np.asarray(net_ptr, dtype=np.int64)
    pins = np.asarray(net_pins, dtype=np.int64)
    a = np.asarray(assignment, dtype=np.int64)
    if a.shape != (hg.num_vertices,) or ((a != 0) & (a != 1)).any():
        return None, False
    sizes = np.diff(ptr)
    ones = np.bincount(np.repeat(np.arange(sizes.size), sizes),
                       weights=a[pins], minlength=sizes.size)
    cut_nets = (ones > 0) & (ones < sizes)
    cut = float(np.asarray(hg.net_weights, dtype=float)[cut_nets].sum())
    vw = np.asarray(hg.vertex_weights, dtype=float)
    total = float(vw.sum())
    w1 = float(vw[a == 1].sum())
    lo, hi = total * (0.5 - tolerance / 2), total * (0.5 + tolerance / 2)
    return cut, lo <= total - w1 <= hi and lo <= w1 <= hi


def check_partition(op: Op, hg, result) -> None:
    cut, legal = recount(hg, result.assignment)
    if cut != result.cut:
        op.errors.append(f"{op.key}: reported cut {result.cut}, "
                         f"recounted {cut}")
    if not legal or not result.legal:
        op.errors.append(f"{op.key}: balance-illegal partition")


def check_size(op: Op, hg, expected: Dict[str, int]) -> None:
    got = {"vertices": hg.num_vertices, "nets": hg.num_nets,
           "pins": hg.num_pins}
    if got != expected:
        op.errors.append(f"{op.key}: read {got}, pinned {expected}")


def read_journal(path: Path) -> List[dict]:
    """Journal entries, last one per trial wins (parsed here, not by the
    program's own reader)."""
    by_trial = {}
    with open(path, "r", encoding="ascii") as f:
        for line in f:
            if line.strip():
                entry = json.loads(line)
                by_trial[entry["trial"]] = entry
    return [by_trial[k] for k in sorted(by_trial)]


def journal_digest(entries: Sequence[dict]) -> str:
    rows = sorted((e["trial"], e.get("cut"), e.get("legal")) for e in entries)
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def check_journal(op: Op, entries: Sequence[dict], expected: int) -> None:
    if len(entries) != expected:
        op.errors.append(f"{op.key}: {len(entries)} trials journaled, "
                         f"expected {expected}")
    for e in entries:
        if e.get("status") != "ok":
            op.errors.append(f"{op.key}: trial {e['trial']} "
                             f"{e.get('status')}: {e.get('error')}")
        elif e.get("legal") is not True or not e.get("cut", 0) > 0:
            op.errors.append(f"{op.key}: trial {e['trial']} cut "
                             f"{e.get('cut')} legal {e.get('legal')}")
    op.observed = journal_digest(entries)


def _span(tracer, key: str):
    return tracer.op(key) if tracer is not None else nullcontext()


def _median(values):
    return statistics.median(values) if values else None


# ----------------------------------------------------------------------
class Workload:
    """Common shape of a workload (see the module docstring)."""

    name = ""
    backend = ""
    #: (suite instance, scale) pairs written as .hgr inputs.
    inputs: tuple = ()
    #: Layers whose spans run in the benchmark's own process.
    traced_layers: tuple = ()
    #: The fewest batches a timed run makes; peak RSS is read after them,
    #: so the memory number does not depend on how many ops fit into
    #: --seconds.
    min_batches = 1
    #: Batches a traced run makes, each one untraced, traced, untraced.
    trace_batches = 1

    def __init__(self, seed: int, paths: Dict[str, str],
                 sizes: Dict[str, Dict[str, int]], workdir: str) -> None:
        self.base = 1000 * seed
        self.paths = paths
        self.sizes = sizes
        self.workdir = workdir

    def setup(self) -> None:
        require_backend(self.backend)

    def batches(self, tracer=None, first: int = 0) -> Iterator[List[Op]]:
        """Batches ``first``, ``first + 1``, ...; a batch's ops and seeds
        depend only on its index, so a batch can be repeated exactly."""
        raise NotImplementedError

    def journal_layers(self, ops: Sequence[Op], spans) -> Dict[str, object]:
        """Per-layer numbers read from journals rather than spans."""
        return {}

    def close(self) -> None:
        pass


class MLPaperScale(Workload):
    name = "ml_paper_scale"
    backend = "cnative"
    inputs = (("ibm18s", 1),)
    traced_layers = ("hypergraph", "multilevel", "core")
    min_batches = 2

    def setup(self) -> None:
        super().setup()
        from repro.hypergraph import io_hmetis
        from repro.multilevel.mlpart import MLConfig, MLPartitioner

        self.io, self.MLConfig, self.MLPartitioner = (
            io_hmetis, MLConfig, MLPartitioner)

    def batches(self, tracer=None, first=0):
        key_in = input_key("ibm18s", 1)
        for i in itertools.count(first):
            seed = self.base + i
            key = f"seed={seed}"
            with _span(tracer, key):
                t0 = time.perf_counter()
                hg = self.io.read_hgr(self.paths[key_in])
                partitioner = self.MLPartitioner(
                    self.MLConfig(), tolerance=TOLERANCE,
                    backend=self.backend)
                result = partitioner.partition(hg, seed=seed)
                seconds = time.perf_counter() - t0
            op = Op(key, seconds, observed=result.cut)
            check_size(op, hg, self.sizes[key_in])
            check_partition(op, hg, result)
            del hg, result, partitioner
            yield [op]


class _Recorder:
    """Bipartitioner adapter that times each start and keeps its result
    for checking; ``run_multistart`` drives it like the real thing."""

    def __init__(self, partitioner, tracer) -> None:
        self.inner = partitioner
        self.name = partitioner.name
        self.tracer = tracer
        self.starts = []

    def partition(self, hypergraph, seed=0, fixed_parts=None):
        with _span(self.tracer, f"seed={seed}"):
            t0 = time.perf_counter()
            result = self.inner.partition(hypergraph, seed=seed,
                                          fixed_parts=fixed_parts)
            seconds = time.perf_counter() - t0
        self.starts.append((seed, seconds, result))
        return result


class FlatMultistart(Workload):
    name = "flat_multistart"
    backend = "numpy"
    inputs = (("ibm01s", 1),)
    traced_layers = ("hypergraph", "multilevel", "core")
    #: A batch is one multistart run of Flat LIFO FM.  Flat CLIP FM is
    #: left out: the number of passes a CLIP start makes varies so much
    #: with its seed that the few CLIP starts a run fits moved the run's
    #: mean start time more than the machine's own drift did.
    min_batches = 2
    trace_batches = 3
    starts = 4

    def setup(self) -> None:
        super().setup()
        from repro.core.config import FMConfig
        from repro.core.multistart import run_multistart
        from repro.core.partitioner import FMPartitioner
        from repro.hypergraph import io_hmetis

        key_in = input_key("ibm01s", 1)
        self.hg = io_hmetis.read_hgr(self.paths[key_in])
        probe = Op("read", 0.0)
        check_size(probe, self.hg, self.sizes[key_in])
        if probe.errors:
            raise WorkloadError(probe.errors[0])
        self.run_multistart = run_multistart
        self.partitioner = FMPartitioner(FMConfig(backend=self.backend),
                                         tolerance=TOLERANCE,
                                         name="Flat LIFO FM")

    def batches(self, tracer=None, first=0):
        for b in itertools.count(first):
            rec = _Recorder(self.partitioner, tracer)
            multistart = self.run_multistart(
                rec, self.hg, self.starts, instance_name="ibm01s",
                base_seed=self.base + self.starts * b)
            ops = []
            for (seed, seconds, result), start in zip(
                    rec.starts, multistart.starts):
                op = Op(f"seed={seed}", seconds, observed=result.cut)
                check_partition(op, self.hg, result)
                if start.cut != result.cut or start.seed != seed:
                    op.errors.append(f"{op.key}: multistart record "
                                     "disagrees with the start")
                ops.append(op)
            yield ops


class CampaignTable45(Workload):
    name = "campaign_table45"
    backend = "cnative"
    inputs = (("ibm01s", 1), ("ibm09s", 1))
    traced_layers = ("hypergraph", "orchestrate", "evaluation")
    starts = 20
    workers = 2

    def setup(self) -> None:
        super().setup()
        from repro.core.config import FMConfig
        from repro.evaluation.campaign import CampaignSpec
        from repro.hypergraph import io_hmetis
        from repro.multilevel.mlpart import MLConfig, MLPartitioner
        from repro.orchestrate import orchestrate_campaign

        self.io = io_hmetis
        self.CampaignSpec = CampaignSpec
        self.orchestrate_campaign = orchestrate_campaign
        self.make_heuristics = lambda: [
            MLPartitioner(MLConfig(), tolerance=TOLERANCE,
                          name="ML LIFO FM", backend=self.backend),
            MLPartitioner(MLConfig(fm_config=FMConfig(clip=True)),
                          tolerance=TOLERANCE, name="ML CLIP FM",
                          backend=self.backend),
        ]

    def batches(self, tracer=None, first=0):
        names = [suite for suite, _ in self.inputs]
        for i in itertools.count(first):
            base = self.base + self.starts * i
            key = f"campaign/base={base}"
            store_parent = tempfile.mkdtemp(prefix="campaign-",
                                            dir=self.workdir)
            try:
                with _span(tracer, key):
                    t0 = time.perf_counter()
                    instances = {
                        n: self.io.read_hgr(self.paths[input_key(n, 1)])
                        for n in names
                    }
                    spec = self.CampaignSpec(
                        name="table45", heuristics=self.make_heuristics(),
                        instances=instances, num_starts=self.starts,
                        base_seed=base)
                    result = self.orchestrate_campaign(
                        spec, store_dir=store_parent, workers=self.workers,
                        sticky_cache=True, backend=self.backend)
                    report = result.report(num_shuffles=100)
                    seconds = time.perf_counter() - t0
                op = Op(key, seconds)
                store = Path(store_parent) / "table45"
                self._check(op, store, report, len(names))
            finally:
                shutil.rmtree(store_parent, ignore_errors=True)
            yield [op]

    def _check(self, op: Op, store: Path, report: str, n_instances: int):
        entries = read_journal(store / "journal.jsonl")
        check_journal(op, entries, 2 * n_instances * self.starts)
        if "Campaign: table45" not in report:
            op.errors.append(f"{op.key}: report missing its header")
        perf = json.loads((store / "perf.json").read_text())
        runtimes = defaultdict(list)
        for e in entries:
            runtimes[e["instance"]].append(e.get("runtime_seconds") or 0.0)
        op.layer = {
            "trial_s": {k: _median(v) for k, v in runtimes.items()},
            "trial_sum_s": sum(sum(v) for v in runtimes.values()),
            "perf": {h: {k: p.get(k) for k in (
                "passes", "moves_applied", "moves_kept", "total_seconds",
                "coarsen_levels", "hierarchies_built", "backend")}
                for h, p in perf.items()},
        }

    def journal_layers(self, ops, spans):
        out: Dict[str, object] = {}
        for suite, _ in self.inputs:
            out[f"core.trial_{suite}_s"] = _median(
                [op.layer["trial_s"].get(suite) for op in ops])
        perfs = [p for op in ops for p in op.layer["perf"].values()]

        def total(name):
            values = [p.get(name) for p in perfs]
            return None if None in values else sum(values)

        applied, kept = total("moves_applied"), total("moves_kept")
        out.update({
            "core.refine_s": total("total_seconds"),
            "core.fm_passes": total("passes"),
            "core.fm_moves_applied": applied,
            "core.fm_moves_kept_frac": (
                kept / applied if applied and kept is not None else None),
            "core.backend_mismatches": sum(
                p.get("backend") != self.backend for p in perfs),
            "multilevel.levels": total("coarsen_levels"),
            "multilevel.hierarchies_built": total("hierarchies_built"),
        })
        execute = sum(s["end_s"] - s["start_s"] for s in spans
                      if s["name"] == "orchestrate.execute")
        if execute:
            out["orchestrate.worker_busy_frac"] = sum(
                op.layer["trial_sum_s"] for op in ops) / (
                self.workers * execute)
        return out


WORKLOADS = {w.name: w for w in (
    MLPaperScale, FlatMultistart, CampaignTable45)}


# ----------------------------------------------------------------------
def span_layers(spans: Sequence[dict], backend: str) -> Dict[str, object]:
    """Per-layer numbers from the traced op's spans.  Every ``_s`` value
    is a summed self time, so the layers add up to the op's wall time."""
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)
    self_s = self_by_name(spans)

    def seconds(name):
        return self_s.get(name, 0.0)

    def attr_total(name, attr):
        values = [s["attrs"].get(attr) for s in by[name]]
        return None if None in values else sum(values)

    out: Dict[str, object] = {}
    read_s = seconds("hypergraph.read_hgr")
    read_pins = attr_total("hypergraph.read_hgr", "pins")
    out["hypergraph.read_hgr_s"] = read_s
    out["hypergraph.read_pins_per_s"] = (
        read_pins / read_s if read_s and read_pins is not None else 0.0)
    for part in ("match", "contract", "hierarchy", "project"):
        out[f"multilevel.{part}_s"] = seconds(f"multilevel.{part}")
    out["multilevel.driver_s"] = seconds("multilevel.partition")
    out["multilevel.levels"] = attr_total("multilevel.hierarchy", "levels")
    out["multilevel.hierarchies_built"] = len(by["multilevel.hierarchy"])
    out["core.partition_build_s"] = seconds("core.partition_build")
    out["core.initial_s"] = seconds("core.initial")
    out["core.driver_s"] = seconds("core.partition")
    refines = by["core.refine"]
    refine_s = seconds("core.refine")
    passes = attr_total("core.refine", "passes")
    applied = attr_total("core.refine", "moves_applied")
    kept = attr_total("core.refine", "moves_kept")
    out["core.refine_s"] = refine_s
    out["core.refine_calls"] = len(refines)
    out["core.fm_passes"] = passes
    out["core.fm_moves_applied"] = applied
    out["core.fm_moves_kept_frac"] = (
        kept / applied if applied and kept is not None
        else 0.0 if applied == 0 else None)
    pass_pins = [
        (s["attrs"].get("pins"), s["attrs"].get("passes")) for s in refines]
    out["core.refine_pass_pins_per_s"] = (
        None if any(None in pp for pp in pass_pins)
        else sum(p * n for p, n in pass_pins) / refine_s if refine_s
        else 0.0)
    out["core.backend_mismatches"] = sum(
        s["attrs"].get("backend") != backend for s in refines)
    out["orchestrate.payload_s"] = seconds("orchestrate.payload")
    out["orchestrate.execute_s"] = seconds("orchestrate.execute")
    appends = [s["end_s"] - s["start_s"]
               for s in by["orchestrate.journal_append"]]
    out["orchestrate.journal_append_ms"] = (
        1000 * statistics.median(appends) if appends else 0.0)
    out["orchestrate.journal_appends"] = len(appends)
    out["evaluation.report_s"] = seconds("evaluation.report")
    return out


def layer_metrics(workload: Workload, traced: Sequence[Op],
                  spans: Sequence[dict]) -> Dict[str, object]:
    """Per-layer numbers of one traced unit.  A layer the benchmark's
    process cannot see on this workload reads ``None``."""
    out = {
        name: value for name, value in span_layers(spans, workload.backend)
        .items() if name.split(".")[0] in workload.traced_layers
    }
    out.update(workload.journal_layers(traced, spans))
    wall = sum(op.seconds for op in traced)
    out["trace.self_sum_frac"] = (
        sum(self_times(spans).values()) / wall if wall else None)
    return out

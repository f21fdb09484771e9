"""Outside-in span tracing for the end-to-end benchmark.

The benchmark never edits the program to trace it.  :func:`patched`
replaces the public entry points of each layer -- module functions and
class methods named in :data:`TARGETS` -- with thin wrappers that record
one span per call, and restores the originals on exit.  Spans stay in
memory in a :class:`Tracer` and are written once, as JSON lines, when the
run ends.

A span's *self time* is its duration minus the part of it that its child
spans cover (:func:`self_times`), so the self times of one op's spans sum
to the op's wall time and every layer metric built from them is additive.

Only code running in the benchmark's own process is visible: spans
inside campaign pool workers are lost, and those layers are measured
from the campaign's journal and ``perf.json`` instead.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence


def _size(hg) -> Dict[str, object]:
    return {
        "vertices": getattr(hg, "num_vertices", None),
        "nets": getattr(hg, "num_nets", None),
        "pins": getattr(hg, "num_pins", None),
    }


def _arg(i: int) -> Callable:
    """Attrs: the size of positional argument ``i`` (a hypergraph)."""
    return lambda args, kwargs, result: _size(args[i]) if len(args) > i else {}


def _read_attrs(args, kwargs, result):
    return _size(result)


def _hierarchy_attrs(args, kwargs, result):
    attrs = _size(args[0])
    attrs["levels"] = len(getattr(result, "levels", ()))
    return attrs


def _project_attrs(args, kwargs, result):
    return {"vertices": len(result) if result is not None else None}


def _refine_attrs(args, kwargs, result):
    """The FM result's counts and the backend that actually ran.  A field
    a later refactor removes is recorded as ``None``, never an error."""
    engine, partition = args[0], args[1]
    attrs = _size(getattr(partition, "hypergraph", None))
    perf = getattr(result, "perf", None)
    attrs.update(
        passes=getattr(result, "passes", None),
        moves_applied=getattr(perf, "moves_applied", None),
        moves_kept=getattr(perf, "moves_kept", None),
        backend=getattr(perf, "backend", None),
        requested_backend=getattr(engine, "backend", None)
        or getattr(getattr(engine, "config", None), "backend", None),
    )
    return attrs


def _partitioner_attrs(args, kwargs, result):
    attrs = _size(args[1]) if len(args) > 1 else {}
    attrs["cut"] = getattr(result, "cut", None)
    return attrs


#: (span name, "module" or "module:Class", attribute, attrs function).
#: Functions are patched in the namespace of the module that *calls*
#: them, because ``from x import f`` binds a name the callee module
#: cannot see change.
TARGETS = (
    ("hypergraph.read_hgr", "repro.hypergraph.io_hmetis", "read_hgr",
     _read_attrs),
    ("multilevel.partition", "repro.multilevel.mlpart:MLPartitioner",
     "partition", _partitioner_attrs),
    ("multilevel.hierarchy", "repro.multilevel.mlpart", "build_hierarchy",
     _hierarchy_attrs),
    ("multilevel.match", "repro.multilevel.pool", "heavy_edge_matching",
     _arg(0)),
    ("multilevel.contract", "repro.multilevel.pool", "coarsen", _arg(0)),
    ("multilevel.project", "repro.multilevel.coarsen:CoarseLevel",
     "project_assignment_into", _project_attrs),
    ("core.partition", "repro.core.partitioner:FMPartitioner", "partition",
     _partitioner_attrs),
    ("core.initial", "repro.core.partitioner", "generate_initial", _arg(0)),
    ("core.initial", "repro.multilevel.mlpart", "generate_initial", _arg(0)),
    ("core.partition_build", "repro.core.partition:Partition2", "__init__",
     _arg(1)),
    ("core.partition_build", "repro.core.partition:Partition2", "fast",
     _arg(1)),
    ("core.refine", "repro.core.engine:FMEngine", "refine", _refine_attrs),
    ("orchestrate.execute", "repro.orchestrate.orchestrator",
     "execute_trials", None),
    ("orchestrate.payload", "repro.orchestrate.executor", "build_payload",
     None),
    ("orchestrate.journal_append", "repro.orchestrate.store:RunStore",
     "append", None),
    ("evaluation.report", "repro.evaluation.campaign:CampaignResult",
     "report", None),
)


class Tracer:
    """In-memory span recorder.

    ``op(key)`` opens the root span of one benchmark op; every wrapped
    call made inside it becomes a descendant sharing its trace id.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._ids = itertools.count(1)
        self._trace_id: Optional[str] = None
        self.epoch = time.perf_counter()

    def _record(self, name, sid, parent, t0, t1, attrs) -> None:
        self.spans.append({
            "trace_id": self._trace_id,
            "span_id": sid,
            "parent_id": parent,
            "name": name,
            "start_s": t0 - self.epoch,
            "end_s": t1 - self.epoch,
            "attrs": attrs or {},
        })

    @contextmanager
    def op(self, key: str):
        """Root span of one op; ``key`` becomes the trace id."""
        outer = self._trace_id
        self._trace_id = key
        sid = next(self._ids)
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._record("op", sid, None, t0, t1, {})
            self._trace_id = outer

    def wrap(self, name: str, fn: Callable, attrs_fn=None) -> Callable:
        stack, ids, clock = self._stack, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                stack.pop()
                self._record(name, sid, parent, t0, t1,
                             {"error": type(exc).__name__})
                raise
            t1 = clock()
            stack.pop()
            attrs = attrs_fn(args, kwargs, result) if attrs_fn else {}
            if "backend" in kwargs and "backend" not in attrs:
                attrs["backend"] = kwargs["backend"]
            self._record(name, sid, parent, t0, t1, attrs)
            return result

        traced.__wrapped__ = fn
        return traced


def _resolve(where: str):
    module_name, _, class_name = where.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


@contextmanager
def patched(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it.

    A target a refactor has moved or removed is skipped with a warning,
    so its layer reads as "no work" instead of failing the run; the
    skipped names are collected in the yielded list.
    """
    saved = []
    missing: List[str] = []
    try:
        for name, where, attr, attrs_fn in TARGETS:
            try:
                owner = _resolve(where)
            except (ImportError, AttributeError):
                missing.append(f"{where}.{attr}")
                continue
            if attr not in vars(owner):
                missing.append(f"{where}.{attr}")
                continue
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, classmethod):
                replacement = classmethod(
                    tracer.wrap(name, original.__func__, attrs_fn))
            else:
                replacement = tracer.wrap(name, original, attrs_fn)
            saved.append((owner, attr, original))
            setattr(owner, attr, replacement)
        for target in missing:
            print(f"trace: target {target} not found; its layer reads 0",
                  file=sys.stderr)
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
def self_times(spans: Iterable[dict]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    (clipped to the parent's own interval)."""
    spans = list(spans)
    children = defaultdict(list)
    for s in spans:
        children[s["parent_id"]].append(s)
    out: Dict[int, float] = {}
    for s in spans:
        lo, hi = s["start_s"], s["end_s"]
        intervals = sorted(
            (max(c["start_s"], lo), min(c["end_s"], hi))
            for c in children.get(s["span_id"], ())
        )
        covered, cur_lo, cur_hi = 0.0, None, None
        for a, b in intervals:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["span_id"]] = (hi - lo) - covered
    return out


def self_by_name(spans: Sequence[dict]) -> Dict[str, float]:
    """Span name -> summed self time."""
    selfs = self_times(spans)
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += selfs[s["span_id"]]
    return dict(out)

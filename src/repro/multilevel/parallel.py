"""In-run shared-memory parallelism with a deterministic merge.

All parallelism elsewhere in the repo is *across* trials; this module
parallelizes *inside* one partition run while preserving the repo's core
contract — parallel results bit-identical to serial — via two legs:

**Chunked-proposal coarsening.**  The matching kernels'
neighbour-connectivity accumulation is a pure function of the hypergraph
(which vertices are already matched never enters the loop; only the
selection phase consults cluster state).  So the accumulation is chunked
over contiguous vertex (or net) ranges, computed by worker processes
against read-only shared-memory CSR views (``Hypergraph.to_shared()``),
and merged by a *serial* fixed-order reduction that replays the exact
selection loop of the serial kernel — same ``rng.shuffle`` visit order,
same strict-``>`` tie-breaks, same fixed/capacity guards.  Because the
proposal floats are accumulated in the serial kernels' exact order (see
:func:`~repro.multilevel.matching.vertex_proposal_chunk`), the merged
cluster map is identical to the serial epoch-stamped ``_Workspace``
result for the same seed, bit for bit.
:func:`~repro.multilevel.pool.build_hierarchy` runs every level's
clustering through :func:`parallel_clustering` when given
``inrun_workers > 1``.

**Multistart fan-out.**  Initial partitioning + FM refinement of
different starts are independent given the split RNG streams of
:mod:`repro.multilevel.pool` (hierarchy randomness and per-start
randomness never mix).  Starts fan out across a persistent in-run worker
pool via the same once-pickled ``build_payload`` /
``executor_from_payload`` handoff the campaign pool uses; workers share
one sticky :class:`~repro.multilevel.pool.HierarchyPool` per payload and
stream per-start results back, reassembled in fixed start order with the
serial driver's strict-``<`` best selection.

**Self-healing.**  Worker death (crash or kill) is recovered by
respawning the worker, replaying its registered context (payloads and
shared hypergraphs) and re-dispatching its outstanding tasks.  Both legs
are deterministic, so a healed run is record-identical to an undisturbed
one — the kill-mid-run tests assert exactly this.

**Fair-share composition.**  In-run workers compose with trial-level
dispatch through :func:`clamp_inrun_workers`: a daemonic worker (the
campaign pool and service fleet both run daemon workers, which cannot
spawn children) clamps to 1, and a job asking for ``W`` trial workers x
``I`` in-run workers is clamped so ``W x I`` never exceeds the fleet.
Because parallel and serial results are bit-identical, clamping is
semantically invisible — only wall-clock changes.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import queue
import random
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.multistart import MultistartResult, StartRecord
from repro.core.perf import PerfCounters
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.shm import attach_hypergraph, detach_handle, unlink_handle
from repro.multilevel.matching import (
    _default_cluster_cap,
    _fixed_conflict,
    net_proposal_chunk,
    vertex_proposal_chunk,
)
from repro.multilevel.pool import supports_hierarchy

_ORPHAN_POLL_SECONDS = 5.0
#: Poll cadence of the driver's result wait — how quickly a dead in-run
#: worker is noticed, respawned and its outstanding tasks re-dispatched.
_HEAL_POLL_SECONDS = 0.2
#: Spawn payloads retained per pool (current + previous epoch), so a
#: respawned worker can still serve a straggling prior-epoch task.
_PAYLOAD_KEEP = 2
#: Respawn budget per pool lifetime — a backstop against a worker that
#: dies deterministically on its input looping forever.
_MAX_RESPAWNS = 100


# ----------------------------------------------------------------------
def clamp_inrun_workers(
    requested: int,
    trial_workers: int = 1,
    fleet: Optional[int] = None,
) -> int:
    """Effective in-run worker count under fair-share composition.

    * Daemonic processes (campaign pool / service fleet workers) cannot
      spawn children — they clamp to 1 and run the serial path, which is
      bit-identical anyway.
    * ``trial_workers`` trial-level workers x the returned in-run count
      never exceeds ``fleet`` (default: just enough for the larger of
      the two requests), so a job cannot oversubscribe the machine by
      multiplying the two knobs.
    """
    if requested < 1:
        raise ValueError("inrun workers must be >= 1")
    if mp.current_process().daemon:
        return 1
    if fleet is None:
        fleet = max(trial_workers, requested)
    return max(1, min(requested, fleet // max(1, trial_workers)))


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _inrun_worker_main(task_q, result_q) -> None:
    """Message loop of one in-run worker.

    Context messages (``payload``/``hg``) register state; task messages
    (``prop``/``run``) produce exactly one result each.  The worker
    exits on the ``None`` sentinel or when orphaned (parent died).
    """
    from repro.orchestrate.executor import executor_from_payload
    from repro.orchestrate.plan import TrialPlan

    parent = os.getppid()
    payloads: Dict[int, bytes] = {}
    executors: Dict[int, object] = {}
    handles: Dict[str, tuple] = {}
    attached: Dict[str, tuple] = {}  #: key -> (hypergraph, handle)

    def _hypergraph(key: str) -> Hypergraph:
        ent = attached.get(key)
        if ent is None:
            handle, _ = handles[key]
            hg = attach_hypergraph(handle, materialize=False)
            ent = (hg, handle if handle.is_shared else None)
            attached[key] = ent
        return ent[0]

    def _drop_hypergraph(key: str) -> None:
        handles.pop(key, None)
        ent = attached.pop(key, None)
        if ent is not None and ent[1] is not None:
            detach_handle(ent[1])

    try:
        while True:
            try:
                msg = task_q.get(timeout=_ORPHAN_POLL_SECONDS)
            except queue.Empty:
                if os.getppid() != parent:
                    return  # orphaned: supervisor died without cleanup
                continue
            if msg is None:
                return
            kind = msg[0]
            if kind == "payload":
                _, epoch, blob = msg
                payloads[epoch] = blob
                for old in sorted(payloads)[:-_PAYLOAD_KEEP]:
                    del payloads[old]
                    stale = executors.pop(old, None)
                    if stale is not None:
                        stale.close()
            elif kind == "hg":
                _, key, handle, fixed = msg
                handles[key] = (handle, fixed)
            elif kind == "drophg":
                _drop_hypergraph(msg[1])
            elif kind == "prop":
                _, task_id, key, scheme, lo, hi, max_net_size = msg
                try:
                    hg = _hypergraph(key)
                    if scheme == "net":
                        data = net_proposal_chunk(
                            hg, lo, hi, max_net_size, handles[key][1]
                        )
                    else:
                        data = vertex_proposal_chunk(hg, lo, hi, max_net_size)
                    result_q.put(("prop", task_id, "ok", data))
                except Exception:
                    result_q.put(
                        ("prop", task_id, "error", traceback.format_exc(limit=8))
                    )
            elif kind == "run":
                _, task_id, epoch, plan_tuple, with_assignment = msg
                try:
                    executor = executors.get(epoch)
                    if executor is None:
                        executor = executor_from_payload(payloads[epoch])
                        executors[epoch] = executor
                    plan = TrialPlan(*plan_tuple)
                    payload, _ = executor.run(
                        plan, with_assignment=with_assignment
                    )
                    result_q.put(("run", task_id, "ok", payload))
                except Exception:
                    result_q.put(
                        ("run", task_id, "error", traceback.format_exc(limit=8))
                    )
    finally:
        for executor in executors.values():
            executor.close()
        for key in list(attached):
            _drop_hypergraph(key)


class _InRunWorker:
    """One worker process plus its dedicated task queue."""

    def __init__(self, ctx, result_q) -> None:
        self.task_q = ctx.Queue()
        self.process = ctx.Process(
            target=_inrun_worker_main,
            args=(self.task_q, result_q),
            daemon=True,
        )
        self.process.start()


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------
class InRunPool:
    """A persistent pool of in-run workers with deterministic healing.

    Dedicated per-worker task queues give the driver precise ownership:
    it always knows which worker holds which outstanding task, so a dead
    worker can be respawned, its registered context (spawn payloads and
    shared hypergraphs) replayed, and exactly its outstanding tasks
    re-dispatched.  Determinism of both task kinds makes the recovery
    invisible in the results.

    Pools are cheap to keep alive (idle workers block on their queues)
    and are reused across runs via :func:`get_inrun_pool`.
    """

    def __init__(self, workers: int, ctx: Optional[mp.context.BaseContext] = None):
        if workers < 1:
            raise ValueError("pool needs >= 1 worker")
        if mp.current_process().daemon:
            raise RuntimeError(
                "in-run pools cannot be created inside daemonic workers; "
                "clamp_inrun_workers() returns 1 there"
            )
        if ctx is None:
            ctx = (
                mp.get_context("fork")
                if "fork" in mp.get_all_start_methods()
                else mp.get_context()
            )
        self._ctx = ctx
        # Start the shared-memory resource tracker *before* forking:
        # children must inherit it, or each worker lazily spawns its own
        # tracker whose attach-registrations are never unregistered
        # (spurious "leaked shared_memory" warnings at exit).
        try:  # pragma: no cover - CPython implementation detail
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:
            pass
        self.size = workers
        self._owner_pid = os.getpid()
        self._result_q = ctx.Queue()
        self._workers = [_InRunWorker(ctx, self._result_q) for _ in range(workers)]
        self._payloads: Dict[int, bytes] = {}
        self._epoch = 0
        self._hgs: Dict[str, tuple] = {}  #: key -> (handle, fixed)
        self._hg_counter = 0
        self._task_counter = 0
        self._respawns = 0
        self._closed = False

    # -- context registration -------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def _broadcast(self, msg) -> None:
        for worker in self._workers:
            worker.task_q.put(msg)

    def register_payload(self, blob: bytes) -> int:
        """Ship a ``build_payload`` blob to every worker; returns its
        epoch for use in :meth:`run_starts`."""
        self._epoch += 1
        self._payloads[self._epoch] = blob
        for old in sorted(self._payloads)[:-_PAYLOAD_KEEP]:
            del self._payloads[old]
        self._broadcast(("payload", self._epoch, blob))
        return self._epoch

    def share_hypergraph(
        self,
        hypergraph: Hypergraph,
        fixed_parts: Optional[List[Optional[int]]] = None,
    ) -> str:
        """Export ``hypergraph`` to shared memory and register the
        read-only view with every worker; returns the registration key."""
        key = f"hg{self._hg_counter}"
        self._hg_counter += 1
        handle = hypergraph.to_shared()
        fixed = list(fixed_parts) if fixed_parts is not None else None
        self._hgs[key] = (handle, fixed)
        self._broadcast(("hg", key, handle, fixed))
        return key

    def drop_hypergraph(self, key: str) -> None:
        """Unregister and unlink a shared hypergraph."""
        entry = self._hgs.pop(key, None)
        self._broadcast(("drophg", key))
        if entry is not None:
            unlink_handle(entry[0])

    # -- task dispatch with healing -------------------------------------
    def _next_task(self) -> int:
        self._task_counter += 1
        return self._task_counter

    def _heal(self, outstanding: Dict[int, Tuple[int, tuple]]) -> None:
        """Respawn dead workers, replay context, re-dispatch their tasks."""
        for idx, worker in enumerate(self._workers):
            if worker.process.is_alive():
                continue
            self._respawns += 1
            if self._respawns > _MAX_RESPAWNS:
                raise RuntimeError("in-run workers keep dying; giving up")
            fresh = _InRunWorker(self._ctx, self._result_q)
            self._workers[idx] = fresh
            for epoch in sorted(self._payloads):
                fresh.task_q.put(("payload", epoch, self._payloads[epoch]))
            for key, (handle, fixed) in self._hgs.items():
                fresh.task_q.put(("hg", key, handle, fixed))
            for task_id, (widx, msg) in outstanding.items():
                if widx == idx:
                    fresh.task_q.put(msg)

    def _collect(
        self, kind: str, outstanding: Dict[int, Tuple[int, tuple]]
    ) -> Dict[int, object]:
        results: Dict[int, object] = {}
        while outstanding:
            try:
                msg = self._result_q.get(timeout=_HEAL_POLL_SECONDS)
            except queue.Empty:
                self._heal(outstanding)
                continue
            mkind, task_id, status, data = msg
            if mkind != kind or task_id not in outstanding:
                # Stale duplicate: a worker replaced mid-task may have
                # answered before dying.  Determinism makes duplicates
                # identical, so dropping them is safe.
                continue
            if status != "ok":
                raise RuntimeError(f"in-run worker task failed:\n{data}")
            del outstanding[task_id]
            results[task_id] = data
        return results

    def proposals(
        self, key: str, scheme: str, count: int, max_net_size: int
    ) -> tuple:
        """Chunked proposals for ``count`` items (vertices or nets) of a
        registered hypergraph, stitched back in range order."""
        if count <= 0:
            if scheme == "net":
                return [], [], []
            return [0], [], [], []
        per = -(-count // self.size)
        chunks: List[Tuple[int, int]] = []
        lo = 0
        while lo < count:
            chunks.append((lo, min(count, lo + per)))
            lo += per
        outstanding: Dict[int, Tuple[int, tuple]] = {}
        order: List[int] = []
        for ci, (clo, chi) in enumerate(chunks):
            tid = self._next_task()
            msg = ("prop", tid, key, scheme, clo, chi, max_net_size)
            widx = ci % self.size
            self._workers[widx].task_q.put(msg)
            outstanding[tid] = (widx, msg)
            order.append(tid)
        results = self._collect("prop", outstanding)
        if scheme == "net":
            size_ok: List[bool] = []
            totals: List[float] = []
            conflicts: List[bool] = []
            for tid in order:
                s, t, c = results[tid]
                size_ok.extend(s)
                totals.extend(t)
                conflicts.extend(c)
            return size_ok, totals, conflicts
        offsets: List[int] = [0]
        nbrs: List[int] = []
        conns: List[float] = []
        touched: List[int] = []
        for tid in order:
            off, nb, cn, tc = results[tid]
            base = len(nbrs)
            offsets.extend(base + o for o in off[1:])
            nbrs.extend(nb)
            conns.extend(cn)
            touched.extend(tc)
        return offsets, nbrs, conns, touched

    def run_starts(
        self,
        epoch: int,
        plans: Sequence[tuple],
        with_assignment: bool = False,
    ) -> List[tuple]:
        """Run trial plans (as ``TrialPlan`` field tuples) across the
        pool; results return in plan order regardless of completion
        order (static round-robin placement keeps dispatch
        deterministic)."""
        outstanding: Dict[int, Tuple[int, tuple]] = {}
        order: List[int] = []
        for i, plan in enumerate(plans):
            tid = self._next_task()
            msg = ("run", tid, epoch, tuple(plan), with_assignment)
            widx = i % self.size
            self._workers[widx].task_q.put(msg)
            outstanding[tid] = (widx, msg)
            order.append(tid)
        results = self._collect("run", outstanding)
        return [results[tid] for tid in order]

    # -- shutdown --------------------------------------------------------
    def close(self) -> None:
        """Stop workers and unlink any still-registered shared segments.

        A no-op outside the owning process: forked children inherit the
        registry and must never tear down the parent's pool at exit.
        """
        if self._closed or os.getpid() != self._owner_pid:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.task_q.put(None)
            except Exception:
                pass
        for worker in self._workers:
            worker.process.join(timeout=_ORPHAN_POLL_SECONDS + 2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2.0)
        for handle, _ in self._hgs.values():
            unlink_handle(handle)
        self._hgs.clear()


#: Process-wide pool registry: one persistent pool per worker count,
#: reused across runs so repeated ``run_multistart_pooled(workers=N)``
#: calls never pay spawn cost twice.
_POOLS: Dict[int, InRunPool] = {}


def get_inrun_pool(workers: int) -> InRunPool:
    """The process-wide persistent pool for ``workers`` (spawned on
    first use, reused afterwards)."""
    pool = _POOLS.get(workers)
    if pool is None or pool.closed:
        pool = InRunPool(workers)
        _POOLS[workers] = pool
    return pool


def close_inrun_pools() -> None:
    """Shut down every registered pool (atexit hook; also handy in
    tests)."""
    for pool in _POOLS.values():
        pool.close()
    _POOLS.clear()


atexit.register(close_inrun_pools)


# ----------------------------------------------------------------------
# Serial fixed-order merges (the deterministic reduction)
# ----------------------------------------------------------------------
# Each merge replays its serial kernel's selection loop verbatim against
# precomputed proposals: same shuffled visit order, same guard order,
# same strict comparisons, and ``coarsen_neighbors_touched`` charged
# only for vertices/nets the serial kernel would actually have
# accumulated for — so perf *count* fields stay exactly equal too.


def _merge_heavy_edge(
    hypergraph, rng, props, max_cluster_weight, fixed_parts, perf
) -> List[int]:
    n = hypergraph.num_vertices
    if max_cluster_weight is None:
        max_cluster_weight = _default_cluster_cap(hypergraph)
    offsets, nbrs, conns, tch = props
    vwt = hypergraph.vertex_weight_list
    cluster = [-1] * n
    order = list(range(n))
    rng.shuffle(order)
    next_id = 0
    touched = 0
    for v in order:
        if cluster[v] != -1:
            continue
        touched += tch[v]
        wv = vwt[v]
        best_u = -1
        best_c = 0.0
        for t in range(offsets[v], offsets[v + 1]):
            u = nbrs[t]
            if cluster[u] != -1:
                continue
            if wv + vwt[u] > max_cluster_weight:
                continue
            if fixed_parts is not None and _fixed_conflict(fixed_parts, v, u):
                continue
            c = conns[t]
            if c > best_c:
                best_c = c
                best_u = u
        cluster[v] = next_id
        if best_u != -1:
            cluster[best_u] = next_id
        next_id += 1
    if perf is not None:
        perf.coarsen_neighbors_touched += touched
    return cluster


def _merge_first_choice(
    hypergraph, rng, props, max_cluster_weight, fixed_parts, perf
) -> List[int]:
    n = hypergraph.num_vertices
    if max_cluster_weight is None:
        max_cluster_weight = _default_cluster_cap(hypergraph)
    offsets, nbrs, conns, tch = props
    vwt = hypergraph.vertex_weight_list
    cluster = [-1] * n
    cluster_weight: List[float] = []
    cluster_fixed: List[Optional[int]] = []
    order = list(range(n))
    rng.shuffle(order)
    touched = 0
    for v in order:
        if cluster[v] != -1:
            continue
        touched += tch[v]
        wv = vwt[v]
        fv = fixed_parts[v] if fixed_parts is not None else None
        best_cluster = -1
        best_c = 0.0
        for t in range(offsets[v], offsets[v + 1]):
            u = nbrs[t]
            cu = cluster[u]
            if cu == -1:
                continue
            if cluster_weight[cu] + wv > max_cluster_weight:
                continue
            cf = cluster_fixed[cu]
            if fv is not None and cf is not None and fv != cf:
                continue
            c = conns[t]
            if c > best_c:
                best_c = c
                best_cluster = cu
        if best_cluster == -1:
            cluster[v] = len(cluster_weight)
            cluster_weight.append(wv)
            cluster_fixed.append(fv)
        else:
            cluster[v] = best_cluster
            cluster_weight[best_cluster] += wv
            if fv is not None:
                cluster_fixed[best_cluster] = fv
    if perf is not None:
        perf.coarsen_neighbors_touched += touched
    return cluster


def _merge_hyperedge(
    hypergraph, rng, props, max_cluster_weight, fixed_parts, perf
) -> List[int]:
    n = hypergraph.num_vertices
    if max_cluster_weight is None:
        max_cluster_weight = _default_cluster_cap(hypergraph)
    size_ok, totals, conflicts = props
    net_ptr, net_pins, _, _ = hypergraph.raw_csr
    net_weights = hypergraph.net_weight_list
    cluster = [-1] * n
    order = list(hypergraph.nets())
    rng.shuffle(order)
    order.sort(key=lambda e: (-net_weights[e], net_ptr[e + 1] - net_ptr[e]))
    next_id = 0
    touched = 0
    for e in order:
        if not size_ok[e]:
            continue
        lo = net_ptr[e]
        hi = net_ptr[e + 1]
        touched += hi - lo
        free = True
        for i in range(lo, hi):
            if cluster[net_pins[i]] != -1:
                free = False
                break
        if not free:
            continue
        if totals[e] > max_cluster_weight:
            continue
        if fixed_parts is not None and conflicts[e]:
            continue
        for i in range(lo, hi):
            cluster[net_pins[i]] = next_id
        next_id += 1
    for v in range(n):
        if cluster[v] == -1:
            cluster[v] = next_id
            next_id += 1
    if perf is not None:
        perf.coarsen_neighbors_touched += touched
    return cluster


_VERTEX_MERGES = {
    "heavy_edge": _merge_heavy_edge,
    "first_choice": _merge_first_choice,
}


def parallel_clustering(
    scheme: str,
    hypergraph: Hypergraph,
    rng: random.Random,
    pool: InRunPool,
    max_cluster_weight: Optional[float] = None,
    max_net_size: int = 40,
    fixed_parts: Optional[List[Optional[int]]] = None,
    perf: Optional[PerfCounters] = None,
) -> np.ndarray:
    """One clustering pass: parallel proposals, serial fixed-order merge.

    Bit-identical to the serial kernel of the same ``scheme`` under the
    same ``rng`` state (the merge consumes exactly one ``rng.shuffle``,
    like the kernel), and returned as the same int64 cluster array.
    """
    if scheme == "hyperedge":
        count = hypergraph.num_nets
    elif scheme in _VERTEX_MERGES:
        count = hypergraph.num_vertices
    else:
        raise ValueError(f"unknown clustering scheme {scheme!r}")
    key = pool.share_hypergraph(
        hypergraph, fixed_parts if scheme == "hyperedge" else None
    )
    try:
        t0 = time.perf_counter()
        if scheme == "hyperedge":
            props = pool.proposals(key, "net", count, max_net_size)
        else:
            props = pool.proposals(key, "vertex", count, max_net_size)
        t1 = time.perf_counter()
        if scheme == "hyperedge":
            cluster = _merge_hyperedge(
                hypergraph, rng, props, max_cluster_weight, fixed_parts, perf
            )
        else:
            cluster = _VERTEX_MERGES[scheme](
                hypergraph, rng, props, max_cluster_weight, fixed_parts, perf
            )
        if perf is not None:
            t2 = time.perf_counter()
            perf.inrun_proposal_seconds += t1 - t0
            perf.inrun_merge_seconds += t2 - t1
        return np.array(cluster, dtype=np.int64)
    finally:
        pool.drop_hypergraph(key)


# ----------------------------------------------------------------------
# Multistart fan-out
# ----------------------------------------------------------------------
def run_starts_pooled(
    pool: InRunPool,
    partitioner,
    hypergraph: Hypergraph,
    num_starts: int,
    instance_name: str = "",
    base_seed: int = 0,
    pool_size: int = 2,
    fixed_parts: Optional[Sequence[Optional[int]]] = None,
    perf: Optional[PerfCounters] = None,
) -> MultistartResult:
    """Parallel leg of
    :func:`~repro.multilevel.pool.run_multistart_pooled`.

    Ships one ``build_payload`` context (partitioner + shm instance
    handle, sticky caches on so workers share pooled coarsening exactly
    as the serial driver does) and fans the starts out; records are
    reassembled in start order with the serial strict-``<`` best
    selection, so the stream is bit-identical to the serial driver's.
    """
    if num_starts < 1:
        raise ValueError("num_starts must be >= 1")
    if not supports_hierarchy(partitioner):
        raise ValueError(
            "partitioner cannot draw from a hierarchy pool; "
            "in-run fan-out requires hierarchy support"
        )
    from repro.orchestrate.executor import build_payload

    name = getattr(partitioner, "name", type(partitioner).__name__)
    label = instance_name or "instance"
    handle = hypergraph.to_shared()
    t0 = time.perf_counter()
    try:
        blob = build_payload(
            {name: partitioner},
            {label: handle},
            fixed_parts={label: list(fixed_parts)} if fixed_parts else None,
            sticky_cache=True,
            sticky_pool_size=pool_size,
        )
        epoch = pool.register_payload(blob)
        plans = [
            (i, name, label, base_seed + i, i) for i in range(num_starts)
        ]
        payloads = pool.run_starts(epoch, plans, with_assignment=True)
    finally:
        unlink_handle(handle)
    if perf is not None:
        perf.inrun_fanout_seconds += time.perf_counter() - t0
    result = MultistartResult(heuristic=name, instance=instance_name)
    best_cut = float("inf")
    for i, (cut, elapsed, legal, _k, _objective, assignment) in enumerate(
        payloads
    ):
        result.starts.append(
            StartRecord(
                seed=base_seed + i,
                cut=cut,
                runtime_seconds=elapsed,
                legal=legal,
            )
        )
        if cut < best_cut:
            best_cut = cut
            result.best_assignment = list(assignment)
    return result

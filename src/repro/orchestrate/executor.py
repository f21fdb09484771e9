"""Trial execution: inline serial loop or a supervised worker pool.

Two execution paths with *identical semantics* (both run trials through
the same :class:`_TrialExecutor`, so every knob below produces records
bit-identical to a serial run under the same policy):

* **Inline** (``workers <= 1`` and no timeout): trials run in-process
  in plan order.  No pickling, no subprocess startup — and exact
  backward compatibility with the old serial runner.
* **Pool**: ``workers`` long-lived ``multiprocessing`` processes, each
  with a dedicated task queue so the supervisor always knows which
  trials every worker holds.  That precise ownership is what makes hard
  per-trial wall-clock timeouts possible: a worker that exceeds the
  budget is terminated (SIGKILL if needed) and replaced, and its trial
  is retried or journaled as an error — the campaign never aborts.

**One worker pool.**  The campaign pool and the campaign service's
multi-tenant fleet (:mod:`repro.service.scheduler`) run the same worker
class and loop (:class:`_Worker`, :func:`_worker_main`) under the same
supervisor core (:class:`WorkerPool`).  A worker holds execution
contexts keyed by job id; the campaign pool registers its one payload
as a single job.  The two supervisors differ only in dispatch policy —
batches in plan order here, deficit round-robin across jobs in the
service.

The pool's orchestration plane is built not to rival the trials it
dispatches (the short-trial regime of the paper's multistart/BSF
methodology):

* **Batched dispatch** — workers pull *batches* of trial tuples, sized
  adaptively from observed trial runtime (target
  ``_TARGET_BATCH_SECONDS`` of work per batch), amortizing queue
  round-trips.  Results still stream back one per trial, so per-trial
  hard timeouts and retry accounting survive batching: the timeout
  clock always covers exactly the batch head (it restarts when the
  previous result arrives), and a killed worker forfeits only its
  in-flight batch — the head is charged an attempt, the rest re-enter
  the queue front unpenalized, trial by trial.
* **Sticky per-worker caches** — with ``sticky_cache`` enabled, each
  worker keeps a :class:`~repro.multilevel.pool.HierarchyPool` per
  (instance, base seed, coarsening setting) block, so consecutive
  trials on the same instance reuse coarsening work exactly as
  ``run_multistart(..., pool=...)`` does serially, and heuristics that
  coarsen alike (ML LIFO and ML CLIP) share one pool.  A hierarchy
  build is timed as part of the trial that triggers it.  Pool hierarchy
  selection is keyed on the trial's *start index*
  (``TrialPlan.start``), never on worker identity, so records are
  independent of batch size, worker count and scheduling —
  a sticky parallel run equals a sticky serial run bit for bit.
* **Blocking supervision** — the supervisor blocks on the result queue
  (bounded by the nearest trial deadline and a liveness cap) instead of
  polling; idle supervision costs no CPU.
* **Once-pickled payload** — heuristics, instances and fixed parts are
  serialized exactly once per job; every worker, respawned ones
  included, receives the cached bytes.  This is the one instance
  transport: a hypergraph pickles as its net side and the worker
  rebuilds the transpose when it loads the payload.

Failure policy: an exception inside a trial, a worker crash, and a
timeout are all *attempt failures*.  A trial is retried up to
``max_retries`` extra times (transient failures heal), after which it
resolves to an error outcome carrying the last error text and the
attempt count.

The pool prefers the ``fork`` start method and falls back to the
platform default elsewhere.  Heuristics must be picklable — all shipped
partitioners are.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.backends import set_default_backend, warmup
from repro.core.multistart import Bipartitioner
from repro.core.perf import PerfCounters
from repro.hypergraph.hypergraph import Hypergraph
from repro.multilevel.pool import (
    HierarchyPool,
    coarsening_key,
    supports_hierarchy,
)
from repro.orchestrate.plan import TrialPlan
from repro.orchestrate.store import TrialOutcome

#: callback(outcome, busy_workers, num_workers)
OutcomeCallback = "Callable[[TrialOutcome, int, int], None]"

_JOIN_SECONDS = 2.0
_ORPHAN_POLL_SECONDS = 5.0
#: Upper bound on one blocking result wait: how quickly the supervisor
#: notices a silently dead worker when no deadline is nearer.
_LIVENESS_SECONDS = 1.0
#: Adaptive batching aims for this much work per dispatched batch.
_TARGET_BATCH_SECONDS = 0.25
_MAX_BATCH = 64
#: EWMA smoothing for the observed per-trial runtime.
_RUNTIME_EWMA_ALPHA = 0.3
#: Job id of the campaign pool's single payload.
_CAMPAIGN_JOB = "campaign"

#: PerfCounters fields shipped over the result queue (scalars only —
#: the per-pass timing list is dropped to keep messages small).
_PERF_WIRE_FIELDS = PerfCounters.COUNT_FIELDS + PerfCounters.TIMING_FIELDS


def _pool_context() -> mp.context.BaseContext:
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context()


def _perf_to_wire(perf: PerfCounters) -> Dict[str, float]:
    wire = {name: getattr(perf, name) for name in _PERF_WIRE_FIELDS}
    if perf.backend:
        # String field, shipped only when stamped so pre-backend wire
        # consumers see an unchanged message shape.
        wire["backend"] = perf.backend
    return wire


def _perf_from_wire(wire: Dict[str, float]) -> PerfCounters:
    perf = PerfCounters()
    for name, value in wire.items():
        setattr(perf, name, value)
    return perf


def _merge_perf(
    totals: Optional[Dict[str, PerfCounters]],
    heuristic: str,
    wire: Optional[Dict[str, float]],
) -> None:
    if totals is None or wire is None:
        return
    totals.setdefault(heuristic, PerfCounters()).merge(_perf_from_wire(wire))


def _requested_backends(heuristics, backend: Optional[str]) -> List[str]:
    """Every distinct backend this execution context can reach: the
    executor-level request plus each heuristic's own (an ML
    partitioner's resolved ``backend``, a flat one's
    ``config.backend``).  All of them are warmed at payload-attach so
    compilation never leaks into a trial runtime (the first-trial
    timing-skew fix)."""
    names: List[str] = []

    def add(name: Optional[str]) -> None:
        if name is not None and name not in names:
            names.append(name)

    add(backend)
    for h in heuristics.values():
        add(getattr(h, "backend", None))
        add(getattr(getattr(h, "config", None), "backend", None))
    return names


# ----------------------------------------------------------------------
class _TrialExecutor:
    """Runs trials against a job's instances with sticky caches.

    One of these lives in every pool worker (one per job) *and* in the
    inline path, so parallel and serial execution share trial semantics
    by construction.  Sticky hierarchy pools are keyed per (instance,
    base_seed, coarsening key) block and select hierarchies by the
    trial's start index, which makes the cached coarsening work — and
    therefore every cut — independent of which worker runs which trial,
    and which heuristic built it.
    """

    def __init__(
        self,
        heuristics: Dict[str, Bipartitioner],
        instances: Dict[str, Hypergraph],
        fixed_parts: Optional[Dict[str, Sequence[Optional[int]]]] = None,
        sticky_cache: bool = False,
        sticky_pool_size: int = 2,
        collect_perf: bool = False,
        backend: Optional[str] = None,
    ) -> None:
        self.heuristics = heuristics
        self.fixed_parts = fixed_parts
        self.sticky_cache = sticky_cache
        self.sticky_pool_size = sticky_pool_size
        #: Kernel backend for this execution context.  Applied as the
        #: process default so heuristics whose configs predate the
        #: registry still pick it up (workers re-apply it from the
        #: payload — a spawned process has no inherited default).
        self.backend = backend
        if backend is not None:
            set_default_backend(backend)
        # Warm every reachable backend now, at payload-attach:
        # compilation and the activation self-check are charged to
        # ``compile_seconds`` (folded into the first collected trial's
        # counters below), never to a trial's runtime.
        self._backend_name = ""
        self._compile_pending = 0.0
        for name in _requested_backends(heuristics, backend) or [None]:
            resolved, compile_seconds = warmup(name)
            self._compile_pending += compile_seconds
            if not self._backend_name or name == backend:
                self._backend_name = resolved
        #: Perf counters ride the result queue per trial; collecting is
        #: opt-in (the caller passed ``perf_totals``) so campaigns that
        #: don't ask never pay the extra wire weight.
        self.collect_perf = collect_perf
        self.instances = instances
        self._pools: Dict[Tuple[str, int, tuple], HierarchyPool] = {}
        self._pool_eligible: Dict[str, bool] = {}

    def close(self) -> None:
        """Drop the sticky caches."""
        self._pools.clear()

    # -- sticky hierarchy pools -----------------------------------------
    def _hierarchy_for(self, plan: TrialPlan, hg, fp, perf):
        if not self.sticky_cache:
            return None
        partitioner = self.heuristics[plan.heuristic]
        eligible = self._pool_eligible.get(plan.heuristic)
        if eligible is None:
            eligible = supports_hierarchy(partitioner)
            self._pool_eligible[plan.heuristic] = eligible
        if not eligible:
            return None
        base_seed = plan.seed - plan.start
        key = (plan.instance, base_seed, coarsening_key(partitioner.config))
        pool = self._pools.get(key)
        if pool is None:
            pool_backend = getattr(partitioner, "backend", None)
            if pool_backend is None:
                pool_backend = self.backend
            pool = HierarchyPool(
                hg,
                partitioner.config,
                self.sticky_pool_size,
                base_seed=base_seed,
                fixed_parts=fp,
                backend=pool_backend,
            )
            self._pools[key] = pool
        if perf is not None:
            # Attribute this trial's coarsening work (build or reuse)
            # to the per-trial collector.
            pool.perf = perf
        return pool.get(plan.start)

    # -- one trial ------------------------------------------------------
    def run(
        self, plan: TrialPlan
    ) -> Tuple[tuple, Optional[Dict[str, float]]]:
        """Execute one trial.

        Returns ``((cut, runtime_seconds, legal, k, objective),
        perf_wire)`` — the result tuple the journal stores, plus this
        trial's kernel perf counters in wire form (``None`` unless
        ``collect_perf``).  ``k``/``objective`` come from the
        partitioner's own attributes (2-way/"cut" for plain
        bipartitioners), computed worker-side so every execution plane
        stamps records identically.
        """
        partitioner = self.heuristics[plan.heuristic]
        hg = self.instances[plan.instance]
        fp = (
            self.fixed_parts.get(plan.instance) if self.fixed_parts else None
        )
        perf = PerfCounters() if self.collect_perf else None
        sink = perf is not None and hasattr(partitioner, "perf")
        if sink:
            partitioner.perf = perf
        t0 = time.perf_counter()
        try:
            # A sticky hierarchy build counts toward the trial that
            # triggers it, as in a pooled ``run_multistart``.
            hierarchy = self._hierarchy_for(plan, hg, fp, perf)
            if hierarchy is not None:
                result = partitioner.partition(
                    hg, seed=plan.seed, fixed_parts=fp, hierarchy=hierarchy
                )
            else:
                result = partitioner.partition(
                    hg, seed=plan.seed, fixed_parts=fp
                )
        finally:
            if sink:
                partitioner.perf = None
        elapsed = time.perf_counter() - t0
        if perf is not None:
            engine_result = getattr(result, "engine_result", None)
            if engine_result is not None:
                counters = getattr(engine_result, "perf", None)
                if counters is not None:
                    perf.merge(counters)
            if self._compile_pending:
                # One-time warm-up cost, charged to the first collected
                # trial's counters (and so to perf.json) — never to
                # ``elapsed``, which the journal records as the trial
                # runtime.
                perf.compile_seconds += self._compile_pending
                self._compile_pending = 0.0
            if not perf.backend:
                perf.backend = self._backend_name
        payload = (
            result.cut,
            elapsed,
            bool(result.legal),
            int(getattr(partitioner, "k", 2)),
            str(getattr(partitioner, "objective", "cut")),
        )
        return payload, None if perf is None else _perf_to_wire(perf)


# ----------------------------------------------------------------------
def build_payload(
    heuristics: Dict[str, Bipartitioner],
    instances: Dict[str, Hypergraph],
    fixed_parts: Optional[Dict[str, Sequence[Optional[int]]]] = None,
    sticky_cache: bool = False,
    sticky_pool_size: int = 2,
    collect_perf: bool = False,
    backend: Optional[str] = None,
) -> bytes:
    """Serialize one execution context (heuristics, instances and cache
    knobs) into the once-pickled payload a worker consumes via
    :func:`executor_from_payload`.  Shared by the campaign pool and the
    multi-tenant service fleet, so both hand workers identical contexts.
    ``backend`` rides the payload so every worker re-applies the
    kernel-backend default and pays backend warm-up at attach time, not
    inside its first trial."""
    return pickle.dumps(
        (
            heuristics,
            instances,
            fixed_parts,
            sticky_cache,
            sticky_pool_size,
            collect_perf,
            backend,
        ),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def executor_from_payload(payload_blob: bytes) -> "_TrialExecutor":
    """Rebuild the worker-side :class:`_TrialExecutor` from a payload
    produced by :func:`build_payload`."""
    (
        heuristics,
        instances,
        fixed_parts,
        sticky_cache,
        sticky_pool_size,
        collect_perf,
        backend,
    ) = pickle.loads(payload_blob)
    return _TrialExecutor(
        heuristics,
        instances,
        fixed_parts=fixed_parts,
        sticky_cache=sticky_cache,
        sticky_pool_size=sticky_pool_size,
        collect_perf=collect_perf,
        backend=backend,
    )


def _worker_main(task_q, result_q):
    """The pool's worker loop.

    Message protocol (all tuples, first element is the kind):

    * ``("job", job_id, payload_blob)`` — register a job context; the
      worker builds that job's :class:`_TrialExecutor` lazily on its
      first batch, so registration is cheap.
    * ``("batch", job_id, [(index, heuristic, instance, seed, start)])``
      — run the trials in order, streaming one result per trial as
      ``(job_id, index, "ok"|"error", payload, perf)``.
    * ``("drop", job_id)`` — close and forget the job's executor (its
      sticky caches and instances).
    * ``None`` — exit.

    Job contexts are isolated: each job gets its own executor, so two
    jobs labeling different netlists with the same instance name can
    never cross wires, and sticky hierarchy pools never leak between
    tenants.  Idle waits are bounded so a worker notices when the
    supervisor was SIGKILLed (reparenting changes ``getppid``) instead
    of lingering as an orphan blocked on its queue forever.
    """
    blobs: Dict[str, bytes] = {}
    executors: Dict[str, _TrialExecutor] = {}
    parent = os.getppid()
    try:
        while True:
            try:
                msg = task_q.get(timeout=_ORPHAN_POLL_SECONDS)
            except queue.Empty:
                if os.getppid() != parent:
                    return  # supervisor is gone; don't orphan
                continue
            if msg is None:
                return
            kind, job_id = msg[0], msg[1]
            if kind == "job":
                blobs[job_id] = msg[2]
            elif kind == "drop":
                blobs.pop(job_id, None)
                executor = executors.pop(job_id, None)
                if executor is not None:
                    executor.close()
            elif kind == "batch":
                executor = executors.get(job_id)
                if executor is None:
                    executor = executor_from_payload(blobs[job_id])
                    executors[job_id] = executor
                for index, heuristic, instance, seed, start in msg[2]:
                    plan = TrialPlan(
                        index=index,
                        heuristic=heuristic,
                        instance=instance,
                        seed=seed,
                        start=start,
                    )
                    try:
                        payload, perf = executor.run(plan)
                        result_q.put((job_id, index, "ok", payload, perf))
                    except Exception:
                        result_q.put(
                            (job_id, index, "error",
                             traceback.format_exc(limit=8), None)
                        )
    finally:
        for executor in executors.values():
            executor.close()


@dataclass
class PendingTrial:
    plan: TrialPlan
    attempts: int = 0  #: failed attempts so far


class _Worker:
    """A pool worker plus the supervisor's view of it: which job
    contexts it has been sent, and its in-flight batch (all from one
    job — batches never mix jobs).

    ``batch[0]`` is the trial the worker is executing *now* (results
    stream back in batch order); ``started_at`` is when that head
    started from the supervisor's perspective — set at assignment and
    re-armed whenever the previous head's result arrives, so a
    ``timeout_seconds`` budget covers each trial individually even
    inside a batch.
    """

    def __init__(self, ctx, result_q):
        self.task_q = ctx.Queue()
        self.process = ctx.Process(
            target=_worker_main,
            args=(self.task_q, result_q),
            daemon=True,
        )
        self.process.start()
        self.loaded: Set[str] = set()
        self.batch: Deque[PendingTrial] = deque()
        self.batch_job: Optional[str] = None
        self.started_at = 0.0

    @property
    def busy(self) -> bool:
        return bool(self.batch)

    def load_job(self, job_id: str, payload_blob: bytes) -> None:
        if job_id not in self.loaded:
            self.task_q.put(("job", job_id, payload_blob))
            self.loaded.add(job_id)

    def drop_job(self, job_id: str) -> None:
        if job_id in self.loaded:
            try:
                self.task_q.put(("drop", job_id))
            except (ValueError, OSError):  # queue already closed
                pass
            self.loaded.discard(job_id)

    def assign(self, job_id: str, items: List[PendingTrial]) -> None:
        assert not self.batch
        self.batch.extend(items)
        self.batch_job = job_id
        self.started_at = time.monotonic()
        self.task_q.put(
            (
                "batch",
                job_id,
                [
                    (p.plan.index, p.plan.heuristic, p.plan.instance,
                     p.plan.seed, p.plan.start)
                    for p in items
                ],
            )
        )

    def pop_result(self, index: int) -> Optional[PendingTrial]:
        """Remove the batch entry whose result arrived (normally the
        head) and re-arm the per-trial timeout clock."""
        if not self.batch:
            return None
        if self.batch[0].plan.index == index:
            item = self.batch.popleft()
        else:  # defensive: out-of-order result from a replaced worker
            item = None
            for candidate in self.batch:
                if candidate.plan.index == index:
                    item = candidate
                    break
            if item is None:
                return None
            self.batch.remove(item)
        self.started_at = time.monotonic()
        if not self.batch:
            self.batch_job = None
        return item

    def shutdown(self) -> None:
        try:
            self.task_q.put(None)
        except (ValueError, OSError):  # queue already closed
            pass
        self.process.join(timeout=_JOIN_SECONDS)
        if self.process.is_alive():
            self.terminate()

    def terminate(self) -> None:
        self.process.terminate()
        self.process.join(timeout=_JOIN_SECONDS)
        if self.process.is_alive():  # pragma: no cover - stubborn child
            self.process.kill()
            self.process.join(timeout=_JOIN_SECONDS)


class BatchSizer:
    """Adaptive batch sizing from an EWMA of observed trial runtimes.

    ``fixed`` pins the size; ``None`` adapts toward
    ``_TARGET_BATCH_SECONDS`` of work per batch.
    """

    def __init__(self, fixed: Optional[int] = None):
        self.fixed = fixed
        self.ewma: Optional[float] = None

    def observe(self, runtime_seconds: float) -> None:
        if runtime_seconds < 0:
            return
        if self.ewma is None:
            self.ewma = runtime_seconds
        else:
            a = _RUNTIME_EWMA_ALPHA
            self.ewma = a * runtime_seconds + (1 - a) * self.ewma

    def next_size(self, pending: int, num_workers: int) -> int:
        """Batch size for the next assignment: the policy's fixed size,
        or enough trials for ~``_TARGET_BATCH_SECONDS`` of work — but
        never so many that other workers would starve."""
        if self.fixed is not None:
            size = self.fixed
        elif not self.ewma:
            size = 1  # no observation yet (or instant trials): probe
        else:
            size = int(_TARGET_BATCH_SECONDS / self.ewma)
        size = max(1, min(size, _MAX_BATCH))
        fair_share = max(1, -(-pending // max(num_workers, 1)))
        return min(size, fair_share, pending)


@dataclass
class PoolJob:
    """One execution context on the pool: its payload, its queue of
    pending trials and the per-trial robustness knobs.

    :class:`WorkerPool` reads a job only through these attributes, so
    the service's ``ServiceJob`` (which carries them too) is a job as
    well.
    """

    job_id: str
    payload_blob: bytes
    pending: Deque[PendingTrial]
    timeout_seconds: Optional[float] = None
    max_retries: int = 0
    batch_size: Optional[int] = None
    sizer: BatchSizer = field(init=False)

    def __post_init__(self) -> None:
        self.sizer = BatchSizer(self.batch_size)


#: resolve(job, outcome, perf_wire) — called once per resolved trial.
ResolveCallback = Callable[[object, TrialOutcome, Optional[dict]], None]
#: job_of(job_id) -> the live job, or None once its results are moot.
JobLookup = Callable[[str], Optional[object]]


class WorkerPool:
    """The supervisor side of the worker pool.

    A supervisor keeps only its dispatch policy: it hands batches from
    one job at a time to :meth:`idle` workers via :meth:`assign`.
    Everything else is here, shared by the campaign pool and the
    service fleet:

    * :meth:`drain` — the blocking result drain, bounded by the nearest
      batch-head deadline and the liveness cap, plus the retry rule: a
      failed trial is requeued at the back of its job while it has
      retries left, else it resolves to an error outcome;
    * :meth:`reap` — the per-trial deadline and death detection, and
      the forfeit rule: a worker that timed out or died is killed and
      replaced, the head of its batch is charged an attempt, and the
      rest of the batch re-enters the front of its job's queue
      unpenalized, in order.

    ``job_of`` maps a job id to its live job, or to ``None`` once the
    job's results no longer matter (they are then dropped).
    """

    def __init__(self, size: int) -> None:
        self._ctx = _pool_context()
        self._result_q = self._ctx.Queue()
        self.workers: List[_Worker] = []
        #: (job id, trial index) -> the worker holding that trial.
        self._inflight: Dict[Tuple[str, int], _Worker] = {}
        for _ in range(size):
            self.workers.append(_Worker(self._ctx, self._result_q))

    @property
    def busy(self) -> int:
        return sum(1 for w in self.workers if w.busy)

    def idle(self) -> Iterator[_Worker]:
        """Live workers without a batch."""
        for w in list(self.workers):
            if not w.busy and w.process.is_alive():
                yield w

    def assign(self, w: _Worker, job, items: List[PendingTrial]) -> None:
        w.load_job(job.job_id, job.payload_blob)
        w.assign(job.job_id, items)
        for item in items:
            self._inflight[(job.job_id, item.plan.index)] = w

    def drop_job(self, job_id: str) -> None:
        """Tell every worker to release ``job_id``'s context."""
        for w in self.workers:
            w.drop_job(job_id)

    def reclaim(self, w: _Worker) -> List[PendingTrial]:
        """Kill ``w``, replace it, and return its in-flight batch (head
        first); results it already queued are dropped as stale."""
        items = list(w.batch)
        for item in items:
            self._inflight.pop((w.batch_job, item.plan.index), None)
        w.batch.clear()
        w.batch_job = None
        self._replace(w)
        return items

    def _replace(self, w: _Worker) -> None:
        self.workers.remove(w)
        w.terminate()
        self.workers.append(_Worker(self._ctx, self._result_q))

    def _timeout(self, w: _Worker, job_of: JobLookup) -> Optional[float]:
        job = job_of(w.batch_job) if w.busy else None
        return None if job is None else job.timeout_seconds

    def drain(self, job_of: JobLookup, resolve: ResolveCallback) -> None:
        """Block for results until the nearest batch-head deadline (at
        most ``_LIVENESS_SECONDS``), then take whatever else is queued."""
        now = time.monotonic()
        wait = _LIVENESS_SECONDS
        for w in self.workers:
            timeout = self._timeout(w, job_of)
            if timeout is not None:
                wait = min(wait, w.started_at + timeout - now)
        messages = []
        try:
            if wait > 0:
                messages.append(self._result_q.get(timeout=wait))
            else:
                messages.append(self._result_q.get_nowait())
            while True:
                messages.append(self._result_q.get_nowait())
        except queue.Empty:
            pass
        for job_id, index, status, payload, perf in messages:
            w = self._inflight.pop((job_id, index), None)
            item = w.pop_result(index) if w is not None else None
            job = job_of(job_id)
            if item is None or job is None:
                continue  # a replaced worker's result, or a moot job
            if status == "ok":
                job.sizer.observe(payload[1])
                resolve(job, _ok_outcome(item, payload), perf)
            else:
                _fail(job, item, payload, resolve)

    def reap(self, job_of: JobLookup, resolve: ResolveCallback) -> None:
        """Enforce batch-head deadlines and replace dead workers, under
        the forfeit rule."""
        now = time.monotonic()
        for w in list(self.workers):
            if not w.busy:
                if not w.process.is_alive():
                    self._replace(w)
                continue
            timeout = self._timeout(w, job_of)
            if timeout is not None and now - w.started_at > timeout:
                message = f"trial exceeded wall-clock timeout of {timeout:g}s"
            elif not w.process.is_alive():
                message = (
                    f"worker process died (exitcode {w.process.exitcode})"
                )
            else:
                continue
            job = job_of(w.batch_job)
            head, *rest = self.reclaim(w)
            if job is not None:
                _fail(job, head, message, resolve)
                job.pending.extendleft(reversed(rest))

    def shutdown(self) -> None:
        for w in self.workers:
            w.shutdown()


def _fail(job, item: PendingTrial, message: str,
          resolve: ResolveCallback) -> None:
    """The retry rule: charge ``item`` one attempt; requeue it at the
    back of its job while retries remain, else resolve it as an error."""
    item.attempts += 1
    if item.attempts <= job.max_retries:
        job.pending.append(item)
    else:
        resolve(job, _error_outcome(item, message), None)


@dataclass
class ExecutionPolicy:
    """Robustness and dispatch knobs for a campaign execution.

    The robustness trio (``workers`` / ``timeout_seconds`` /
    ``max_retries``) is unchanged from the original pool.  The dispatch
    knobs tune *where time goes*, never *what is computed*: for any
    setting of ``batch_size`` and ``sticky_cache``, records are
    bit-identical to a serial run under the same policy.
    """

    workers: int = 1
    timeout_seconds: Optional[float] = None  #: per-trial wall clock
    max_retries: int = 0  #: extra attempts after the first failure
    #: Trials per dispatched batch; ``None`` adapts from observed trial
    #: runtime (~``_TARGET_BATCH_SECONDS`` of work per batch).
    batch_size: Optional[int] = None
    #: Keep per-worker hierarchy pools so consecutive trials on one
    #: instance reuse coarsening (multilevel heuristics only).  Off by
    #: default: pooled coarsening draws from the split hierarchy-seed
    #: RNG stream, so cuts match a pooled `run_multistart`, not the
    #: rebuild-per-trial stream of a plain `partition()` loop.
    sticky_cache: bool = False
    sticky_pool_size: int = 2  #: hierarchies per sticky pool
    #: Kernel backend for every trial (None = process default /
    #: ``REPRO_BACKEND`` / numpy).  Like the dispatch knobs this tunes
    #: only where time goes: backends are selectable solely when
    #: bit-identical to numpy, so records never depend on it.
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1 (or None: adaptive)")
        if self.sticky_pool_size < 1:
            raise ValueError("sticky_pool_size must be >= 1")

    @property
    def use_pool(self) -> bool:
        """Timeouts require process isolation, so a timeout forces the
        pool even with one worker."""
        return self.workers > 1 or self.timeout_seconds is not None


def execute_trials(
    trials: Sequence[TrialPlan],
    heuristics: Dict[str, Bipartitioner],
    instances: Dict[str, Hypergraph],
    fixed_parts: Optional[Dict[str, Sequence[Optional[int]]]] = None,
    policy: Optional[ExecutionPolicy] = None,
    on_outcome=None,
    perf_totals: Optional[Dict[str, PerfCounters]] = None,
) -> List[TrialOutcome]:
    """Run every trial to an outcome (ok or error); never raises for
    trial-level failures.  Outcomes are returned sorted by trial index;
    ``on_outcome`` sees them in completion order, one call per trial.
    When ``perf_totals`` (a dict) is supplied, every trial's kernel
    perf counters are accumulated into it per heuristic name — the
    event-count fields are deterministic, so pool totals equal serial
    totals exactly."""
    policy = policy or ExecutionPolicy()
    if not trials:
        return []
    if policy.use_pool:
        outcomes = _execute_pool(
            trials, heuristics, instances, fixed_parts, policy, on_outcome,
            perf_totals,
        )
    else:
        outcomes = _execute_inline(
            trials, heuristics, instances, fixed_parts, policy, on_outcome,
            perf_totals,
        )
    return sorted(outcomes, key=lambda o: o.trial)


# ----------------------------------------------------------------------
def _ok_outcome(item: PendingTrial, payload: tuple) -> TrialOutcome:
    cut, elapsed, legal, k, objective = payload
    p = item.plan
    return TrialOutcome(
        trial=p.index,
        status="ok",
        heuristic=p.heuristic,
        instance=p.instance,
        seed=p.seed,
        cut=cut,
        runtime_seconds=elapsed,
        legal=legal,
        attempts=item.attempts + 1,
        k=k,
        objective=objective,
    )


def _error_outcome(item: PendingTrial, message: str) -> TrialOutcome:
    p = item.plan
    return TrialOutcome(
        trial=p.index,
        status="error",
        heuristic=p.heuristic,
        instance=p.instance,
        seed=p.seed,
        error=message.strip(),
        attempts=item.attempts,
    )


def _execute_inline(trials, heuristics, instances, fixed_parts, policy,
                    on_outcome, perf_totals) -> List[TrialOutcome]:
    executor = _TrialExecutor(
        heuristics,
        instances,
        fixed_parts=fixed_parts,
        sticky_cache=policy.sticky_cache,
        sticky_pool_size=policy.sticky_pool_size,
        collect_perf=perf_totals is not None,
        backend=policy.backend,
    )
    outcomes: List[TrialOutcome] = []
    for plan in trials:
        item = PendingTrial(plan)
        while True:
            try:
                payload, perf = executor.run(plan)
                _merge_perf(perf_totals, plan.heuristic, perf)
                outcome = _ok_outcome(item, payload)
                break
            except Exception:
                item.attempts += 1
                if item.attempts > policy.max_retries:
                    outcome = _error_outcome(
                        item, traceback.format_exc(limit=8)
                    )
                    break
        outcomes.append(outcome)
        if on_outcome:
            on_outcome(outcome, 1, 1)
    return outcomes


def _execute_pool(trials, heuristics, instances, fixed_parts, policy,
                  on_outcome, perf_totals) -> List[TrialOutcome]:
    job = PoolJob(
        _CAMPAIGN_JOB,
        build_payload(
            heuristics,
            instances,
            fixed_parts=fixed_parts,
            sticky_cache=policy.sticky_cache,
            sticky_pool_size=policy.sticky_pool_size,
            collect_perf=perf_totals is not None,
            backend=policy.backend,
        ),
        deque(PendingTrial(p) for p in trials),
        timeout_seconds=policy.timeout_seconds,
        max_retries=policy.max_retries,
        batch_size=policy.batch_size,
    )
    outcomes: List[TrialOutcome] = []
    pool = WorkerPool(min(policy.workers, len(trials)))

    def job_of(job_id: str) -> PoolJob:
        return job

    def resolve(job: PoolJob, outcome: TrialOutcome, perf) -> None:
        _merge_perf(perf_totals, outcome.heuristic, perf)
        outcomes.append(outcome)
        if on_outcome:
            on_outcome(outcome, pool.busy, len(pool.workers))

    try:
        while len(outcomes) < len(trials):
            # Dispatch policy: batches in plan order to idle workers.
            for w in pool.idle():
                if not job.pending:
                    break
                size = job.sizer.next_size(
                    len(job.pending), len(pool.workers)
                )
                pool.assign(
                    w, job, [job.pending.popleft() for _ in range(size)]
                )
            pool.drain(job_of, resolve)
            pool.reap(job_of, resolve)
    finally:
        pool.shutdown()
    return outcomes

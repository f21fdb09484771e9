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

The pool's orchestration plane is built not to rival the trials it
dispatches (the short-trial regime of the paper's multistart/BSF
methodology):

* **Shared-memory instance plane** — workers never receive pickled
  hypergraphs.  The supervisor exports every instance once into
  shared-memory segments (:mod:`repro.hypergraph.shm`) and ships only
  name-sized handles; workers attach on first use.  Where shared memory
  is unavailable the handles degrade to pickling fallbacks, with no
  behavioral difference.
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
  ``run_multistart_pooled`` does serially, and heuristics that coarsen
  alike (ML LIFO and ML CLIP) share one pool.  Pool hierarchy
  selection is keyed on the trial's *start index*
  (``TrialPlan.start``), never on worker identity, so records are
  independent of batch size, worker count and scheduling —
  a sticky parallel run equals a sticky serial run bit for bit.
* **Blocking supervision** — the supervisor blocks on the result queue
  (bounded by the nearest trial deadline and a liveness cap) instead of
  polling; idle supervision costs no CPU.
* **Once-pickled spawn payload** — heuristics, handles and fixed parts
  are serialized exactly once per campaign; timeout-replacement
  respawns reuse the cached bytes.

Failure policy: an exception inside a trial, a worker crash, and a
timeout are all *attempt failures*.  A trial is retried up to
``max_retries`` extra times (transient failures heal), after which it
resolves to an error outcome carrying the last error text and the
attempt count.

The pool prefers the ``fork`` start method and falls back to the
platform default elsewhere; under ``spawn``, heuristics must be
picklable — all shipped partitioners are.  Instances need not be
picklable at all when shared memory is available.
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
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.backends import set_default_backend, warmup
from repro.core.multistart import Bipartitioner
from repro.core.perf import PerfCounters
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.shm import (
    SharedInstanceSet,
    ShmHandle,
    attach_hypergraph,
    detach_handle,
)
from repro.multilevel.pool import (
    HierarchyPool,
    coarsening_key,
    supports_hierarchy,
)
from repro.orchestrate.plan import TrialPlan
from repro.orchestrate.store import TrialOutcome

try:
    from typing import Callable
except ImportError:  # pragma: no cover
    pass

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
    executor-level request plus any carried by heuristic configs.  All
    of them are warmed at payload-attach so JIT compilation never leaks
    into a trial runtime (the first-trial timing-skew fix)."""
    names: List[str] = []

    def add(name: Optional[str]) -> None:
        if name is not None and name not in names:
            names.append(name)

    add(backend)
    for h in heuristics.values():
        add(getattr(h, "backend", None))
        cfg = getattr(h, "config", None)
        add(getattr(cfg, "backend", None))
        add(getattr(getattr(cfg, "fm_config", None), "backend", None))
    return names


# ----------------------------------------------------------------------
class _TrialExecutor:
    """Runs trials against lazily-attached instances with sticky caches.

    One of these lives in every pool worker *and* in the inline path, so
    parallel and serial execution share trial semantics by construction.
    Instances arrive either as a plain dict (inline) or as shm handles
    (pool) and are attached/cached on first use; sticky hierarchy pools
    are keyed per (instance, base_seed, coarsening key) block and select
    hierarchies by the trial's start index, which makes the cached
    coarsening work — and therefore every cut — independent of which
    worker runs which trial, and which heuristic built it.
    """

    def __init__(
        self,
        heuristics: Dict[str, Bipartitioner],
        instances: Optional[Dict[str, Hypergraph]] = None,
        handles: Optional[Dict[str, ShmHandle]] = None,
        fixed_parts: Optional[Dict[str, Sequence[Optional[int]]]] = None,
        sticky_cache: bool = False,
        sticky_pool_size: int = 2,
        zero_copy: bool = False,
        collect_perf: bool = False,
        inrun_workers: int = 1,
        backend: Optional[str] = None,
    ) -> None:
        self.heuristics = heuristics
        self.fixed_parts = fixed_parts
        self.sticky_cache = sticky_cache
        self.sticky_pool_size = sticky_pool_size
        self.zero_copy = zero_copy
        #: Kernel backend for this execution context.  Applied as the
        #: process default so heuristics whose configs predate the
        #: registry still pick it up (workers re-apply it from the spawn
        #: payload — a spawned process has no inherited default).
        self.backend = backend
        if backend is not None:
            set_default_backend(backend)
        # Warm every reachable backend now, at payload-attach: JIT
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
        #: In-run parallel workers for sticky hierarchy builds.  Safe to
        #: carry anywhere: HierarchyPool clamps to the serial path in
        #: daemonic pool workers, and parallel builds are bit-identical.
        self.inrun_workers = inrun_workers
        #: Perf counters ride the result queue per trial; collecting is
        #: opt-in (the caller passed ``perf_totals``) so campaigns that
        #: don't ask never pay the extra wire weight.
        self.collect_perf = collect_perf
        self._handles = handles
        self._instances: Dict[str, Hypergraph] = (
            dict(instances) if instances is not None else {}
        )
        self._attached: List[ShmHandle] = []  #: zero-copy mappings held
        self._pools: Dict[Tuple[str, int, tuple], HierarchyPool] = {}
        self._pool_eligible: Dict[str, bool] = {}

    # -- instance plane -------------------------------------------------
    def instance(self, name: str) -> Hypergraph:
        """The hypergraph for ``name``, attached and cached on first use."""
        hg = self._instances.get(name)
        if hg is None:
            handle = (self._handles or {})[name]
            hg = attach_hypergraph(handle, materialize=not self.zero_copy)
            if self.zero_copy and handle.is_shared:
                self._attached.append(handle)
            self._instances[name] = hg
        return hg

    def close(self) -> None:
        """Release zero-copy mappings (materialized caches just drop)."""
        self._instances.clear()
        self._pools.clear()
        for handle in self._attached:
            detach_handle(handle)
        self._attached.clear()

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
                inrun_workers=self.inrun_workers,
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
        self, plan: TrialPlan, with_assignment: bool = False
    ) -> Tuple[tuple, Optional[Dict[str, float]]]:
        """Execute one trial.

        Returns ``((cut, runtime_seconds, legal, k, objective),
        perf_wire)`` — the result tuple the journal stores, plus this
        trial's kernel perf counters in wire form (``None`` unless
        ``collect_perf``).  ``k``/``objective`` come from the
        partitioner's own attributes (2-way/"cut" for plain
        bipartitioners), computed worker-side so every execution plane
        stamps records identically.  ``with_assignment`` appends the
        per-start assignment to the payload (the in-run multistart
        fan-out needs it to reconstruct ``best_assignment``); the
        journal tuple stays untouched.
        """
        partitioner = self.heuristics[plan.heuristic]
        hg = self.instance(plan.instance)
        fp = (
            self.fixed_parts.get(plan.instance) if self.fixed_parts else None
        )
        perf = PerfCounters() if self.collect_perf else None
        hierarchy = self._hierarchy_for(plan, hg, fp, perf)
        sink = perf is not None and hasattr(partitioner, "perf")
        if sink:
            partitioner.perf = perf
        t0 = time.perf_counter()
        try:
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
        if with_assignment:
            payload = payload + (list(result.assignment),)
        return payload, None if perf is None else _perf_to_wire(perf)


# ----------------------------------------------------------------------
def build_payload(
    heuristics: Dict[str, Bipartitioner],
    handles: Dict[str, ShmHandle],
    fixed_parts: Optional[Dict[str, Sequence[Optional[int]]]] = None,
    sticky_cache: bool = False,
    sticky_pool_size: int = 2,
    zero_copy: bool = False,
    collect_perf: bool = False,
    inrun_workers: int = 1,
    backend: Optional[str] = None,
) -> bytes:
    """Serialize one execution context (heuristics, instance handles and
    cache knobs) into the once-pickled spawn payload a worker consumes
    via :func:`executor_from_payload`.  Shared by the campaign pool, the
    multi-tenant service fleet and the in-run fan-out pool, so all three
    hand workers identical contexts.  ``backend`` rides the payload so
    every worker re-applies the kernel-backend default and pays JIT
    warm-up at attach time, not inside its first trial."""
    return pickle.dumps(
        (
            heuristics,
            handles,
            fixed_parts,
            sticky_cache,
            sticky_pool_size,
            zero_copy,
            collect_perf,
            inrun_workers,
            backend,
        ),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def executor_from_payload(payload_blob: bytes) -> "_TrialExecutor":
    """Rebuild the worker-side :class:`_TrialExecutor` from a payload
    produced by :func:`build_payload`."""
    (
        heuristics,
        handles,
        fixed_parts,
        sticky_cache,
        sticky_pool_size,
        zero_copy,
        collect_perf,
        inrun_workers,
        backend,
    ) = pickle.loads(payload_blob)
    return _TrialExecutor(
        heuristics,
        handles=handles,
        fixed_parts=fixed_parts,
        sticky_cache=sticky_cache,
        sticky_pool_size=sticky_pool_size,
        zero_copy=zero_copy,
        collect_perf=collect_perf,
        inrun_workers=inrun_workers,
        backend=backend,
    )


def _worker_main(task_q, result_q, payload_blob: bytes):
    """Worker loop: pull trial batches, stream per-trial results, exit
    on the ``None`` sentinel.

    The spawn payload (heuristics, instance handles, fixed parts and
    cache knobs) arrives as one pre-pickled byte string — serialized
    once per campaign, not once per (re)spawn.  Idle waits are bounded
    so a worker notices when the supervisor was SIGKILLed (reparenting
    changes ``getppid``) instead of lingering as an orphan blocked on
    its queue forever.
    """
    executor = executor_from_payload(payload_blob)
    parent = os.getppid()
    try:
        while True:
            try:
                batch = task_q.get(timeout=_ORPHAN_POLL_SECONDS)
            except queue.Empty:
                if os.getppid() != parent:
                    return  # supervisor is gone; don't orphan
                continue
            if batch is None:
                return
            for index, heuristic, instance, seed, start in batch:
                plan = TrialPlan(
                    index=index,
                    heuristic=heuristic,
                    instance=instance,
                    seed=seed,
                    start=start,
                )
                try:
                    payload, perf = executor.run(plan)
                    result_q.put((index, "ok", payload, perf))
                except Exception:
                    result_q.put(
                        (
                            index,
                            "error",
                            traceback.format_exc(limit=8),
                            None,
                        )
                    )
    finally:
        executor.close()


@dataclass
class _PendingTrial:
    plan: TrialPlan
    attempts: int = 0  #: failed attempts so far


class _Worker:
    """A pool worker plus the supervisor's view of its in-flight batch.

    ``batch[0]`` is the trial the worker is executing *now* (results
    stream back in batch order); ``started_at`` is when that head
    started from the supervisor's perspective — set at assignment and
    re-armed whenever the previous head's result arrives, so a
    ``timeout_seconds`` budget covers each trial individually even
    inside a batch.
    """

    def __init__(self, ctx, result_q, payload_blob: bytes):
        self.task_q = ctx.Queue()
        self.process = ctx.Process(
            target=_worker_main,
            args=(self.task_q, result_q, payload_blob),
            daemon=True,
        )
        self.process.start()
        self.batch: Deque[_PendingTrial] = deque()
        self.started_at = 0.0

    @property
    def busy(self) -> bool:
        return bool(self.batch)

    def assign(self, items: List[_PendingTrial]) -> None:
        assert not self.batch
        self.batch.extend(items)
        self.started_at = time.monotonic()
        self.task_q.put(
            [
                (p.plan.index, p.plan.heuristic, p.plan.instance,
                 p.plan.seed, p.plan.start)
                for p in items
            ]
        )

    def pop_result(self, index: int) -> Optional[_PendingTrial]:
        """Remove (normally) the batch head once its result arrived and
        re-arm the timeout clock for the next trial in the batch."""
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


@dataclass
class ExecutionPolicy:
    """Robustness and dispatch knobs for a campaign execution.

    The robustness trio (``workers`` / ``timeout_seconds`` /
    ``max_retries``) is unchanged from the original pool.  The dispatch
    knobs tune *where time goes*, never *what is computed*: for any
    setting of ``batch_size``, ``sticky_cache``, ``use_shared_memory``
    and ``zero_copy``, records are bit-identical to a serial run under
    the same policy.
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
    #: RNG stream, so cuts match `run_multistart_pooled`, not the
    #: rebuild-per-trial stream of a plain `partition()` loop.
    sticky_cache: bool = False
    sticky_pool_size: int = 2  #: hierarchies per sticky pool
    #: Ship instances to workers via shared memory (else pickled).
    use_shared_memory: bool = True
    #: Workers read CSR arrays in place (numpy views) instead of
    #: materializing Python lists on attach.  Lowest memory, identical
    #: records; the pure-Python FM inner loops run ~1.5x slower on
    #: scalar numpy reads, so materializing is the speed default.
    zero_copy: bool = False
    #: In-run parallel workers per trial (parallel-proposal coarsening
    #: for sticky hierarchy builds).  Composes with ``workers`` via
    #: fair-share clamping — ``workers x inrun_workers`` never exceeds
    #: the fleet — and is bit-identical to serial at any value.
    inrun_workers: int = 1
    #: Kernel backend for every trial (None = process default /
    #: ``REPRO_BACKEND`` / numpy).  Like the dispatch knobs this tunes
    #: only where time goes: backends are selectable solely when
    #: bit-identical to numpy, so records never depend on it.
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.inrun_workers < 1:
            raise ValueError("inrun_workers must be >= 1")
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

    @property
    def inrun_effective(self) -> int:
        """``inrun_workers`` after fair-share clamping against the
        trial-level worker count (and the daemon guard)."""
        from repro.multilevel.parallel import clamp_inrun_workers

        return clamp_inrun_workers(
            self.inrun_workers, trial_workers=self.workers
        )


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
def _ok_outcome(item: _PendingTrial, payload: tuple) -> TrialOutcome:
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


def _error_outcome(item: _PendingTrial, message: str) -> TrialOutcome:
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
        instances=instances,
        fixed_parts=fixed_parts,
        sticky_cache=policy.sticky_cache,
        sticky_pool_size=policy.sticky_pool_size,
        collect_perf=perf_totals is not None,
        inrun_workers=policy.inrun_effective,
        backend=policy.backend,
    )
    outcomes: List[TrialOutcome] = []
    for plan in trials:
        item = _PendingTrial(plan)
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


class _BatchSizer:
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


def _execute_pool(trials, heuristics, instances, fixed_parts, policy,
                  on_outcome, perf_totals) -> List[TrialOutcome]:
    ctx = _pool_context()
    result_q = ctx.Queue()
    share = SharedInstanceSet(
        instances, use_shared_memory=policy.use_shared_memory
    )
    # Satellite: the spawn payload is pickled exactly once per campaign;
    # timeout-replacement respawns reuse these bytes instead of
    # re-serializing the heuristic/instance dicts.
    payload_blob = build_payload(
        heuristics,
        share.handles,
        fixed_parts=fixed_parts,
        sticky_cache=policy.sticky_cache,
        sticky_pool_size=policy.sticky_pool_size,
        zero_copy=policy.zero_copy,
        collect_perf=perf_totals is not None,
        inrun_workers=policy.inrun_effective,
        backend=policy.backend,
    )
    spawn = lambda: _Worker(ctx, result_q, payload_blob)

    pending: Deque[_PendingTrial] = deque(_PendingTrial(p) for p in trials)
    sizer = _BatchSizer(policy.batch_size)
    workers = [spawn() for _ in range(min(policy.workers, len(pending)))]
    inflight: Dict[int, _Worker] = {}
    outcomes: List[TrialOutcome] = []

    def resolve(outcome: TrialOutcome) -> None:
        outcomes.append(outcome)
        if on_outcome:
            busy = sum(1 for w in workers if w.busy)
            on_outcome(outcome, busy, len(workers))

    def fail(item: _PendingTrial, message: str) -> None:
        item.attempts += 1
        if item.attempts <= policy.max_retries:
            pending.append(item)
        else:
            resolve(_error_outcome(item, message))

    def forfeit(w: _Worker, message: str) -> None:
        """Kill ``w``; charge only its in-flight head, requeue the rest.

        The head (the trial actually executing) takes the attempt; the
        remaining batch entries were merely queued, so they re-enter
        the front of the pending queue unpenalized, in order.
        """
        head = w.batch.popleft()
        rest = list(w.batch)
        w.batch.clear()
        inflight.pop(head.plan.index, None)
        for item in rest:
            inflight.pop(item.plan.index, None)
        workers.remove(w)
        w.terminate()
        fail(head, message)
        pending.extendleft(reversed(rest))
        if pending:
            workers.append(spawn())

    def drain_timeout(now: float) -> float:
        """How long the supervisor may block on the result queue: until
        the nearest in-flight trial deadline, capped by the liveness
        bound (so silently dead workers are still noticed)."""
        wait = _LIVENESS_SECONDS
        if policy.timeout_seconds is not None:
            for w in workers:
                if w.busy:
                    remaining = w.started_at + policy.timeout_seconds - now
                    if remaining < wait:
                        wait = remaining
        return max(wait, 0.0)

    try:
        while len(outcomes) < len(trials):
            # 1. hand batches of pending trials to idle live workers
            for w in workers:
                if not pending:
                    break
                if not w.busy and w.process.is_alive():
                    size = sizer.next_size(len(pending), len(workers))
                    items = [pending.popleft() for _ in range(size)]
                    w.assign(items)
                    for item in items:
                        inflight[item.plan.index] = w

            # 2. drain results: one blocking wait sized to the nearest
            # deadline, then whatever else is already queued
            messages = []
            wait = drain_timeout(time.monotonic())
            try:
                if wait > 0:
                    messages.append(result_q.get(timeout=wait))
                else:
                    messages.append(result_q.get_nowait())
                while True:
                    messages.append(result_q.get_nowait())
            except queue.Empty:
                pass
            for index, status, payload, perf in messages:
                w = inflight.pop(index, None)
                if w is None:
                    continue  # stale message from a terminated worker
                item = w.pop_result(index)
                if item is None:  # pragma: no cover - defensive
                    continue
                if status == "ok":
                    sizer.observe(payload[1])
                    _merge_perf(perf_totals, item.plan.heuristic, perf)
                    resolve(_ok_outcome(item, payload))
                else:
                    fail(item, payload)

            # 3. enforce the head deadline; recover from dead workers
            now = time.monotonic()
            for w in list(workers):
                if not w.busy:
                    if not w.process.is_alive() and pending:
                        workers.remove(w)
                        workers.append(spawn())
                    continue
                timed_out = (
                    policy.timeout_seconds is not None
                    and now - w.started_at > policy.timeout_seconds
                )
                if timed_out:
                    forfeit(
                        w,
                        f"trial exceeded wall-clock timeout of "
                        f"{policy.timeout_seconds:g}s",
                    )
                elif not w.process.is_alive():
                    forfeit(
                        w,
                        f"worker process died "
                        f"(exitcode {w.process.exitcode})",
                    )
    finally:
        for w in workers:
            w.shutdown()
        share.close()
    return outcomes


# ----------------------------------------------------------------------
# Public handoff surface for other supervisors (the campaign service's
# fair-share fleet drives the same executor/batching machinery, so one
# trial run in either plane computes exactly the same thing).
TrialExecutor = _TrialExecutor
BatchSizer = _BatchSizer
PendingTrial = _PendingTrial
pool_context = _pool_context
ok_outcome = _ok_outcome
error_outcome = _error_outcome
ORPHAN_POLL_SECONDS = _ORPHAN_POLL_SECONDS
LIVENESS_SECONDS = _LIVENESS_SECONDS
JOIN_SECONDS = _JOIN_SECONDS

"""Fair-share trial scheduler: many campaigns, one worker fleet.

The campaign executor (:mod:`repro.orchestrate.executor`) supervises one
campaign's trials on a dedicated pool.  The service needs the inverse
shape: one long-lived fleet of multi-tenant workers, onto which trial
*batches from many concurrent jobs* are interleaved.  This module keeps
every contract the executor established and adds the multi-tenancy:

* **Same workers** — the fleet is a
  :class:`~repro.orchestrate.executor.WorkerPool`, the campaign pool's
  own worker class and loop.  Each worker keeps one trial executor per
  job, rebuilt from the job's once-pickled payload, so a trial
  computes bit-for-bit what a standalone campaign run computes.  Sticky
  hierarchy caches stay keyed on the trial's start index, never on
  worker identity, so fair-share interleaving cannot perturb records.
* **Deficit round-robin fair share** — each runnable job carries a
  deficit replenished by its ``priority`` once all runnable deficits
  are spent; dispatch walks the submission rotation and serves the
  first job with deficit, clamping batch size to the remaining deficit.
  Starvation bound: in every replenish cycle each runnable job is
  dispatched at least ``priority`` trials before any other job is
  replenished again — a priority-1 job always progresses.
* **Per-job robustness** — per-trial hard timeouts, bounded retries and
  the forfeit rule (a killed worker charges only its in-flight batch
  head; the rest requeue unpenalized) are the pool's shared code,
  applied per job with each job's own policy.  Only the dispatch policy
  below is this module's own.
* **Crash-safe journaling** — every outcome is appended + fsynced to
  the job's own :class:`~repro.orchestrate.store.RunStore` the moment
  it resolves, so a service kill loses at most the in-flight trials —
  which were never journaled and simply rerun after restart.

Threading model: all scheduler state is owned by one supervisor thread;
other threads communicate through a command queue (submit / pause /
resume / cancel / stop).  Job counter fields are plain ints updated only
by the supervisor, safe to *read* from other threads for status.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.orchestrate.executor import BatchSizer, PendingTrial, WorkerPool
from repro.orchestrate.store import RunStore, TrialOutcome

JOB_ACTIVE = "active"
JOB_PAUSED = "paused"
JOB_DONE = "done"
JOB_CANCELLED = "cancelled"

#: Idle tick while the fleet is drained.
_IDLE_WAIT_SECONDS = 0.2


# ----------------------------------------------------------------------
@dataclass
class ServiceJob:
    """Scheduler-side state of one tenant campaign (a job on the
    :class:`~repro.orchestrate.executor.WorkerPool`)."""

    job_id: str
    store: RunStore
    total: int
    payload_blob: bytes
    pending: Deque[PendingTrial]
    priority: int = 1
    timeout_seconds: Optional[float] = None
    max_retries: int = 0
    batch_size: Optional[int] = None
    status: str = JOB_ACTIVE
    done: int = 0
    ok: int = 0
    errors: int = 0
    best: Dict[str, float] = field(default_factory=dict)
    #: Called (supervisor thread) after each journaled outcome.
    on_outcome: Optional[Callable[["ServiceJob", TrialOutcome], None]] = None
    #: Called (supervisor thread) exactly once on done/cancelled.
    on_finish: Optional[Callable[["ServiceJob"], None]] = None
    deficit: float = 0.0
    sizer: BatchSizer = field(init=False)

    def __post_init__(self) -> None:
        self.sizer = BatchSizer(self.batch_size)

    @property
    def finished(self) -> bool:
        return self.status in (JOB_DONE, JOB_CANCELLED)

    def progress(self) -> Dict[str, object]:
        """Thread-safe-enough snapshot for status endpoints."""
        return {
            "job_id": self.job_id,
            "status": self.status,
            "total": self.total,
            "done": self.done,
            "ok": self.ok,
            "errors": self.errors,
            "pending": len(self.pending),
            "priority": self.priority,
            "best": dict(self.best),
        }


class FairShareScheduler:
    """Deficit-round-robin supervisor for one multi-tenant fleet."""

    def __init__(self, workers: int = 2):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.num_workers = workers
        self._cmd: "queue.Queue[Tuple]" = queue.Queue()
        self._jobs: Dict[str, ServiceJob] = {}
        self._order: List[str] = []  #: submission rotation for DRR
        self._rr = 0
        self._thread: Optional[threading.Thread] = None
        self._stopping = False
        self._stopped = threading.Event()

    # -- control surface (any thread) -----------------------------------
    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("scheduler already started")
        self._thread = threading.Thread(
            target=self._loop, name="repro-scheduler", daemon=True
        )
        self._thread.start()

    def submit(self, job: ServiceJob) -> None:
        self._cmd.put(("submit", job))

    def pause(self, job_id: str) -> None:
        self._cmd.put(("pause", job_id))

    def resume(self, job_id: str) -> None:
        self._cmd.put(("resume", job_id))

    def cancel(self, job_id: str) -> None:
        self._cmd.put(("cancel", job_id))

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the fleet *now* (kill semantics).  In-flight trials are
        lost un-journaled — exactly the crash the journal is designed
        for: a restart reruns only those."""
        if self._thread is None:
            return
        self._cmd.put(("stop",))
        self._stopped.wait(timeout)
        self._thread.join(timeout)
        self._thread = None

    def job(self, job_id: str) -> Optional[ServiceJob]:
        return self._jobs.get(job_id)

    def jobs(self) -> List[ServiceJob]:
        return [self._jobs[j] for j in self._order]

    # -- supervisor loop -------------------------------------------------
    def _live_job(self, job_id: Optional[str]) -> Optional[ServiceJob]:
        """The job whose results still count (None once finished)."""
        job = self._jobs.get(job_id)
        return None if job is None or job.finished else job

    def _loop(self) -> None:
        pool = WorkerPool(self.num_workers)

        # -- per-outcome bookkeeping ------------------------------------
        def resolve(job: ServiceJob, outcome: TrialOutcome, perf) -> None:
            job.store.append(outcome)
            job.done += 1
            if outcome.ok:
                job.ok += 1
                inst = outcome.instance
                if inst not in job.best or outcome.cut < job.best[inst]:
                    job.best[inst] = outcome.cut
            else:
                job.errors += 1
            if job.on_outcome is not None:
                job.on_outcome(job, outcome)
            if job.done >= job.total:
                finish(job, JOB_DONE)

        def finish(job: ServiceJob, status: str) -> None:
            if job.finished:
                return
            job.status = status
            job.pending.clear()
            pool.drop_job(job.job_id)
            if job.on_finish is not None:
                job.on_finish(job)

        # -- commands ----------------------------------------------------
        def handle(cmd: Tuple) -> None:
            kind = cmd[0]
            if kind == "stop":
                self._stopping = True
            elif kind == "submit":
                job: ServiceJob = cmd[1]
                self._jobs[job.job_id] = job
                self._order.append(job.job_id)
                if not job.pending and job.done >= job.total:
                    finish(job, JOB_DONE)
            elif kind == "pause":
                job = self._jobs.get(cmd[1])
                if job is not None and job.status == JOB_ACTIVE:
                    job.status = JOB_PAUSED
            elif kind == "resume":
                job = self._jobs.get(cmd[1])
                if job is not None and job.status == JOB_PAUSED:
                    job.status = JOB_ACTIVE
            elif kind == "cancel":
                job = self._live_job(cmd[1])
                if job is None:
                    return
                # Reclaim workers mid-batch on this job: cancellation
                # must not wait for a long trial to finish.
                for w in list(pool.workers):
                    if w.batch_job == job.job_id:
                        pool.reclaim(w)
                finish(job, JOB_CANCELLED)

        # -- fair-share dispatch ----------------------------------------
        def pick_job() -> Optional[ServiceJob]:
            ready = [
                self._jobs[j]
                for j in self._order
                if self._jobs[j].status == JOB_ACTIVE
                and self._jobs[j].pending
            ]
            if not ready:
                return None
            if all(job.deficit < 1 for job in ready):
                for job in ready:
                    job.deficit += job.priority
            n = len(self._order)
            for k in range(n):
                jid = self._order[(self._rr + k) % n]
                job = self._jobs[jid]
                if (
                    job.status == JOB_ACTIVE
                    and job.pending
                    and job.deficit >= 1
                ):
                    self._rr = (self._rr + k + 1) % n
                    return job
            return None

        def dispatch() -> None:
            for w in pool.idle():
                job = pick_job()
                if job is None:
                    break
                size = job.sizer.next_size(
                    len(job.pending), len(pool.workers)
                )
                size = max(1, min(size, int(job.deficit), len(job.pending)))
                job.deficit -= size
                pool.assign(
                    w, job, [job.pending.popleft() for _ in range(size)]
                )

        # -- main loop ---------------------------------------------------
        try:
            while True:
                while True:  # absorb all queued commands
                    try:
                        handle(self._cmd.get_nowait())
                    except queue.Empty:
                        break
                if self._stopping:
                    break

                dispatch()

                if pool.busy:
                    pool.drain(self._live_job, resolve)
                else:
                    # Idle fleet: wait for the next command instead of
                    # spinning on the result queue.
                    try:
                        handle(self._cmd.get(timeout=_IDLE_WAIT_SECONDS))
                    except queue.Empty:
                        pass
                    if self._stopping:
                        break
                pool.reap(self._live_job, resolve)
        finally:
            pool.shutdown()
            self._stopped.set()

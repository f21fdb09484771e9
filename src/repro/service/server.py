"""The campaign service supervisor and its HTTP/JSON frontend.

:class:`CampaignService` owns the long-lived pieces — one
:class:`~repro.service.scheduler.FairShareScheduler` fleet, one
:class:`~repro.service.cache.InstanceCache`, one
:class:`~repro.service.streams.SubscriptionHub` — and a directory of
per-job state::

    <dir>/jobs/<job_id>/job.json        # spec + lifecycle status
    <dir>/jobs/<job_id>/meta.json       # RunStore metadata (as always)
    <dir>/jobs/<job_id>/journal.jsonl   # crash-safe trial journal
    <dir>/jobs/<job_id>/report.txt      # final report, written on done

Everything durable lives in files the one-shot ``repro campaign``
tooling already understands: a service job's directory *is* a valid
campaign store, so ``repro campaign status/report`` work on it
unchanged, and the determinism acceptance check — service journal
record-identical to a standalone run — is a plain file comparison.

Crash recovery (:meth:`CampaignService.recover`, run at startup) rereads
``job.json`` for every non-finished job, reloads its instances and
resubmits only the trials missing from the journal.  Since every
outcome was fsynced before being counted, a killed service restarts
with zero rerun of journaled trials.

:class:`ServiceHTTP` serves it over HTTP with the standard library's
threading server, one thread per request: JSON request/response for the
control plane, newline-delimited JSON for the live subscription
streams.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Iterator, List, Optional
from urllib.parse import parse_qs, urlsplit

from repro.evaluation.streaming import ReportBuilder
from repro.orchestrate.executor import build_payload, PendingTrial
from repro.orchestrate.orchestrator import open_store
from repro.orchestrate.plan import expand_spec
from repro.orchestrate.store import RunStore, machine_info
from repro.service.cache import InstanceCache
from repro.service.scheduler import (
    JOB_ACTIVE,
    JOB_DONE,
    JOB_PAUSED,
    FairShareScheduler,
    ServiceJob,
)
from repro.service.spec import JobSpec
from repro.service.streams import SubscriptionHub, subscribe_job


class _JobRecord:
    """Service-side bookkeeping for one job (the scheduler owns the
    :class:`ServiceJob`; this holds what the scheduler must not know
    about — spec and directory)."""

    def __init__(
        self,
        job_id: str,
        spec: JobSpec,
        store: RunStore,
        directory: Path,
        job: ServiceJob,
    ):
        self.job_id = job_id
        self.spec = spec
        self.store = store
        self.directory = directory
        self.job = job


class CampaignService:
    """Supervisor for many concurrent campaigns on one worker fleet."""

    def __init__(
        self,
        directory,
        workers: int = 2,
        cache_capacity: int = 8,
    ):
        self.directory = Path(directory)
        self.jobs_dir = self.directory / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.cache = InstanceCache(capacity=cache_capacity)
        self.hub = SubscriptionHub()
        # A process's first ``machine_info()`` runs ``uname -p``, which a
        # worker forked meanwhile stalls by holding its pipe: run it now.
        machine_info()
        self.scheduler = FairShareScheduler(workers=workers)
        self.scheduler.start()
        self._lock = threading.Lock()
        self._records: Dict[str, _JobRecord] = {}
        self._seq = self._next_seq()
        self._closed = False

    # -- job identity ----------------------------------------------------
    def _next_seq(self) -> int:
        seq = 0
        for child in self.jobs_dir.iterdir():
            name = child.name
            if name.startswith("j") and "-" in name:
                head = name[1:].split("-", 1)[0]
                if head.isdigit():
                    seq = max(seq, int(head))
        return seq + 1

    def _job_dir(self, job_id: str) -> Path:
        return self.jobs_dir / job_id

    @staticmethod
    def _job_json_path(directory: Path) -> Path:
        return directory / "job.json"

    def _persist_job(self, record: _JobRecord) -> None:
        payload = {
            "job_id": record.job_id,
            "status": record.job.status,
            "spec": record.spec.to_json(),
        }
        path = self._job_json_path(record.directory)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        tmp.replace(path)

    # -- submission ------------------------------------------------------
    def submit(self, spec: JobSpec) -> str:
        """Register a job and start scheduling its trials; returns the
        job id.  The job directory is a complete, standalone campaign
        store from the first journaled trial on."""
        with self._lock:
            if self._closed:
                raise RuntimeError("service is closed")
            job_id = f"j{self._seq:03d}-{spec.name}"
            self._seq += 1
        record = self._register_job(job_id, spec, fresh=True)
        return record.job_id

    def _register_job(
        self, job_id: str, spec: JobSpec, fresh: bool
    ) -> _JobRecord:
        """Load instances, reconcile the store with its journal, and
        hand the remaining trials to the scheduler.  Shared by
        :meth:`submit` (``fresh=True``) and :meth:`recover`."""
        directory = self._job_dir(job_id)
        instances = {
            source.label: self.cache.get(source) for source in spec.instances
        }
        campaign = spec.campaign_spec(instances)
        plan = expand_spec(campaign)
        store = RunStore(directory)
        outcomes = open_store(
            store,
            campaign,
            len(plan),
            sticky_cache=spec.sticky_cache,
            sticky_pool_size=spec.sticky_pool_size,
            cli={"service_spec": spec.to_json()},
        )
        completed = {o.trial for o in outcomes}
        pending = deque(
            PendingTrial(p) for p in plan if p.index not in completed
        )
        heuristics = {
            getattr(h, "name", type(h).__name__): h
            for h in campaign.heuristics
        }
        payload_blob = build_payload(
            heuristics,
            campaign.instances,
            sticky_cache=spec.sticky_cache,
            sticky_pool_size=spec.sticky_pool_size,
            backend=spec.backend,
        )
        job = ServiceJob(
            job_id=job_id,
            store=store,
            total=len(plan),
            payload_blob=payload_blob,
            pending=pending,
            priority=spec.priority,
            timeout_seconds=spec.timeout_seconds,
            max_retries=spec.max_retries,
            on_outcome=self._on_outcome,
            on_finish=self._on_finish,
        )
        for o in outcomes:  # resume: journal already holds these
            job.done += 1
            if o.ok:
                job.ok += 1
                if o.instance not in job.best or o.cut < job.best[o.instance]:
                    job.best[o.instance] = o.cut
            else:
                job.errors += 1
        record = _JobRecord(job_id, spec, store, directory, job)
        with self._lock:
            self._records[job_id] = record
        if fresh:
            self._persist_job(record)
        self.scheduler.submit(job)
        return record

    # -- scheduler callbacks (supervisor thread) -------------------------
    def _on_outcome(self, job: ServiceJob, outcome) -> None:
        self.hub.notify(job.job_id)

    def _on_finish(self, job: ServiceJob) -> None:
        record = self._records.get(job.job_id)
        if record is None:  # pragma: no cover - defensive
            self.hub.finish(job.job_id)
            return
        if job.status == JOB_DONE:
            builder = ReportBuilder(
                record.store, num_shuffles=record.spec.num_shuffles
            )
            builder.refresh()
            (record.directory / "report.txt").write_text(
                builder.render(), encoding="utf-8"
            )
        self._persist_job(record)
        self.hub.finish(job.job_id)

    # -- recovery --------------------------------------------------------
    def recover(self) -> List[str]:
        """Resubmit every job that was active or paused when the service
        last stopped.  Journaled trials are never rerun; a job whose
        journal already covers the plan finalizes immediately (report +
        status flip) without touching the fleet."""
        recovered: List[str] = []
        for child in sorted(self.jobs_dir.iterdir()):
            path = self._job_json_path(child)
            if not path.is_file():
                continue
            data = json.loads(path.read_text(encoding="utf-8"))
            if data.get("status") not in (JOB_ACTIVE, JOB_PAUSED):
                continue
            job_id = str(data["job_id"])
            spec = JobSpec.from_json(data["spec"])
            record = self._register_job(job_id, spec, fresh=False)
            if data.get("status") == JOB_PAUSED:
                self.scheduler.pause(job_id)
                record.job.status = JOB_PAUSED  # reflect before snapshot
            recovered.append(job_id)
        return recovered

    # -- control plane ---------------------------------------------------
    def _record(self, job_id: str) -> _JobRecord:
        record = self._records.get(job_id)
        if record is None:
            raise KeyError(f"unknown job {job_id!r}")
        return record

    def status(self, job_id: str) -> Dict[str, object]:
        record = self._record(job_id)
        out = record.job.progress()
        out["name"] = record.spec.name
        out["directory"] = str(record.directory)
        report = record.directory / "report.txt"
        if report.exists():
            out["report_path"] = str(report)
        return out

    def list_jobs(self) -> List[Dict[str, object]]:
        with self._lock:
            ids = list(self._records)
        return [self.status(job_id) for job_id in ids]

    def cancel(self, job_id: str) -> None:
        self._record(job_id)
        self.scheduler.cancel(job_id)

    def pause(self, job_id: str) -> None:
        self._record(job_id)
        self.scheduler.pause(job_id)

    def resume_job(self, job_id: str) -> None:
        self._record(job_id)
        self.scheduler.resume(job_id)

    def subscribe(
        self, job_id: str, kind: str = "status", **kwargs
    ) -> Iterator[Dict[str, object]]:
        record = self._record(job_id)
        kwargs.setdefault("num_shuffles", record.spec.num_shuffles)
        return subscribe_job(
            record.store,
            self.hub,
            job_id,
            kind=kind,
            total=record.job.total,
            **kwargs,
        )

    def wait(self, job_id: str, timeout: Optional[float] = None) -> str:
        """Block until the job finishes; returns its final status."""
        record = self._record(job_id)
        import time as _time

        deadline = None if timeout is None else _time.monotonic() + timeout
        seen = -1
        while not self.hub.finished(job_id):
            if deadline is not None and _time.monotonic() >= deadline:
                break
            seen = self.hub.wait(job_id, seen, timeout=0.2)
        return record.job.status

    def health(self) -> Dict[str, object]:
        with self._lock:
            ids = list(self._records)
        return {
            "jobs": len(ids),
            "active": sum(
                1
                for j in ids
                if self._records[j].job.status == JOB_ACTIVE
            ),
            "workers": self.scheduler.num_workers,
            "cache": self.cache.snapshot(),
        }

    def close(self) -> None:
        """Stop the fleet and drop the instance cache.  Running jobs stay
        ``active`` in ``job.json`` — exactly what :meth:`recover` picks
        up on the next start."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.scheduler.stop()
        self.cache.close()

    def __enter__(self) -> "CampaignService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    """One request of the JSON control plane or one NDJSON stream."""

    def log_message(self, format, *args) -> None:
        pass  # no per-request log lines

    def do_GET(self) -> None:
        self._route("GET")

    def do_POST(self) -> None:
        self._route("POST")

    def _route(self, method: str) -> None:
        split = urlsplit(self.path)
        parts = [p for p in split.path.split("/") if p]
        service = self.server.service
        try:
            if method == "GET" and parts == ["health"]:
                self._reply(200, service.health())
            elif method == "GET" and parts == ["jobs"]:
                self._reply(200, {"jobs": service.list_jobs()})
            elif method == "POST" and parts == ["jobs"]:
                length = int(self.headers.get("Content-Length") or 0)
                body = self.rfile.read(length)
                try:
                    spec = JobSpec.from_json(
                        json.loads(body.decode("utf-8"))
                    )
                except (KeyError, TypeError) as exc:
                    # Missing/mistyped spec fields are client errors,
                    # not unknown resources.
                    self._reply(400, {"error": f"bad spec: {exc}"})
                    return
                self._reply(200, {"job_id": service.submit(spec)})
            elif method == "GET" and len(parts) == 2 and parts[0] == "jobs":
                self._reply(200, service.status(parts[1]))
            elif (
                method == "POST"
                and len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] in ("cancel", "pause", "resume")
            ):
                action = {
                    "cancel": service.cancel,
                    "pause": service.pause,
                    "resume": service.resume_job,
                }[parts[2]]
                action(parts[1])
                self._reply(200, {"ok": True})
            elif (
                method == "GET"
                and len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] == "stream"
            ):
                kind = parse_qs(split.query).get("kind", ["status"])[0]
                self._stream(parts[1], kind)
            else:
                self._reply(404, {"error": "not found"})
        except KeyError as exc:
            self._reply(404, {"error": str(exc)})
        except ValueError as exc:  # json.JSONDecodeError included
            self._reply(400, {"error": str(exc)})

    def _reply(self, status: int, payload: Dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _stream(self, job_id: str, kind: str) -> None:
        events = self.server.service.subscribe(job_id, kind=kind)
        # The first event comes before the status line, so an unknown
        # kind is still a 400 (the generator checks it on first use).
        first = next(events)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        try:
            for event in itertools.chain([first], events):
                self.wfile.write(json.dumps(event).encode("utf-8") + b"\n")
        except ConnectionError:
            pass  # the client hung up; the job goes on without it


class ServiceHTTP:
    """HTTP frontend for a :class:`CampaignService`, on the standard
    library's :class:`~http.server.ThreadingHTTPServer`.

    Routes::

        GET  /health                     service + cache snapshot
        GET  /jobs                       all jobs' status
        POST /jobs                       submit a JobSpec (JSON body)
        GET  /jobs/<id>                  one job's status
        POST /jobs/<id>/cancel           (also pause / resume)
        GET  /jobs/<id>/stream?kind=...  NDJSON live subscription

    Every request runs its blocking service calls on its own daemon
    thread, so any number of open streams leaves the control plane
    answering; the server loop runs in one more thread.
    """

    def __init__(
        self, service: CampaignService, host: str = "127.0.0.1", port: int = 0
    ):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[ThreadingHTTPServer] = None

    def start(self) -> None:
        """Bind and serve; a port in use raises ``OSError`` here."""
        if self._server is not None:
            raise RuntimeError("HTTP frontend already started")
        self._server = ThreadingHTTPServer((self.host, self.port), _Handler)
        self._server.service = self.service
        self.port = self._server.server_address[1]
        threading.Thread(
            target=self._server.serve_forever,
            name="repro-service-http",
            daemon=True,
        ).start()

    def stop(self) -> None:
        """Stop accepting requests (``shutdown`` returns once the server
        loop has exited); streams still open end with the process, as
        their threads are daemons."""
        server, self._server = self._server, None
        if server is None:
            return
        server.shutdown()
        server.server_close()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

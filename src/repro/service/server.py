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

:class:`ServiceHTTP` is a deliberately small asyncio HTTP/1.1 server
(stdlib only) running in its own thread: JSON request/response for the
control plane, newline-delimited JSON for the live subscription
streams.
"""

from __future__ import annotations

import asyncio
import json
import threading
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.evaluation.streaming import ReportBuilder
from repro.orchestrate.executor import build_payload, PendingTrial
from repro.orchestrate.orchestrator import build_meta
from repro.orchestrate.plan import expand_spec, spec_fingerprint
from repro.orchestrate.store import RunStore
from repro.service.cache import InstanceCache
from repro.service.scheduler import (
    JOB_ACTIVE,
    JOB_CANCELLED,
    JOB_DONE,
    JOB_PAUSED,
    FairShareScheduler,
    ServiceJob,
)
from repro.service.spec import JobSpec
from repro.service.streams import SubscriptionHub, subscribe_job

from collections import deque


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
        if store.exists():
            meta = store.load_meta()
            if meta.get("spec_hash") != spec_fingerprint(campaign):
                raise ValueError(
                    f"job {job_id}: existing store does not match "
                    "the submitted spec"
                )
        else:
            store.initialize(
                build_meta(
                    campaign,
                    total_trials=len(plan),
                    cli={"service_spec": spec.to_json()},
                )
            )
        completed = store.completed_trials()
        pending = deque(
            PendingTrial(p) for p in plan if p.index not in completed
        )
        outcomes = store.outcomes()
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
class ServiceHTTP:
    """Minimal asyncio HTTP/1.1 frontend for a :class:`CampaignService`.

    Routes::

        GET  /health                     service + cache snapshot
        GET  /jobs                       all jobs' status
        POST /jobs                       submit a JobSpec (JSON body)
        GET  /jobs/<id>                  one job's status
        POST /jobs/<id>/cancel           (also pause / resume)
        GET  /jobs/<id>/stream?kind=...  NDJSON live subscription

    The event loop runs in a dedicated thread; blocking service calls
    (and each subscription generator's next()) are pushed to the default
    executor so one slow stream never stalls the control plane.
    """

    def __init__(
        self, service: CampaignService, host: str = "127.0.0.1", port: int = 0
    ):
        self.service = service
        self.host = host
        self.port = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("HTTP frontend already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-service-http", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10):
            raise RuntimeError("HTTP frontend failed to start")

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop

        async def boot():
            self._server = await asyncio.start_server(
                self._handle, self.host, self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]
            self._ready.set()

        loop.run_until_complete(boot())
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def stop(self) -> None:
        loop, self._loop = self._loop, None
        if loop is None:
            return

        async def teardown():
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            loop.stop()

        asyncio.run_coroutine_threadsafe(teardown(), loop)
        self._thread.join(timeout=10)
        self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- request handling ------------------------------------------------
    async def _handle(self, reader, writer) -> None:
        try:
            request = await reader.readline()
            if not request:
                return
            try:
                method, target, _version = (
                    request.decode("latin-1").strip().split(" ", 2)
                )
            except ValueError:
                await self._respond(writer, 400, {"error": "bad request"})
                return
            length = 0
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            body = await reader.readexactly(length) if length else b""
            await self._route(writer, method, target, body)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass

    async def _route(self, writer, method: str, target: str, body: bytes):
        split = urlsplit(target)
        parts = [p for p in split.path.split("/") if p]
        query = parse_qs(split.query)
        loop = asyncio.get_running_loop()
        try:
            if method == "GET" and parts == ["health"]:
                await self._respond(writer, 200, self.service.health())
            elif method == "GET" and parts == ["jobs"]:
                data = await loop.run_in_executor(
                    None, self.service.list_jobs
                )
                await self._respond(writer, 200, {"jobs": data})
            elif method == "POST" and parts == ["jobs"]:
                try:
                    spec = JobSpec.from_json(
                        json.loads(body.decode("utf-8"))
                    )
                except (KeyError, TypeError) as exc:
                    # Missing/mistyped spec fields are client errors,
                    # not unknown resources.
                    await self._respond(
                        writer, 400, {"error": f"bad spec: {exc}"}
                    )
                    return
                job_id = await loop.run_in_executor(
                    None, self.service.submit, spec
                )
                await self._respond(writer, 200, {"job_id": job_id})
            elif method == "GET" and len(parts) == 2 and parts[0] == "jobs":
                data = await loop.run_in_executor(
                    None, self.service.status, parts[1]
                )
                await self._respond(writer, 200, data)
            elif (
                method == "POST"
                and len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] in ("cancel", "pause", "resume")
            ):
                action = {
                    "cancel": self.service.cancel,
                    "pause": self.service.pause,
                    "resume": self.service.resume_job,
                }[parts[2]]
                await loop.run_in_executor(None, action, parts[1])
                await self._respond(writer, 200, {"ok": True})
            elif (
                method == "GET"
                and len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] == "stream"
            ):
                kind = query.get("kind", ["status"])[0]
                await self._stream(writer, parts[1], kind)
            else:
                await self._respond(writer, 404, {"error": "not found"})
        except KeyError as exc:
            await self._respond(writer, 404, {"error": str(exc)})
        except (ValueError, json.JSONDecodeError) as exc:
            await self._respond(writer, 400, {"error": str(exc)})

    async def _respond(self, writer, status: int, payload: Dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found"}.get(
            status, "OK"
        )
        writer.write(
            (
                f"HTTP/1.1 {status} {reason}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        await writer.drain()

    async def _stream(self, writer, job_id: str, kind: str) -> None:
        loop = asyncio.get_running_loop()
        try:
            events = self.service.subscribe(job_id, kind=kind)
        except (KeyError, ValueError) as exc:
            code = 404 if isinstance(exc, KeyError) else 400
            await self._respond(writer, code, {"error": str(exc)})
            return
        writer.write(
            (
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
        )
        await writer.drain()
        sentinel = object()
        while True:
            event = await loop.run_in_executor(
                None, next, events, sentinel
            )
            if event is sentinel:
                break
            writer.write(json.dumps(event).encode("utf-8") + b"\n")
            await writer.drain()

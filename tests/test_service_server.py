"""Campaign service: supervisor, live streams, HTTP frontend, CLI.

The acceptance bar: live subscriptions must equal post-hoc artifacts
byte for byte (same journal in, same report out), the HTTP plane must
take concurrent submissions, and the whole loop must be drivable from
``repro job`` against a tiny spec inside a CI wall-clock budget.
"""

import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.evaluation.streaming import ReportBuilder
from repro.orchestrate.store import RunStore
from repro.service import (
    JOB_DONE,
    InstanceSource,
    JobSpec,
    ServiceClient,
    ServiceHTTP,
    SubscriptionHub,
    subscribe_job,
)
from repro.service.client import ServiceError
from repro.service.server import CampaignService

pytestmark = pytest.mark.service

SRC = str(Path(__file__).resolve().parent.parent / "src")


def tiny_spec(name, cells=40, gen_seed=3, base_seed=0, starts=3,
              engines=("flat-lifo",), **kwargs):
    return JobSpec(
        name=name,
        instances=[
            InstanceSource(
                kind="generate", label=f"gen{cells}", cells=cells,
                seed=gen_seed,
            )
        ],
        engines=list(engines),
        num_starts=starts,
        base_seed=base_seed,
        num_shuffles=10,
        **kwargs,
    )


def outcome_key(outcomes):
    return [
        (o.trial, o.status, o.heuristic, o.instance, o.seed, o.cut, o.legal)
        for o in outcomes
    ]


def standalone_keys(spec: JobSpec, tmp_path):
    from repro.orchestrate import orchestrate_campaign

    instances = {src.label: src.load() for src in spec.instances}
    orchestrate_campaign(
        spec.campaign_spec(instances),
        store_dir=tmp_path / f"standalone-{spec.name}",
        workers=1,
    )
    store = RunStore(tmp_path / f"standalone-{spec.name}" / spec.name)
    return outcome_key(store.outcomes())


@pytest.fixture
def service(tmp_path):
    svc = CampaignService(tmp_path / "svc", workers=2)
    yield svc
    svc.close()


# ----------------------------------------------------------------------
class TestSubscriptions:
    def test_status_stream_reaches_end(self, service):
        job_id = service.submit(tiny_spec("sub-status"))
        events = list(service.subscribe(job_id, kind="status"))
        assert events[-1]["event"] == "end"
        assert events[-1]["done"] == events[-1]["total"] == 3
        statuses = [e for e in events if e["event"] == "status"]
        assert statuses  # at least one progress frame
        assert statuses[-1]["errors"] == 0
        done_counts = [e["done"] for e in statuses]
        assert done_counts == sorted(done_counts)  # monotone progress

    def test_bsf_stream_is_strictly_improving(self, service):
        job_id = service.submit(
            tiny_spec("sub-bsf", starts=6, engines=("flat-lifo", "weak"))
        )
        cuts = [
            e["cut"]
            for e in service.subscribe(job_id, kind="bsf")
            if e["event"] == "bsf"
        ]
        assert cuts  # the first ok trial always improves on nothing
        assert cuts == sorted(cuts, reverse=True)
        assert len(set(cuts)) == len(cuts)  # strict, no ties replayed

    def test_live_report_equals_posthoc_bytes(self, service):
        """The last streamed report == report.txt == a fresh post-hoc
        render of the same journal: one journal, one report, however
        you ask for it."""
        job_id = service.submit(tiny_spec("sub-report", starts=4))
        reports = [
            e["report"]
            for e in service.subscribe(job_id, kind="report")
            if e["event"] == "report"
        ]
        assert reports
        record = service._records[job_id]
        on_disk = (record.directory / "report.txt").read_text()
        assert reports[-1] == on_disk

        posthoc = ReportBuilder(
            RunStore(record.directory),
            num_shuffles=record.spec.num_shuffles,
        )
        posthoc.refresh()
        assert posthoc.complete()
        assert posthoc.render() == on_disk

    def test_job_dir_is_a_valid_campaign_store(self, service, capsys):
        """``repro campaign report`` renders a service job's directory
        unchanged — the service adds files, never diverges the store."""
        from repro.cli import main

        job_id = service.submit(tiny_spec("interop", starts=4))
        service.wait(job_id, timeout=60)
        record = service._records[job_id]
        assert main(
            ["campaign", "report", str(record.directory),
             "--num-shuffles", str(record.spec.num_shuffles)]
        ) == 0
        printed = capsys.readouterr().out
        assert printed.rstrip("\n") == (
            (record.directory / "report.txt").read_text().rstrip("\n")
        )

    def test_late_subscriber_replays_history(self, service):
        job_id = service.submit(tiny_spec("late"))
        assert service.wait(job_id, timeout=60) == JOB_DONE
        # Subscribe only after the job is fully finished.
        events = list(service.subscribe(job_id, kind="status"))
        assert events[0]["event"] == "status"
        assert events[0]["done"] == events[0]["total"]
        assert events[-1]["event"] == "end"

    def test_subscribe_unknown_kind_rejected(self, service):
        job_id = service.submit(tiny_spec("kinds"))
        with pytest.raises(ValueError):
            next(iter(service.subscribe(job_id, kind="nope")))
        service.wait(job_id, timeout=60)

    def test_hub_wait_and_versions(self):
        hub = SubscriptionHub()
        assert hub.version("j") == 0
        hub.notify("j")
        assert hub.wait("j", seen=0, timeout=0.01) == 1
        assert not hub.finished("j")
        hub.finish("j")
        assert hub.finished("j")
        hub.forget("j")
        assert hub.version("j") == 0

    def test_subscribe_max_waits_bounds_blocking(self, tmp_path):
        """A subscriber to a store that never finishes gives up after
        ``max_waits`` hub waits instead of blocking forever."""
        store = RunStore(tmp_path / "stuck")
        store.initialize({"name": "stuck", "total_trials": 5})
        hub = SubscriptionHub()
        events = list(
            subscribe_job(store, hub, "stuck", kind="status",
                          poll_timeout=0.01, max_waits=3)
        )
        assert all(e["event"] != "end" for e in events)


# ----------------------------------------------------------------------
@pytest.mark.slow
class TestHTTPEndToEnd:
    def test_three_concurrent_submissions(self, tmp_path):
        """The acceptance loop: one server, three clients submitting at
        once, every journal record-identical to its standalone run."""
        specs = {
            "e2e-a": tiny_spec("e2e-a", base_seed=0, starts=4),
            "e2e-b": tiny_spec("e2e-b", base_seed=50, starts=4,
                               engines=("flat-lifo", "flat-clip")),
            "e2e-c": tiny_spec("e2e-c", base_seed=90, starts=3, gen_seed=9),
        }
        service = CampaignService(tmp_path / "svc", workers=2)
        http = ServiceHTTP(service)
        http.start()
        try:
            results = {}

            def submit_and_wait(name, spec):
                client = ServiceClient(http.url)
                job_id = client.submit(spec)
                results[name] = client.wait(job_id)

            threads = [
                threading.Thread(target=submit_and_wait, args=item)
                for item in specs.items()
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert set(results) == set(specs)
            client = ServiceClient(http.url)
            assert len(client.list()) == 3
            for name, status in results.items():
                assert status["status"] == "done", status
                store = RunStore(status["directory"])
                assert outcome_key(store.outcomes()) == standalone_keys(
                    specs[name], tmp_path
                )
        finally:
            http.stop()
            service.close()

    def test_control_plane_over_http(self, tmp_path):
        service = CampaignService(tmp_path / "svc", workers=1)
        http = ServiceHTTP(service)
        http.start()
        try:
            client = ServiceClient(http.url)
            health = client.health()
            assert health["workers"] == 1 and health["jobs"] == 0

            with pytest.raises(ServiceError) as exc:
                client.status("no-such-job")
            assert exc.value.status == 404

            with pytest.raises(ServiceError) as exc:
                client.submit({"name": "bad"})  # no instances/engines
            assert exc.value.status == 400

            job_id = client.submit(tiny_spec("http-ctl", cells=150,
                                             starts=40))
            client.pause(job_id)
            client.resume(job_id)
            final = client.wait(job_id)
            assert final["status"] == "done"
            events = list(client.watch(job_id, kind="bsf"))
            assert events[-1]["event"] == "end"
        finally:
            http.stop()
            service.close()

    def test_cancel_over_http(self, tmp_path):
        service = CampaignService(tmp_path / "svc", workers=1)
        http = ServiceHTTP(service)
        http.start()
        try:
            client = ServiceClient(http.url)
            job_id = client.submit(
                tiny_spec("http-cancel", cells=200, starts=80)
            )
            deadline = time.monotonic() + 60
            while (
                client.status(job_id)["done"] < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            client.cancel(job_id)
            final = client.wait(job_id)
            assert final["status"] == "cancelled"
            assert final["done"] < final["total"]
        finally:
            http.stop()
            service.close()


# ----------------------------------------------------------------------
#: One more status watcher than the threads of asyncio's default
#: executor, on a paused job; then resume and cancel with a 5 s client
#: timeout.  Prints how many watchers saw their stream open, each
#: control call's seconds (None on a timeout) and how many watchers got
#: their ``end`` event.
WATCHERS = """
import json, os, sys, threading, time
sys.path.insert(0, {src!r})
from repro.service import (
    CampaignService, InstanceSource, JobSpec, ServiceClient, ServiceHTTP)

service = CampaignService({directory!r}, workers=1)
http = ServiceHTTP(service)
http.start()
client = ServiceClient(http.url, timeout=5)
job_id = client.submit(JobSpec(
    name="stall", engines=["flat-lifo"], num_starts=400, num_shuffles=10,
    instances=[InstanceSource(kind="generate", label="g", cells=150,
                              seed=3)]))
while client.status(job_id)["done"] < 1:
    time.sleep(0.02)
client.pause(job_id)
n = min(32, os.cpu_count() + 4) + 1
opened, ended = threading.Semaphore(0), []

def watch():
    events = ServiceClient(http.url, timeout=60).watch(job_id)
    next(events)
    opened.release()
    if list(events)[-1]["event"] == "end":
        ended.append(1)

watchers = [threading.Thread(target=watch, daemon=True) for _ in range(n)]
for w in watchers:
    w.start()
seen = sum(opened.acquire(timeout=10) for _ in range(n))

def seconds(call):
    t0 = time.monotonic()
    try:
        call(job_id)
    except OSError:
        return None
    return time.monotonic() - t0

out = {{"watchers": n, "opened": seen, "resume": seconds(client.resume),
        "cancel": seconds(client.cancel)}}
deadline = time.monotonic() + 30
for w in watchers:
    w.join(timeout=max(0.0, deadline - time.monotonic()))
out["ended"] = len(ended)
print(json.dumps(out))
http.stop()
service.close()
"""


class TestHTTPPlane:
    def test_open_streams_leave_the_control_plane_answering(self, tmp_path):
        """Status streams on a paused job each hold a thread; resume and
        cancel must still answer, and every stream then ends.  Run in
        a child process: threads a stuck frontend pins would also keep
        this interpreter from exiting."""
        proc = subprocess.run(
            [sys.executable, "-c",
             WATCHERS.format(src=SRC, directory=str(tmp_path / "svc"))],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert out["opened"] == out["watchers"], out
        assert out["resume"] is not None and out["resume"] < 5, out
        assert out["cancel"] is not None and out["cancel"] < 5, out
        assert out["ended"] == out["watchers"], out

    def test_dropped_stream_leaves_the_service_serving(self, tmp_path,
                                                       capfd):
        service = CampaignService(tmp_path / "svc", workers=1)
        http = ServiceHTTP(service)
        http.start()
        try:
            client = ServiceClient(http.url)
            job_id = client.submit(tiny_spec("drop", cells=150, starts=40))
            events = client.watch(job_id, kind="report")
            assert next(events)["event"] == "report"
            events.close()  # hang up halfway
            assert client.health()["jobs"] == 1
            assert client.wait(job_id)["status"] == JOB_DONE
        finally:
            http.stop()
            service.close()
        assert "Traceback" not in capfd.readouterr().err

    def test_unknown_stream_kind_is_a_bad_request(self, service):
        http = ServiceHTTP(service)
        http.start()
        try:
            client = ServiceClient(http.url)
            job_id = service.submit(tiny_spec("kind"))
            with pytest.raises(ServiceError) as exc:
                list(client.watch(job_id, kind="nope"))
            assert exc.value.status == 400
            service.wait(job_id, timeout=60)
        finally:
            http.stop()

    def test_port_in_use_fails_at_once(self, tmp_path, capsys):
        from repro.cli import main

        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            t0 = time.monotonic()
            assert main(["serve", "--dir", str(tmp_path / "svc"),
                         "--workers", "1", "--port", str(port)]) == 2
            assert time.monotonic() - t0 < 5
        assert "error:" in capsys.readouterr().err

    def test_import_loads_no_asyncio(self):
        code = ("import sys, repro.service; print(sorted(m for m in "
                "sys.modules if m.split('.')[0] == 'asyncio'))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split() == ["[]"]


# ----------------------------------------------------------------------
class TestCLISmoke:
    def test_job_submit_wait_under_budget(self, tmp_path, capsys):
        """CI smoke: `repro job submit --wait` against a live service
        completes a tiny spec well inside a one-minute budget."""
        from repro.cli import main

        service = CampaignService(tmp_path / "svc", workers=2)
        http = ServiceHTTP(service)
        http.start()
        try:
            t0 = time.monotonic()
            code = main([
                "job", "--url", http.url, "submit",
                "--name", "ci-smoke", "--cells", "40", "--gen-seed", "3",
                "--engines", "flat-lifo", "--starts", "3",
                "--num-shuffles", "10", "--wait",
            ])
            elapsed = time.monotonic() - t0
            assert code == 0
            assert elapsed < 60.0
            out = capsys.readouterr().out
            assert "j001-ci-smoke" in out
            assert "done 3/3 trials" in out
            assert "report:" in out
        finally:
            http.stop()
            service.close()

    def test_campaign_resume_finishes_a_service_job(self, tmp_path, capsys):
        """A job directory is a campaign store: ``repro campaign resume``
        rebuilds its campaign from the service spec and finishes it
        under the spec's own policy (sticky caches here)."""
        from repro.cli import main

        spec = tiny_spec("svc-resume", cells=200, starts=4,
                         engines=("ml-lifo",), sticky_cache=True)
        service = CampaignService(tmp_path / "svc", workers=1)
        try:
            job_id = service.submit(spec)
            assert service.wait(job_id, timeout=60) == JOB_DONE
            directory = service._records[job_id].directory
        finally:
            service.close()
        store = RunStore(directory)
        whole = outcome_key(store.outcomes())
        lines = store.journal_path.read_text().splitlines(True)
        store.journal_path.write_text("".join(lines[:2]))
        assert main(["campaign", "resume", str(directory),
                     "--num-shuffles", "10"]) == 0
        assert outcome_key(store.outcomes()) == whole

    def test_job_cli_against_dead_service_fails_cleanly(self, capsys):
        from repro.cli import main

        code = main([
            "job", "--url", "http://127.0.0.1:9", "status", "nope"
        ])
        assert code == 2
        assert "no campaign service" in capsys.readouterr().err

    def test_spec_file_submission(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            tiny_spec("from-file", starts=2).to_json()
        ))
        service = CampaignService(tmp_path / "svc", workers=1)
        http = ServiceHTTP(service)
        http.start()
        try:
            code = main([
                "job", "--url", http.url, "submit",
                "--spec", str(spec_path), "--wait",
            ])
            assert code == 0
            assert "done 2/2 trials" in capsys.readouterr().out
        finally:
            http.stop()
            service.close()

"""Campaign service: supervisor, live streams, HTTP frontend, CLI.

The acceptance bar: live subscriptions must equal post-hoc artifacts
byte for byte (same journal in, same report out), the HTTP plane must
take concurrent submissions, and the whole loop must be drivable from
``repro job`` against a tiny spec inside a CI wall-clock budget.
"""

import json
import threading
import time

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

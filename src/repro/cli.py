"""Command-line interface.

The subcommands mirror a practitioner's workflow::

    python -m repro stats     circuit.hgr
    python -m repro generate  --cells 2000 --seed 7 -o circuit.hgr
    python -m repro partition circuit.hgr --engine ml-clip --tolerance 0.02 \
                              --starts 4 -o circuit.part.2
    python -m repro evaluate  circuit.hgr --starts 10
    python -m repro campaign  run circuit.hgr --starts 20 --workers 4 \
                              --store-dir campaigns --progress
    python -m repro campaign  resume campaigns/campaign
    python -m repro campaign  status campaigns/campaign
    python -m repro campaign  report campaigns/campaign
    python -m repro campaign  report campaigns/campaign --live --follow

``partition`` accepts both hMetis ``.hgr`` and ISPD98 ``.netD`` (with
optional ``--are``) inputs, writes an hMetis-style solution file, and
prints cut / balance / runtime.  ``evaluate`` runs the engine ladder and
prints the traditional table plus the non-dominated frontier — the
Section 3.2 reporting discipline from the shell.  ``campaign`` drives
the :mod:`repro.orchestrate` subsystem: parallel workers, a crash-safe
per-trial journal, resume after a kill, and live progress.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.baselines import WeakFM
from repro.core import FMConfig, FMPartitioner, run_multistart
from repro.core.kway import RecursiveBisection
from repro.hypergraph import (
    Hypergraph,
    hypergraph_stats,
    read_hgr,
    read_netd,
    write_hgr,
)
from repro.hypergraph.io_fix import read_fix
from repro.hypergraph.io_solution import write_solution
from repro.instances import generate_circuit
from repro.multilevel import MLConfig, MLPartitioner

ENGINES = ("flat-lifo", "flat-clip", "ml-lifo", "ml-clip", "weak")


def _load(path: str, are: Optional[str]) -> Hypergraph:
    if path.endswith((".netD", ".netd", ".net")):
        return read_netd(path, are)
    return read_hgr(path)


def _make_engine(engine: str, tolerance: float):
    if engine == "flat-lifo":
        return FMPartitioner(tolerance=tolerance, name="Flat LIFO FM")
    if engine == "flat-clip":
        return FMPartitioner(
            FMConfig(clip=True), tolerance=tolerance, name="Flat CLIP FM"
        )
    if engine == "ml-lifo":
        return MLPartitioner(tolerance=tolerance, name="ML LIFO FM")
    if engine == "ml-clip":
        return MLPartitioner(
            MLConfig(fm_config=FMConfig(clip=True)),
            tolerance=tolerance,
            name="ML CLIP FM",
        )
    if engine == "weak":
        return WeakFM(tolerance=tolerance)
    raise ValueError(f"unknown engine {engine!r}")


# ----------------------------------------------------------------------
def cmd_stats(args: argparse.Namespace) -> int:
    hg = _load(args.input, args.are)
    print(hg)
    print(hypergraph_stats(hg).summary())
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    hg = generate_circuit(
        args.cells, seed=args.seed, unit_areas=args.unit_areas
    )
    write_hgr(hg, args.output)
    print(f"wrote {args.output}: {hg}")
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    hg = _load(args.input, args.are)
    fixed = read_fix(args.fix, hg) if args.fix else None
    if args.k > 2:
        if fixed is not None:
            raise ValueError("--fix is only supported for 2-way partitioning")
        tol = args.tolerance
        rb = RecursiveBisection(
            args.k,
            tolerance=tol,
            partitioner_factory=lambda t: _make_engine(args.engine, t),
        )
        result = rb.partition(hg, seed=args.seed)
        print(
            f"k={args.k} cut={result.cut:g} "
            f"connectivity={result.connectivity:g} "
            f"max_imbalance={result.max_imbalance():.3f} "
            f"time={result.runtime_seconds:.2f}s"
        )
        assignment = result.assignment
    else:
        engine = _make_engine(args.engine, args.tolerance)
        ms = run_multistart(
            engine, hg, args.starts, base_seed=args.seed, fixed_parts=fixed
        )
        assignment = ms.best_assignment
        print(
            f"{engine.name}: best cut {ms.min_cut:g} over {args.starts} "
            f"start(s) (avg {ms.avg_cut:.1f}), "
            f"total time {ms.total_runtime:.2f}s"
        )
    if args.output:
        write_solution(assignment, args.output, hg, k=args.k)
        print(f"wrote {args.output}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.evaluation import (
        frontier_from_records,
        run_trials,
        summary_by_heuristic,
    )

    hg = _load(args.input, args.are)
    engines = [
        _make_engine(name, args.tolerance)
        for name in ("flat-lifo", "flat-clip", "ml-lifo", "ml-clip")
    ]
    records = run_trials(engines, {args.input: hg}, args.starts,
                         base_seed=args.seed)
    print(summary_by_heuristic(records))
    print("\nNon-dominated (avg cut, avg time) frontier:")
    for p in frontier_from_records(records):
        print(f"  {p.label:28s} cost={p.cost:9.1f}  time={p.time:.4f}s")
    return 0


def _campaign_spec(args: argparse.Namespace):
    """Engine-ladder campaign spec shared by ``report`` and
    ``campaign run``."""
    from pathlib import Path

    from repro.evaluation import CampaignSpec

    hg = _load(args.input, args.are)
    engines = [
        _make_engine(name, args.tolerance)
        for name in ("flat-lifo", "flat-clip", "ml-lifo", "ml-clip")
    ]
    return CampaignSpec(
        name=args.name,
        heuristics=engines,
        instances={Path(args.input).name: hg},
        num_starts=args.starts,
        base_seed=args.seed,
    )


def cmd_report(args: argparse.Namespace) -> int:
    """Run a full campaign on one instance and save records + report."""
    from repro.evaluation import run_campaign

    result = run_campaign(_campaign_spec(args))
    out = result.save(args.output_dir, num_shuffles=args.num_shuffles)
    print(result.report(num_shuffles=args.num_shuffles))
    print(f"\nsaved records and report under {out}")
    return 0


# ----------------------------------------------------------------------
def _print_perf_totals(store) -> None:
    """Per-heuristic kernel counters aggregated across all workers
    (``perf.json``, campaign-cumulative across resumes)."""
    totals = store.load_perf()
    if not totals:
        return
    print("\nkernel work by heuristic (all workers):")
    for name, perf in sorted(totals.items()):
        print(f"  {name:28s} {perf.summary()}")


def _spec_from_jobspec_file(path: str):
    """Build the executable CampaignSpec from a declarative JobSpec JSON
    file (the same wire format the service's job API accepts), loading
    every declared instance source."""
    import json
    from pathlib import Path

    from repro.service.spec import JobSpec

    jobspec = JobSpec.from_json(
        json.loads(Path(path).read_text(encoding="utf-8"))
    )
    instances = {src.label: src.load() for src in jobspec.instances}
    return jobspec, jobspec.campaign_spec(instances)


def cmd_campaign_run(args: argparse.Namespace) -> int:
    """Orchestrated campaign: parallel workers + crash-safe journal."""
    from pathlib import Path

    from repro.orchestrate import ProgressPrinter, RunStore, orchestrate_campaign

    if args.spec and args.input:
        print("error: give either an input netlist or --spec, not both",
              file=sys.stderr)
        return 2
    if args.spec:
        _, spec = _spec_from_jobspec_file(args.spec)
        # The spec file is the single source of truth on resume — the
        # ladder flags (--tolerance/--starts/--seed/--name) are unused.
        cli_meta = {"spec_path": str(Path(args.spec).resolve())}
    elif args.input:
        spec = _campaign_spec(args)
        cli_meta = {
            "input": str(Path(args.input).resolve()),
            "are": str(Path(args.are).resolve()) if args.are else None,
            "tolerance": args.tolerance,
        }
    else:
        print("error: need an input netlist or --spec FILE",
              file=sys.stderr)
        return 2
    result = orchestrate_campaign(
        spec,
        store_dir=args.store_dir,
        workers=args.workers,
        timeout_seconds=args.timeout,
        max_retries=args.retries,
        batch_size=args.batch_size,
        sticky_cache=args.sticky_cache,
        sticky_pool_size=args.sticky_pool_size,
        use_shared_memory=not args.no_shared_memory,
        backend=args.backend,
        progress=ProgressPrinter() if args.progress else None,
        resume=args.resume,
        cli_meta=cli_meta,
    )
    print(result.report(num_shuffles=args.num_shuffles))
    out = Path(args.store_dir) / spec.name
    (out / "report.txt").write_text(
        result.report(num_shuffles=args.num_shuffles), encoding="utf-8"
    )
    _print_perf_totals(RunStore(out))
    print(f"\njournal and report under {out}")
    return 0


def cmd_campaign_resume(args: argparse.Namespace) -> int:
    """Finish a killed/crashed campaign; journaled trials never rerun."""
    from pathlib import Path

    from repro.orchestrate import ProgressPrinter, RunStore, orchestrate_campaign

    store = RunStore(args.campaign_dir)
    meta = store.load_meta()
    cli = meta.get("cli")
    if not cli:
        raise ValueError(
            f"{store.meta_path} has no CLI metadata; this store was not "
            "created by `repro campaign run` and cannot be resumed from "
            "the command line"
        )
    if cli.get("spec_path"):
        _, spec = _spec_from_jobspec_file(cli["spec_path"])
    else:
        ns = argparse.Namespace(
            input=cli["input"],
            are=cli.get("are"),
            tolerance=cli.get("tolerance", 0.02),
            name=meta["name"],
            starts=meta["num_starts"],
            seed=meta["base_seed"],
        )
        spec = _campaign_spec(ns)
    result = orchestrate_campaign(
        spec,
        store_dir=Path(args.campaign_dir).parent,
        workers=args.workers,
        timeout_seconds=args.timeout,
        max_retries=args.retries,
        batch_size=args.batch_size,
        sticky_cache=args.sticky_cache,
        sticky_pool_size=args.sticky_pool_size,
        use_shared_memory=not args.no_shared_memory,
        backend=args.backend,
        progress=ProgressPrinter() if args.progress else None,
        resume=True,
    )
    print(result.report(num_shuffles=args.num_shuffles))
    (Path(args.campaign_dir) / "report.txt").write_text(
        result.report(num_shuffles=args.num_shuffles), encoding="utf-8"
    )
    _print_perf_totals(store)
    print(f"\njournal and report under {args.campaign_dir}")
    return 0


def cmd_campaign_status(args: argparse.Namespace) -> int:
    """Print journal progress of a (possibly running) campaign.

    The journal is read through the streaming
    :class:`~repro.evaluation.streaming.JournalTail`, so one invocation
    parses it exactly once, and ``--watch`` re-reads only the bytes
    appended since the previous check instead of the whole file.
    """
    import time

    from repro.evaluation.streaming import JournalTail
    from repro.orchestrate import RunStore

    store = RunStore(args.campaign_dir)
    meta = store.load_meta()
    tail = JournalTail(store)
    total = int(meta.get("total_trials", 0))

    def render() -> int:
        tail.poll()
        outcomes = tail.outcomes()
        done = len(outcomes)
        ok = sum(1 for o in outcomes if o.ok)
        print(f"campaign:  {meta['name']}")
        print(f"spec hash: {meta['spec_hash']}")
        print(
            f"trials:    {done}/{total or done} journaled "
            f"({ok} ok, {done - ok} errors, "
            f"{max(total - done, 0)} remaining)"
        )
        best = {}
        for o in outcomes:
            if o.ok and (o.instance not in best or o.cut < best[o.instance]):
                best[o.instance] = o.cut
        for inst, cut in sorted(best.items()):
            print(f"best cut:  {inst} = {cut:g}")
        for o in outcomes:
            if o.ok:
                continue
            first_line = (o.error or "").splitlines()[-1] if o.error else "?"
            print(
                f"error:     trial {o.trial} ({o.heuristic} on "
                f"{o.instance}, seed {o.seed}, {o.attempts} "
                f"attempt(s)): {first_line}"
            )
        return done

    done = render()
    while args.watch and done < total:
        time.sleep(args.interval)
        print()
        done = render()
    return 0


def cmd_campaign_report(args: argparse.Namespace) -> int:
    """Render the full Section 3.2 report from a campaign journal.

    ``--live`` renders from whatever trials have been journaled so far
    (a partially-written journal of a still-running campaign is fine;
    progress goes to stderr, the report to stdout).  ``--follow`` keeps
    tailing the journal, re-reporting progress as outcomes land, until
    every planned trial is journaled — the final report is identical to
    a post-hoc ``repro campaign report`` of the finished journal.
    """
    from repro.evaluation import CampaignResult
    from repro.orchestrate import RunStore

    store = RunStore(args.campaign_dir)
    if args.live or args.follow:
        from repro.evaluation.streaming import ReportBuilder, follow_report

        builder = ReportBuilder(store, num_shuffles=args.num_shuffles)
        if args.follow:
            text = follow_report(builder, interval=args.interval)
        else:
            builder.refresh()
            print(builder.status_line(), file=sys.stderr)
            text = builder.render()
        print(text)
    else:
        meta = store.load_meta()
        result = CampaignResult(
            spec_name=meta["name"],
            records=store.records(),
            alpha=meta.get("alpha", 0.05),
        )
        text = result.report(num_shuffles=args.num_shuffles)
        print(text)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text, encoding="utf-8")
        print(f"\nwrote {args.output}")
    return 0


# ----------------------------------------------------------------------
def cmd_serve(args: argparse.Namespace) -> int:
    """Run the persistent campaign service until interrupted."""
    import time

    from repro.service import CampaignService, ServiceHTTP

    service = CampaignService(
        args.dir,
        workers=args.workers,
        cache_capacity=args.cache_capacity,
        use_shared_memory=not args.no_shared_memory,
    )
    recovered = service.recover()
    for job_id in recovered:
        print(f"recovered {job_id}", file=sys.stderr)
    http = ServiceHTTP(service, host=args.host, port=args.port)
    http.start()
    print(f"serving on {http.url} (jobs under {args.dir}/jobs)",
          file=sys.stderr)
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        http.stop()
        service.close()
    return 0


def _job_spec_from_args(args: argparse.Namespace):
    """A JobSpec from ``repro job submit`` flags: either ``--spec FILE``
    (the JSON wire form) or the inline single-instance shorthand."""
    import json as _json

    from repro.service import InstanceSource, JobSpec

    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as f:
            return JobSpec.from_json(_json.load(f))
    if args.input:
        label = args.label or args.input.rsplit("/", 1)[-1].split(".")[0]
        source = InstanceSource(
            kind="file", label=label, path=args.input, are=args.are
        )
    elif args.suite:
        source = InstanceSource(
            kind="suite", label=args.label or args.suite,
            suite=args.suite, scale=args.scale,
        )
    elif args.cells:
        source = InstanceSource(
            kind="generate", label=args.label or f"gen{args.cells}",
            cells=args.cells, seed=args.gen_seed,
        )
    else:
        raise ValueError(
            "job submit needs --spec, --input, --suite or --cells"
        )
    return JobSpec(
        name=args.name,
        instances=[source],
        engines=args.engines.split(","),
        num_starts=args.starts,
        base_seed=args.seed,
        tolerance=args.tolerance,
        num_shuffles=args.num_shuffles,
        priority=args.priority,
        timeout_seconds=args.timeout,
        max_retries=args.retries,
        backend=args.backend,
    )


def _print_job_status(status: dict) -> None:
    line = (
        f"{status['job_id']}: {status['status']} "
        f"{status['done']}/{status['total']} trials "
        f"({status['ok']} ok, {status['errors']} errors, "
        f"priority {status['priority']})"
    )
    best = status.get("best") or {}
    if best:
        cuts = ", ".join(f"{k}={best[k]:g}" for k in sorted(best))
        line += f" best[{cuts}]"
    print(line)


def _watch_job(client, job_id: str, kind: str) -> None:
    for event in client.watch(job_id, kind=kind):
        name = event.get("event")
        if name == "status":
            print(
                f"[live] {job_id}: {event['done']}/{event['total']} "
                f"trials ({event['ok']} ok, {event['errors']} errors)"
            )
        elif name == "bsf":
            print(
                f"[bsf] {job_id}: trial {event['trial']} "
                f"{event['heuristic']} on {event['instance']} "
                f"cut {event['cut']:g}"
            )
        elif name == "report":
            print(event["report"])
        elif name == "end":
            print(f"[live] {job_id}: finished "
                  f"({event['done']}/{event['total']} trials journaled)")
            return


def cmd_job(args: argparse.Namespace) -> int:
    """Dispatch ``repro job <action>`` against a running service."""
    from repro.service import ServiceClient
    from repro.service.client import ServiceError

    client = ServiceClient(args.url)
    try:
        if args.job_command == "submit":
            spec = _job_spec_from_args(args)
            job_id = client.submit(spec)
            print(job_id)
            if args.wait:
                _watch_job(client, job_id, "status")
                status = client.status(job_id)
                _print_job_status(status)
                if status.get("report_path"):
                    print(f"report: {status['report_path']}")
                return 0 if status["status"] == "done" else 1
        elif args.job_command == "status":
            _print_job_status(client.status(args.job_id))
        elif args.job_command == "list":
            jobs = client.list()
            if not jobs:
                print("no jobs")
            for status in jobs:
                _print_job_status(status)
        elif args.job_command == "cancel":
            client.cancel(args.job_id)
            print(f"cancelled {args.job_id}")
        elif args.job_command == "pause":
            client.pause(args.job_id)
            print(f"paused {args.job_id}")
        elif args.job_command == "resume":
            client.resume(args.job_id)
            print(f"resumed {args.job_id}")
        elif args.job_command == "watch":
            _watch_job(client, args.job_id, args.kind)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConnectionRefusedError:
        print(
            f"error: no campaign service at {args.url} "
            "(start one with `repro serve`)",
            file=sys.stderr,
        )
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FM-based hypergraph partitioning for VLSI CAD "
        "(DAC 1999 methodology reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="print instance statistics")
    p.add_argument("input")
    p.add_argument("--are", help=".are area file for .netD inputs")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("generate", help="generate a synthetic netlist")
    p.add_argument("--cells", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--unit-areas", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("partition", help="partition a netlist")
    p.add_argument("input")
    p.add_argument("--are", help=".are area file for .netD inputs")
    p.add_argument("--engine", choices=ENGINES, default="ml-lifo")
    p.add_argument("--tolerance", type=float, default=0.02)
    p.add_argument("--starts", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--fix", help="hMetis .fix file of fixed vertices")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser(
        "evaluate", help="compare the engine ladder on one instance"
    )
    p.add_argument("input")
    p.add_argument("--are")
    p.add_argument("--tolerance", type=float, default=0.02)
    p.add_argument("--starts", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "report",
        help="run a recorded campaign and save the full Section 3.2 report",
    )
    p.add_argument("input")
    p.add_argument("--are")
    p.add_argument("--name", default="campaign")
    p.add_argument("--tolerance", type=float, default=0.02)
    p.add_argument("--starts", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--num-shuffles", type=int, default=100)
    p.add_argument("--output-dir", default="campaigns")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "campaign",
        help="orchestrated campaigns: parallel, journaled, resumable",
    )
    csub = p.add_subparsers(dest="campaign_command", required=True)

    def add_dispatch_flags(c: argparse.ArgumentParser) -> None:
        """Pool dispatch knobs shared by ``run`` and ``resume``; none of
        them changes any record, only where the time goes."""
        c.add_argument(
            "--batch-size", type=int, default=None,
            help="trials per worker dispatch (default: adaptive from "
            "observed trial runtime)",
        )
        c.add_argument(
            "--sticky-cache", action="store_true",
            help="keep per-worker hierarchy pools so consecutive trials "
            "on one instance reuse coarsening (multilevel engines)",
        )
        c.add_argument(
            "--sticky-pool-size", type=int, default=2,
            help="hierarchies per sticky pool (default 2)",
        )
        c.add_argument(
            "--no-shared-memory", action="store_true",
            help="ship instances to workers by pickling instead of the "
            "shared-memory plane",
        )
        c.add_argument(
            "--backend", default=None,
            help="kernel backend for every trial (numpy, cnative, "
            "or auto = cnative); backends are selectable only when "
            "bit-identical, so records never change — an unavailable "
            "or unknown backend falls back to numpy with the reason "
            "recorded",
        )

    c = csub.add_parser("run", help="run a campaign through the orchestrator")
    c.add_argument("input", nargs="?",
                   help="netlist file for an engine-ladder campaign "
                   "(omit when using --spec)")
    c.add_argument(
        "--spec",
        help="declarative JobSpec JSON (the service job wire format): "
        "instance sources + engines and/or k-way / terminal-propagation "
        "scenarios; supersedes the ladder flags",
    )
    c.add_argument("--are", help=".are area file for .netD inputs")
    c.add_argument("--name", default="campaign")
    c.add_argument("--tolerance", type=float, default=0.02)
    c.add_argument("--starts", type=int, default=10)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--workers", type=int, default=1)
    c.add_argument(
        "--timeout", type=float, default=None,
        help="per-trial wall-clock timeout in seconds",
    )
    c.add_argument(
        "--retries", type=int, default=0,
        help="extra attempts per trial after a failure",
    )
    c.add_argument("--store-dir", default="campaigns")
    c.add_argument("--num-shuffles", type=int, default=100)
    c.add_argument(
        "--resume", action="store_true",
        help="continue an existing journal instead of refusing",
    )
    c.add_argument(
        "--progress", action="store_true",
        help="stream live progress events to stderr",
    )
    add_dispatch_flags(c)
    c.set_defaults(func=cmd_campaign_run)

    c = csub.add_parser(
        "resume", help="finish a killed campaign from its journal"
    )
    c.add_argument("campaign_dir")
    c.add_argument("--workers", type=int, default=1)
    c.add_argument("--timeout", type=float, default=None)
    c.add_argument("--retries", type=int, default=0)
    c.add_argument("--num-shuffles", type=int, default=100)
    c.add_argument("--progress", action="store_true")
    add_dispatch_flags(c)
    c.set_defaults(func=cmd_campaign_resume)

    c = csub.add_parser("status", help="print journal progress")
    c.add_argument("campaign_dir")
    c.add_argument(
        "--watch", action="store_true",
        help="keep printing status (incremental journal reads) until "
        "every planned trial is journaled",
    )
    c.add_argument(
        "--interval", type=float, default=2.0,
        help="poll interval in seconds for --watch (default 2)",
    )
    c.set_defaults(func=cmd_campaign_status)

    c = csub.add_parser(
        "report", help="render the report from a campaign journal "
        "(post-hoc, or live while the campaign is still running)"
    )
    c.add_argument("campaign_dir")
    c.add_argument("--num-shuffles", type=int, default=100)
    c.add_argument(
        "--live", action="store_true",
        help="render from the trials journaled so far, even mid-campaign",
    )
    c.add_argument(
        "--follow", action="store_true",
        help="keep tailing the journal until every planned trial lands, "
        "then render the final report (implies --live)",
    )
    c.add_argument(
        "--interval", type=float, default=2.0,
        help="poll interval in seconds for --follow (default 2)",
    )
    c.add_argument("-o", "--output")
    c.set_defaults(func=cmd_campaign_report)

    p = sub.add_parser(
        "serve",
        help="run the persistent campaign service (HTTP job API)",
    )
    p.add_argument("--dir", default="service",
                   help="service state directory (default ./service)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8337)
    p.add_argument("--workers", type=int, default=2,
                   help="shared fleet size (default 2)")
    p.add_argument("--cache-capacity", type=int, default=8,
                   help="instances kept hot in the cross-campaign cache")
    p.add_argument("--no-shared-memory", action="store_true",
                   help="ship instances to workers by pickling instead "
                   "of the shared-memory plane")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "job", help="submit to / inspect a running campaign service"
    )
    p.add_argument("--url", default="http://127.0.0.1:8337",
                   help="service endpoint (default http://127.0.0.1:8337)")
    jsub = p.add_subparsers(dest="job_command", required=True)

    j = jsub.add_parser("submit", help="submit a campaign job")
    j.add_argument("--spec", help="JobSpec JSON file (overrides all "
                   "inline instance/engine flags)")
    j.add_argument("--name", default="job")
    j.add_argument("--input", help="netlist file (.hgr / .netD)")
    j.add_argument("--are", help=".are area file for .netD inputs")
    j.add_argument("--suite", help="synthetic suite instance name")
    j.add_argument("--scale", type=int, default=16,
                   help="suite instance scale (default 16)")
    j.add_argument("--cells", type=int, default=0,
                   help="generate a synthetic netlist with this many cells")
    j.add_argument("--gen-seed", type=int, default=0,
                   help="generator seed for --cells")
    j.add_argument("--label", help="instance label in the campaign")
    j.add_argument("--engines", default="flat-lifo,ml-clip",
                   help="comma-separated engine ladder subset")
    j.add_argument("--starts", type=int, default=10)
    j.add_argument("--seed", type=int, default=0)
    j.add_argument("--tolerance", type=float, default=0.02)
    j.add_argument("--num-shuffles", type=int, default=100)
    j.add_argument("--priority", type=int, default=1,
                   help="fair-share weight relative to other jobs")
    j.add_argument("--timeout", type=float, default=None,
                   help="per-trial wall-clock timeout in seconds")
    j.add_argument("--retries", type=int, default=0)
    j.add_argument("--backend", default=None,
                   help="kernel backend for this job's trials (numpy, "
                   "cnative, auto = cnative); selectable only when "
                   "bit-identical, so records never change")
    j.add_argument("--wait", action="store_true",
                   help="follow the job and exit when it finishes")

    jsub.add_parser("list", help="list all jobs")
    for action in ("status", "cancel", "pause", "resume"):
        a = jsub.add_parser(action, help=f"{action} one job")
        a.add_argument("job_id")
    w = jsub.add_parser("watch", help="follow a job's live event stream")
    w.add_argument("job_id")
    w.add_argument("--kind", choices=("status", "bsf", "report"),
                   default="status")
    p.set_defaults(func=cmd_job)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

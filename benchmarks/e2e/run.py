#!/usr/bin/env python3
"""End-to-end benchmark: paper-scale workloads, pinned outputs and an
outside-in layer trace.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload W|all] [--seed S]
        [--seconds T] [--trace [0|1]] [--out RUNS.jsonl]
    python3 benchmarks/e2e/run.py compare A.jsonl B.jsonl

Each workload runs in a fresh worker process (``run.py worker``).  The
launcher (this process) first writes the hash-pinned suite instances as
``.hgr`` files and compiles the cnative kernels, so neither is charged
to any metric.  It then runs the worker once for the measured ops, with
set-up-only worker starts before and after it, checks that each worker
left no process, shared-memory segment or temporary file behind, and
compares the ops' outputs with ``pins.json`` at the default seed.  The
last line of standard output is one JSON object; the exit code is
non-zero when any output is wrong.  See README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "e2e"
PINS = HERE / "pins.json"
SPEC = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 0
#: Each workload's workers are killed this many seconds after the
#: workload (the first one: the command) started.
RUN_DEADLINE_S = 170.0
#: Set-up-only worker starts per untraced run, half before and half
#: after the measured worker; set-up time drifts with the machine's load
#: over seconds, so samples taken apart agree better.
SETUP_PROBES = 4
SHM_DIR = Path("/dev/shm")


def _die(message: str) -> int:
    print(f"run.py: {message}", file=sys.stderr)
    return 2


# ----------------------------------------------------------------------
# Worker side: one workload in a fresh process.
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident set (``VmHWM``) of this process.  ``ru_maxrss``
    would not do: it survives ``exec`` and so reports the launcher's
    memory at spawn time when that is larger.  Pools the program spawns
    are left out: how they divide the trials, and so their memory,
    changes from run to run."""
    status = Path("/proc/self/status").read_text()
    kb = next(int(line.split()[1]) for line in status.splitlines()
              if line.startswith("VmHWM:"))
    return kb / 1024.0


def _run_timed(workload, seconds: float, out: dict) -> None:
    """Batches until the next one, as long as the mean batch so far,
    would end past ``seconds``; at least ``workload.min_batches``."""
    ops, batches = out["ops"], 0
    t_start = time.perf_counter()
    gen = workload.batches()
    for batch in gen:
        ops.extend(op.as_dict() for op in batch)
        batches += 1
        if batches == workload.min_batches:
            out["peak_rss_mb"] = peak_rss_mb()
        elapsed = time.perf_counter() - t_start
        if (batches >= workload.min_batches
                and elapsed * (batches + 1) / batches > seconds):
            break
    gen.close()
    out["measured_s"] = time.perf_counter() - t_start


def _run_traced(workload, out: dict, trace_out: str) -> None:
    """Each batch untraced, traced, then untraced again, so slow drifts
    of the machine cancel: the overhead is the traced time over the mean
    of the untraced ones."""
    from spans import Tracer, patched
    from workloads import layer_metrics

    def batch(index, tracer=None):
        gen = workload.batches(tracer, first=index)
        ops = next(gen)
        gen.close()
        out["ops"].extend(op.as_dict() for op in ops)
        return ops

    tracer = Tracer()
    before, traced, after, missing = [], [], [], []
    for index in range(workload.trace_batches):
        before += batch(index)
        with patched(tracer) as missing:
            traced += batch(index, tracer)
        after += batch(index)
    layers = layer_metrics(workload, traced, tracer.spans)
    untraced = (sum(o.seconds for o in before)
                + sum(o.seconds for o in after)) / 2
    layers["trace.overhead_frac"] = (
        sum(o.seconds for o in traced) / untraced - 1.0)
    out["layers"] = layers
    out["missing_targets"] = missing
    with open(trace_out, "a", encoding="utf-8") as f:
        for span in tracer.spans:
            f.write(json.dumps(dict(span, workload=workload.name),
                               sort_keys=True) + "\n")


def worker_main(argv) -> int:
    p = argparse.ArgumentParser(prog="run.py worker")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--context", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace-out")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, WorkloadError

    ctx = json.loads(Path(args.context).read_text())
    workload = WORKLOADS[args.workload](
        args.seed, ctx["paths"], ctx["sizes"], ctx["workdir"])
    out = {"ops": [], "errors": []}
    try:
        workload.setup()
        out["setup_s"] = time.time() - args.t0
        if not args.setup_only:
            if args.trace:
                _run_traced(workload, out, args.trace_out)
            else:
                _run_timed(workload, args.seconds, out)
    except WorkloadError as exc:
        out["errors"].append(str(exc))
    except Exception:  # noqa: BLE001 - a failed op is reported, not raised
        out["errors"].append(traceback.format_exc(limit=6))
    finally:
        try:
            workload.close()
        except Exception:  # noqa: BLE001
            out["errors"].append(traceback.format_exc(limit=6))
        Path(args.result).write_text(json.dumps(out), encoding="utf-8")
    return 0


# ----------------------------------------------------------------------
# Launcher side.
# ----------------------------------------------------------------------
def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_inputs(names, directory: Path, pins: dict, update: bool):
    """Write each needed suite instance as .hgr; returns (paths, sizes,
    mismatches against the pinned hash and size)."""
    from repro.hypergraph.io_hmetis import write_hgr
    from repro.instances.suite import suite_instance
    from workloads import WORKLOADS, input_key

    needed = sorted({pair for n in names for pair in WORKLOADS[n].inputs})
    paths, sizes, mismatches = {}, {}, {}
    for suite, scale in needed:
        key = input_key(suite, scale)
        hg = suite_instance(suite, scale=scale)
        path = directory / f"{suite}-scale{scale}.hgr"
        write_hgr(hg, path)
        got = {"sha256": _sha256(path), "vertices": hg.num_vertices,
               "nets": hg.num_nets, "pins": hg.num_pins}
        paths[key] = str(path)
        sizes[key] = {k: got[k] for k in ("vertices", "nets", "pins")}
        if update:
            pins.setdefault("inputs", {})[key] = got
        elif pins.get("inputs", {}).get(key) != got:
            mismatches[key] = (f"input {key} is {got}, pinned "
                               f"{pins.get('inputs', {}).get(key)}")
        del hg
    suite_instance.cache_clear()
    gc.collect()
    return paths, sizes, mismatches


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def spawn_worker(name, args, ctx: dict, deadline: float,
                 setup_only: bool = False) -> dict:
    """Run one worker process; returns its result plus any leak found."""
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=BUILD))
    ctx_path = work.with_suffix(".ctx.json")
    result_path = work.with_suffix(".result.json")
    ctx_path.write_text(json.dumps(dict(ctx, workdir=str(work))))
    shm_before = set(os.listdir(SHM_DIR)) if SHM_DIR.is_dir() else set()
    cmd = [sys.executable, str(HERE / "run.py"), "worker",
           "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--context", str(ctx_path), "--result", str(result_path),
           "--trace-out", str(BUILD / "trace.jsonl")]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, TMPDIR=str(work))
    t0 = time.time()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], env=env,
                            stdout=sys.stderr, start_new_session=True)
    leaks = []
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        leaks.append(f"worker exceeded the {RUN_DEADLINE_S:.0f} s deadline")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    grace = time.monotonic() + 5.0
    while _group_alive(proc.pid) and time.monotonic() < grace:
        time.sleep(0.05)
    if _group_alive(proc.pid):
        leaks.append("worker left processes running")
        os.killpg(proc.pid, signal.SIGKILL)
    if SHM_DIR.is_dir():
        left = sorted(set(os.listdir(SHM_DIR)) - shm_before)
        if left:
            leaks.append(f"shared-memory segments left: {left}")
    left = sorted(p.name for p in work.iterdir())
    if left:
        leaks.append(f"temporary files left: {left}")
    shutil.rmtree(work, ignore_errors=True)
    ctx_path.unlink()
    if result_path.exists():
        result = json.loads(result_path.read_text())
        result_path.unlink()
    else:
        result = {"ops": [], "errors": [f"worker exited {proc.returncode} "
                                         "without a result"]}
    result["errors"] = result.get("errors", []) + leaks
    return result


def check_pins(ops, expected: dict) -> None:
    """Mark every op whose output differs from its pinned value."""
    for op in ops:
        want = expected.get(op["key"])
        if want is not None and want != op["observed"]:
            op["errors"].append(f"{op['key']}: output {op['observed']}, "
                                f"pinned {want}")


def run_workload(name, args, ctx, pins, input_errors, spec,
                 started: float) -> dict:
    deadline = started + RUN_DEADLINE_S
    errors = list(input_errors)  # failures not tied to one op
    setups = []

    def collect(result):
        errors.extend(result["errors"])
        if "setup_s" in result:
            setups.append(result["setup_s"])
        return result

    probes = 0 if args.trace else SETUP_PROBES
    for _ in range(probes // 2):
        collect(spawn_worker(name, args, ctx, deadline, setup_only=True))
    result = collect(spawn_worker(name, args, ctx, deadline))
    for _ in range(probes - probes // 2):
        collect(spawn_worker(name, args, ctx, deadline, setup_only=True))
    ops = result["ops"]
    if not ops and not errors:
        errors.append("no op ran")

    expected = pins.get("outputs", {}).get(str(args.seed), {}).get(name)
    if args.write_pins:
        pins.setdefault("outputs", {}).setdefault(str(args.seed), {})[
            name] = {op["key"]: op["observed"] for op in ops
                     if not op["errors"]}
    elif expected:
        check_pins(ops, expected)
    elif args.seed == DEFAULT_SEED:
        errors.append(f"no pinned outputs for {name} at seed {args.seed}")
    bad = [op for op in ops if op["errors"]]
    attempted = len(ops) + len(errors)
    failed = len(bad) + len(errors)
    errors += [e for op in bad for e in op["errors"]]

    if args.trace:
        layers = result.get("layers", {})
        metrics = {m["name"]: {"value": layers.get(m["name"]),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        # The mean, not the median, of the ops: the machine's speed
        # switches for seconds at a time, and a mean over the whole run
        # averages those stretches where a median of short ops jumps
        # between them.
        values = {
            "op_s": statistics.fmean(op["seconds"] for op in ops)
            if ops else None,
            "setup_s": statistics.median(setups) if setups else None,
            "peak_rss_mb": result.get("peak_rss_mb"),
        }
        metrics = {m["name"]: {"value": values.get(m["name"]),
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "metrics": metrics,
        "setup_samples": setups,
        "ops": [{k: op[k] for k in ("key", "seconds", "observed")}
                for op in ops],
        "measured_s": result.get("measured_s"),
        "missing_targets": result.get("missing_targets", []),
        "backend_status": ctx["backend_status"],
        "errors": errors,
    }


def _print_run(record: dict) -> None:
    print(f"{record['workload']} seed={record['seed']} "
          f"trace={record['trace']}: {record['failed']}/"
          f"{record['attempted']} failed, {len(record['ops'])} ops")
    samples = {"op_s": f"mean of {len(record['ops'])}",
               "setup_s": f"median of {len(record['setup_samples'])}"}
    for name, m in record["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        count = f"  {samples[name]}" if name in samples else ""
        print(f"  {name:32s} {value:>14s} {m['unit']}{count}")
    for error in record["errors"]:
        print(f"  FAILED: {error.strip().splitlines()[-1]}")


def _final_line(records) -> dict:
    """The one-object summary; with one workload its metrics are named
    as in BENCHMARK.json, with several they are prefixed by workload.
    A layer the run could not observe reads 0 here (null in --out)."""
    metrics = {}
    for r in records:
        for name, m in r["metrics"].items():
            key = name if len(records) == 1 else f"{r['workload']}.{name}"
            value = m["value"] if m["value"] is not None else 0.0
            metrics[key] = {"value": value, "unit": m["unit"]}
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def compare_main(argv) -> int:
    from compare import compare, load_runs, render

    p = argparse.ArgumentParser(prog="run.py compare")
    p.add_argument("parent", help="result set A (run.py --out)")
    p.add_argument("change", help="result set B")
    args = p.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    rows, regressed = compare(load_runs(args.parent),
                              load_runs(args.change), spec["end_to_end"])
    print(render(rows))
    return 1 if regressed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["worker"]:
        return worker_main(argv[1:])
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    from workloads import WORKLOADS, input_key

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1))
    p.add_argument("--out", help="append one JSON line per workload run")
    p.add_argument("--write-pins", action="store_true",
                   help="record this run's inputs and outputs in pins.json "
                   "instead of checking them")
    args = p.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        return _die(f"no program source at {SRC / 'repro'}")
    spec = json.loads(SPEC.read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    # Everything the run writes, temporary files included, stays in the
    # checkout; cnative compiles once into BUILD and workers load it.
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    tempfile.tempdir = None
    os.environ["REPRO_CNATIVE_CACHE"] = str(BUILD / "cnative")
    os.environ.pop("REPRO_BACKEND", None)
    try:
        from repro.backends import backend_status
    except ImportError as exc:
        return _die(f"cannot import the program: {exc}")
    if args.trace:
        (BUILD / "trace.jsonl").write_text("")
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    started = time.monotonic()

    inputs = Path(tempfile.mkdtemp(prefix="inputs-", dir=BUILD))
    try:
        paths, sizes, input_errors = write_inputs(
            names, inputs, pins, args.write_pins)
        status = backend_status()
        ctx = {"paths": paths, "sizes": sizes, "backend_status": status}
        records = []
        for name in names:
            errors = [input_errors[input_key(s, n)]
                      for s, n in WORKLOADS[name].inputs
                      if input_key(s, n) in input_errors]
            records.append(run_workload(name, args, ctx, pins, errors, spec,
                                        started))
            started = time.monotonic()
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    if args.write_pins:
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    if args.out:
        with open(args.out, "a", encoding="utf-8") as f:
            for r in records:
                f.write(json.dumps(r, sort_keys=True) + "\n")
    for r in records:
        _print_run(r)
    summary = _final_line(records)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

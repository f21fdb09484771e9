"""Self-test of the end-to-end benchmark harness (times nothing).

Run with ``python -m pytest benchmarks/e2e -q``; it uses scale-16 suite
instances only.
"""

import statistics
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.core.partitioner import FMPartitioner  # noqa: E402
from repro.instances.suite import suite_instance  # noqa: E402


def _span(sid, parent, start, end, name="x"):
    return {"span_id": sid, "parent_id": parent, "start_s": start,
            "end_s": end, "name": name, "attrs": {}, "trace_id": "t"}


def test_quartiles_are_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    assert list(compare.quartiles(values)) == statistics.quantiles(
        values, n=4)
    assert compare.quartiles(values)[1] == statistics.median(values)
    assert compare.quartiles([7.0]) == (7.0, 7.0, 7.0)
    q1, med, q3 = statistics.quantiles([1, 2, 3, 4, 5], n=4)
    assert compare.spread([1, 2, 3, 4, 5]) == pytest.approx((q3 - q1) / med)


def test_self_time_subtracts_the_union_of_children():
    nested = [
        _span(1, None, 0.0, 10.0, "op"),
        _span(2, 1, 1.0, 4.0, "a"),
        _span(3, 2, 2.0, 3.0, "b"),
        _span(4, 1, 3.5, 6.0, "c"),   # overlaps span 2
        _span(5, 1, 9.0, 12.0, "d"),  # runs past its parent: clipped
    ]
    selfs = spans.self_times(nested)
    # Children of the root cover [1, 6] and [9, 10].
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(3.0)
    by_name = spans.self_by_name(nested)
    assert by_name["op"] == pytest.approx(4.0)


def test_self_times_of_properly_nested_spans_sum_to_the_root():
    tree = [
        _span(1, None, 0.0, 8.0, "op"),
        _span(2, 1, 0.5, 3.0), _span(3, 2, 1.0, 2.0), _span(4, 3, 1.2, 1.9),
        _span(5, 1, 3.0, 7.5), _span(6, 5, 3.0, 7.5),
    ]
    assert sum(spans.self_times(tree).values()) == pytest.approx(8.0)


def test_patched_traces_layers_and_restores_them():
    from repro.core.engine import FMEngine
    from repro.core.partition import Partition2

    before = (vars(Partition2)["fast"], vars(Partition2)["__init__"],
              vars(FMEngine)["refine"])
    hg = suite_instance("ibm01s", scale=16)
    tracer = spans.Tracer()
    with spans.patched(tracer) as missing:
        with tracer.op("k"):
            result = FMPartitioner(tolerance=0.1).partition(hg, seed=1)
    assert missing == []
    assert (vars(Partition2)["fast"], vars(Partition2)["__init__"],
            vars(FMEngine)["refine"]) == before
    names = {s["name"] for s in tracer.spans}
    assert {"op", "core.partition", "core.initial", "core.partition_build",
            "core.refine"} <= names
    assert {s["trace_id"] for s in tracer.spans} == {"k"}
    refine = next(s for s in tracer.spans if s["name"] == "core.refine")
    assert refine["attrs"]["backend"] == "numpy"
    assert refine["attrs"]["passes"] == result.engine_result.passes
    assert refine["attrs"]["pins"] == hg.num_pins
    root = next(s for s in tracer.spans if s["name"] == "op")
    assert sum(spans.self_times(tracer.spans).values()) == pytest.approx(
        root["end_s"] - root["start_s"])
    layers = workloads.span_layers(tracer.spans, "numpy")
    assert layers["core.refine_calls"] == 1
    assert layers["core.backend_mismatches"] == 0
    assert layers["multilevel.match_s"] == 0.0


def test_verdicts():
    a = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(a, a, "lower", 0.1) == compare.WITHIN
    assert compare.verdict(a, [x * 1.2 for x in a], "lower", 0.1) \
        == compare.WORSE
    assert compare.verdict(a, [x * 0.8 for x in a], "lower", 0.1) \
        == compare.BETTER
    assert compare.verdict(a, [x * 1.2 for x in a], "higher", 0.1) \
        == compare.BETTER
    noisy = [5.0, 10.0, 15.0, 20.0]
    assert compare.verdict(a, noisy, "lower", 0.1) == compare.UNRESOLVED
    # A spread wider than the bound still resolves when every run wins.
    assert compare.verdict(noisy, [1.0, 2.0, 3.0, 4.5], "lower", 0.1) \
        == compare.BETTER


def test_compare_flags_regressions_failures_and_missing_metrics():
    spec = [{"name": "op_s", "unit": "s", "better": "lower", "bound": 0.1}]

    def runs(values, failed=0):
        return [{"workload": "w", "trace": 0, "failed": failed,
                 "attempted": 1,
                 "metrics": {"op_s": {"value": v, "unit": "s"}}}
                for v in values]

    parent = runs([1.0, 1.01, 0.99])
    assert compare.compare(parent, parent, spec)[1] is False
    assert compare.compare(parent, runs([1.5, 1.5, 1.5]), spec)[1] is True
    assert compare.compare(parent, runs([1.0] * 3, failed=1), spec)[1]
    rows, regressed = compare.compare(parent, [], spec)
    assert regressed and rows[0][-1] == compare.MISSING


def test_a_tampered_or_illegal_result_is_caught():
    hg = suite_instance("ibm01s", scale=16)
    result = FMPartitioner(tolerance=0.1).partition(hg, seed=3)
    op = workloads.Op("k", 0.0)
    workloads.check_partition(op, hg, result)
    assert op.errors == []

    op = workloads.Op("k", 0.0)
    workloads.check_partition(op, hg, replace(result, cut=result.cut - 1))
    assert any("recounted" in e for e in op.errors)

    op = workloads.Op("k", 0.0)
    lopsided = replace(result, assignment=[0] * hg.num_vertices, cut=0)
    workloads.check_partition(op, hg, lopsided)
    assert any("illegal" in e for e in op.errors)


def test_pinned_outputs_are_compared():
    ops = [{"key": "seed=0", "observed": 100, "errors": []},
           {"key": "seed=1", "observed": 99, "errors": []},
           {"key": "seed=2", "observed": 7, "errors": []}]
    run.check_pins(ops, {"seed=0": 100, "seed=1": 101})
    assert [bool(op["errors"]) for op in ops] == [False, True, False]


def test_journal_checks_and_digest():
    entries = [{"trial": i, "status": "ok", "cut": 10 + i, "legal": True}
               for i in range(4)]
    op = workloads.Op("k", 0.0)
    workloads.check_journal(op, entries, 4)
    assert op.errors == []
    digest = op.observed
    assert workloads.journal_digest(entries[::-1]) == digest
    tampered = [dict(e) for e in entries]
    tampered[2]["cut"] += 1
    assert workloads.journal_digest(tampered) != digest
    tampered[3] = {"trial": 3, "status": "error", "error": "boom"}
    op = workloads.Op("k", 0.0)
    workloads.check_journal(op, tampered, 5)
    assert len(op.errors) == 2

"""``BENCH_e2e.jsonl``, the end-to-end trajectory at the repository root.

Each line is one workload measured for one change: the commit the runs
were made against, a title, the number of alternating parent/change
run pairs, and the medians of the end-to-end metrics on each side
(``change`` is null for a level measured without a change).
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_line_parses_and_names_a_declared_workload():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in declared["workloads"]}
    metrics = {m["name"] for m in declared["end_to_end"]}
    lines = (ROOT / "BENCH_e2e.jsonl").read_text().splitlines()
    assert lines
    for line in lines:
        entry = json.loads(line)
        assert entry.keys() == {"commit", "title", "workload", "pairs",
                                "parent", "change"}
        assert entry["workload"] in workloads
        assert isinstance(entry["pairs"], int) and entry["pairs"] >= 0
        sides = [entry["parent"]] + ([entry["change"]] if entry["pairs"]
                                     else [])
        for medians in sides:
            assert medians.keys() == metrics
            assert all(v is None or v > 0 for v in medians.values())
        if not entry["pairs"]:
            assert entry["change"] is None

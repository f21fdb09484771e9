"""The multilevel path must not start native helper threads.

A float64 dot product of more than about 10k elements runs on OpenBLAS
worker threads, which keep spinning after the call returns.  In a
campaign with one worker per CPU each spinner takes a CPU from another
worker, so every trial runtime measures the contention instead of the
heuristic.  ``Partition2`` therefore sums part weights in int64, which
numpy reduces in its own loop.

The guard runs in a fresh interpreter with every ``*_NUM_THREADS``
variable removed, so a CI setting cannot hide a regression, and it
compares the CPU time of all threads but the main one against the main
thread's.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

CHILD = r"""
import json, sys, time
sys.path.insert(0, {src!r})
from repro.backends import get_backend
from repro.core import Partition2
from repro.instances import suite_instance
from repro.multilevel.mlpart import MLConfig, MLPartitioner

hg = suite_instance("ibm01s", scale=1)
sides = [v % 2 for v in range(hg.num_vertices)]
backend = "cnative" if get_backend("cnative").available else "numpy"
partitioner = MLPartitioner(MLConfig(), tolerance=0.1, backend=backend)

process0, main0 = time.process_time(), time.thread_time()
for _ in range(20):
    Partition2(hg, sides)
    # Python work between builds: the window in which spinning BLAS
    # helpers burn CPU.
    until = time.perf_counter() + 0.005
    while time.perf_counter() < until:
        pass
partitioner.partition(hg, seed=0)
main = time.thread_time() - main0
others = time.process_time() - process0 - main
print(json.dumps({{"vertices": hg.num_vertices, "backend": backend,
                  "main": main, "others": others}}))
"""


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="OpenBLAS starts no helper threads on one CPU",
)
def test_ml_path_runs_on_the_main_thread_only():
    env = {k: v for k, v in os.environ.items()
           if not k.endswith("_NUM_THREADS")}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD.format(src=SRC)],
        capture_output=True, text=True, check=True, env=env,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    # Above the ~10k-element size where OpenBLAS starts threading.
    assert out["vertices"] > 12_000
    assert out["others"] < 0.1 * out["main"], out

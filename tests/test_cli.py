"""Tests for the command-line interface."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.hypergraph import read_solution, write_hgr
from repro.instances import generate_circuit


@pytest.fixture
def hgr_path(tmp_path):
    hg = generate_circuit(120, seed=11)
    path = tmp_path / "c.hgr"
    write_hgr(hg, path)
    return str(path)


class TestStats:
    def test_prints_summary(self, hgr_path, capsys):
        assert main(["stats", hgr_path]) == 0
        out = capsys.readouterr().out
        assert "sparsity" in out
        assert "|V|=120" in out

    def test_missing_file_errors(self, tmp_path, capsys):
        rc = main(["stats", str(tmp_path / "missing.hgr")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestGenerate:
    def test_writes_hgr(self, tmp_path, capsys):
        out = tmp_path / "gen.hgr"
        assert main(
            ["generate", "--cells", "80", "--seed", "3", "-o", str(out)]
        ) == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_unit_areas_flag(self, tmp_path):
        out = tmp_path / "gen.hgr"
        main(["generate", "--cells", "80", "--unit-areas", "-o", str(out)])
        from repro.hypergraph import read_hgr

        hg = read_hgr(out)
        assert all(hg.vertex_weight(v) == 1.0 for v in hg.vertices())


class TestPartition:
    def test_bisection_writes_solution(self, hgr_path, tmp_path, capsys):
        sol = tmp_path / "c.part.2"
        rc = main(
            [
                "partition", hgr_path,
                "--engine", "flat-lifo",
                "--tolerance", "0.1",
                "--starts", "2",
                "-o", str(sol),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "best cut" in out
        from repro.hypergraph import read_hgr

        hg = read_hgr(hgr_path)
        assignment = read_solution(sol, hg)
        assert set(assignment) <= {0, 1}

    @pytest.mark.parametrize("engine", ["flat-clip", "ml-lifo", "ml-clip", "weak"])
    def test_all_engines(self, hgr_path, engine):
        assert main(
            ["partition", hgr_path, "--engine", engine, "--tolerance", "0.1"]
        ) == 0

    def test_kway(self, hgr_path, tmp_path, capsys):
        sol = tmp_path / "c.part.4"
        rc = main(
            [
                "partition", hgr_path,
                "--k", "4",
                "--tolerance", "0.2",
                "-o", str(sol),
            ]
        )
        assert rc == 0
        assert "k=4" in capsys.readouterr().out
        assignment = read_solution(sol)
        assert set(assignment) == {0, 1, 2, 3}


class TestEvaluate:
    def test_prints_table_and_frontier(self, hgr_path, capsys):
        rc = main(
            ["evaluate", hgr_path, "--starts", "2", "--tolerance", "0.1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "min/avg cut" in out
        assert "frontier" in out
        assert "ML LIFO FM" in out


class TestSolutionIO:
    def test_round_trip(self, tmp_path):
        from repro.hypergraph import write_solution

        hg = generate_circuit(30, seed=2)
        assignment = [v % 3 for v in range(30)]
        path = tmp_path / "s.part"
        write_solution(assignment, path, hg, k=3)
        assert read_solution(path, hg) == assignment
        text = path.read_text()
        assert "% cut" in text
        assert "% part_weights" in text

    def test_length_validation(self, tmp_path):
        from repro.hypergraph import write_solution

        hg = generate_circuit(30, seed=2)
        path = tmp_path / "s.part"
        write_solution([0, 1], path)
        with pytest.raises(ValueError):
            read_solution(path, hg)

    def test_negative_part_rejected(self, tmp_path):
        path = tmp_path / "s.part"
        path.write_text("0\n-1\n")
        with pytest.raises(ValueError):
            read_solution(path)


class TestReport:
    def test_runs_campaign_and_saves(self, hgr_path, tmp_path, capsys):
        rc = main(
            [
                "report", hgr_path,
                "--starts", "3",
                "--tolerance", "0.1",
                "--name", "cli-test",
                "--output-dir", str(tmp_path / "campaigns"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Pairwise significance" in out
        campaign_dir = tmp_path / "campaigns" / "cli-test"
        assert (campaign_dir / "records.jsonl").exists()
        assert (campaign_dir / "report.txt").exists()


class TestCampaignCLI:
    def _run(self, hgr_path, tmp_path, *extra):
        return main(
            [
                "campaign", "run", hgr_path,
                "--starts", "2",
                "--tolerance", "0.1",
                "--name", "cli-orch",
                "--num-shuffles", "20",
                "--store-dir", str(tmp_path / "campaigns"),
                *extra,
            ]
        )

    def test_run_journals_and_reports(self, hgr_path, tmp_path, capsys):
        assert self._run(hgr_path, tmp_path) == 0
        out = capsys.readouterr().out
        assert "Pairwise significance" in out
        campaign_dir = tmp_path / "campaigns" / "cli-orch"
        assert (campaign_dir / "meta.json").exists()
        assert (campaign_dir / "journal.jsonl").exists()
        assert (campaign_dir / "report.txt").exists()

    def test_rerun_refuses_without_resume(self, hgr_path, tmp_path, capsys):
        assert self._run(hgr_path, tmp_path) == 0
        capsys.readouterr()
        assert self._run(hgr_path, tmp_path) == 2
        assert "resume" in capsys.readouterr().err

    def test_status_and_report(self, hgr_path, tmp_path, capsys):
        assert self._run(hgr_path, tmp_path) == 0
        capsys.readouterr()
        campaign_dir = str(tmp_path / "campaigns" / "cli-orch")

        assert main(["campaign", "status", campaign_dir]) == 0
        out = capsys.readouterr().out
        assert "8/8 journaled" in out  # 4 engines x 2 starts
        assert "best cut:" in out

        report_file = tmp_path / "r.txt"
        assert main(
            ["campaign", "report", campaign_dir,
             "--num-shuffles", "20", "-o", str(report_file)]
        ) == 0
        assert "Pairwise significance" in capsys.readouterr().out
        assert report_file.exists()

    def test_resume_refuses_an_edited_jobspec(self, tmp_path, capsys):
        """A 6-start Flat LIFO campaign on ibm01s (scale 16) loses its
        last three journal lines; its JobSpec file is then edited to a
        10% tolerance.  The heuristic keeps its name, so only the run
        fingerprint tells the two experiments apart."""
        import json

        from repro.orchestrate import RunStore

        spec_file = tmp_path / "job.json"
        job = {
            "name": "mixed",
            "instances": [{"kind": "suite", "label": "ibm01s",
                           "suite": "ibm01s", "scale": 16}],
            "engines": ["flat-lifo"],
            "num_starts": 6,
        }
        spec_file.write_text(json.dumps(job))
        store_dir = tmp_path / "campaigns"
        assert main(["campaign", "run", "--spec", str(spec_file),
                     "--num-shuffles", "20",
                     "--store-dir", str(store_dir)]) == 0
        store = RunStore(store_dir / "mixed")
        lines = store.journal_path.read_text().splitlines(True)
        store.journal_path.write_text("".join(lines[:3]))
        spec_file.write_text(json.dumps(dict(job, tolerance=0.1)))
        capsys.readouterr()

        campaign_dir = str(store_dir / "mixed")
        assert main(["campaign", "resume", campaign_dir,
                     "--num-shuffles", "20"]) == 2
        assert "run_hash mismatch" in capsys.readouterr().err
        assert store.status().done == 3
        spec_file.write_text(json.dumps(job))
        assert main(["campaign", "resume", campaign_dir,
                     "--num-shuffles", "20"]) == 0
        assert store.status().done == 6

    def test_spec_runs_under_its_own_policy(self, tmp_path, capsys):
        """ML LIFO on ibm01s (scale 8) at 10% with ``sticky_cache``:
        the spec's sticky stream journals a cut of 40 six times, where
        the non-sticky one has 78 at start 4.  The policy flags are
        refused beside a spec rather than overriding it."""
        import json

        from repro.orchestrate import RunStore, orchestrate_campaign
        from repro.service import JobSpec

        job = {
            "name": "sticky",
            "instances": [{"kind": "suite", "label": "ibm01s",
                           "suite": "ibm01s", "scale": 8}],
            "engines": ["ml-lifo"],
            "num_starts": 6,
            "tolerance": 0.1,
            "sticky_cache": True,
        }
        spec_file = tmp_path / "job.json"
        spec_file.write_text(json.dumps(job))
        run = ["campaign", "run", "--spec", str(spec_file),
               "--num-shuffles", "10",
               "--store-dir", str(tmp_path / "campaigns")]
        assert main(run) == 0
        jobspec = JobSpec.from_json(job)
        instances = {s.label: s.load() for s in jobspec.instances}
        sticky = orchestrate_campaign(jobspec.campaign_spec(instances),
                                      sticky_cache=True)
        store = RunStore(tmp_path / "campaigns" / "sticky")
        assert [o.cut for o in store.outcomes()] == [
            r.cut for r in sticky.records]
        assert store.load_meta()["sticky_pools"] == 2

        capsys.readouterr()
        for flag in (["--sticky-cache"], ["--sticky-pool-size", "2"],
                     ["--timeout", "60"], ["--retries", "1"],
                     ["--backend", "numpy"]):
            assert main(run + ["--resume"] + flag) == 2
            assert flag[0] in capsys.readouterr().err

    def test_resume_refuses_another_sticky_stream(
        self, hgr_path, tmp_path, capsys
    ):
        from repro.orchestrate import RunStore

        assert self._run(hgr_path, tmp_path, "--sticky-cache") == 0
        campaign_dir = str(tmp_path / "campaigns" / "cli-orch")
        store = RunStore(campaign_dir)
        lines = store.journal_path.read_text().splitlines(True)
        store.journal_path.write_text("".join(lines[:3]))
        capsys.readouterr()

        assert main(["campaign", "resume", campaign_dir,
                     "--num-shuffles", "20"]) == 2
        assert "sticky_pools mismatch" in capsys.readouterr().err
        assert store.status().done == 3
        assert main(["campaign", "resume", campaign_dir, "--sticky-cache",
                     "--num-shuffles", "20"]) == 0
        assert store.status().done == 8

    def test_resume_completes_truncated_journal(
        self, hgr_path, tmp_path, capsys
    ):
        from repro.orchestrate import RunStore

        assert self._run(hgr_path, tmp_path) == 0
        capsys.readouterr()
        campaign_dir = tmp_path / "campaigns" / "cli-orch"
        store = RunStore(campaign_dir)
        lines = store.journal_path.read_text().splitlines(True)
        store.journal_path.write_text("".join(lines[:3]))  # "crash"

        assert main(
            ["campaign", "resume", str(campaign_dir),
             "--num-shuffles", "20"]
        ) == 0
        assert "Pairwise significance" in capsys.readouterr().out
        assert store.status().done == 8


class TestLayering:
    """Library code never imports the CLI: the engine ladder lives in
    ``repro.engines`` and the netlist reader in ``repro.hypergraph``."""

    PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"

    def test_no_library_module_imports_the_cli(self):
        offenders = []
        for path in sorted(self.PACKAGE.rglob("*.py")):
            if path.parent == self.PACKAGE and path.name in (
                "cli.py", "__main__.py"
            ):
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [
                        f"{node.module}.{alias.name}" for alias in node.names
                    ]
                else:
                    continue
                if any(n == "repro.cli" or n.startswith("repro.cli.")
                       for n in names):
                    where = path.relative_to(self.PACKAGE)
                    offenders.append(f"{where}:{node.lineno}")
        assert offenders == []

    def test_file_backed_job_runs_without_the_cli(self, hgr_path):
        """A service job's whole path: load a file instance, build the
        ladder engines, run a recursive-bisection scenario trial."""
        code = f"""
import sys
from repro.evaluation import Scenario
from repro.service import InstanceSource, JobSpec
spec = JobSpec(
    name="layers",
    instances=[InstanceSource(kind="file", label="c", path={hgr_path!r})],
    engines=["flat-lifo", "weak"],
    scenarios=[Scenario(kind="kway", k=4)],
    num_starts=1,
)
hg = spec.instances[0].load()
heuristics = spec.campaign_spec({{"c": hg}}).heuristics
assert [h.name for h in heuristics[:2]] == [
    "Flat LIFO FM", "Reported LIFO (weak impl)"]
assert heuristics[2].partition(hg, seed=0).legal
print("repro.cli" in sys.modules)
"""
        src = str(self.PACKAGE.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split() == ["False"]

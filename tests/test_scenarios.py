"""Tests for the scenario layer: declarative k-way and
terminal-propagation campaign workloads.

The load-bearing properties: scenarios round-trip through their JSON
wire form (service job specs carry them), the adapter's reported
objective value is an honest recount of the final assignment, and
scenario campaigns inherit the orchestrator's full determinism
contract — records bit-identical serial vs pool vs batched vs sticky,
journals resumable after a kill.
"""

import json
import pickle
from pathlib import Path

import pytest

from repro.evaluation.campaign import CampaignSpec, run_campaign
from repro.evaluation.scenarios import (
    Scenario,
    ScenarioHeuristic,
    balance_for,
    kway_axes,
)
from repro.instances import suite_instance
from repro.orchestrate import RunStore, orchestrate_campaign
from repro.service.spec import InstanceSource, JobSpec

pytestmark = pytest.mark.kway

EXAMPLE_SPEC = Path(__file__).resolve().parent.parent / "examples" / (
    "kway_campaign.json"
)


@pytest.fixture(scope="module")
def hg():
    return suite_instance("ibm01s", scale=64)


def record_key(records):
    """Timing-free identity of a record stream."""
    return [
        (r.heuristic, r.instance, r.seed, r.cut, r.legal, r.k, r.objective)
        for r in records
    ]


class TestScenario:
    def test_json_round_trip_kway(self):
        sc = Scenario(kind="kway", k=4, objective="connectivity",
                      method="rb", engine="flat-clip", tolerance=0.2)
        assert Scenario.from_json(sc.to_json()) == sc

    def test_json_round_trip_terminal_propagation(self):
        sc = Scenario(kind="terminal-propagation", objective="hpwl",
                      engine="ml-lifo", min_region_cells=8, label="tp")
        assert Scenario.from_json(sc.to_json()) == sc

    def test_terminal_propagation_objective_defaults_to_hpwl(self):
        sc = Scenario.from_json({"kind": "terminal-propagation"})
        assert sc.objective == "hpwl"

    def test_names(self):
        assert (
            Scenario(kind="kway", k=8, objective="connectivity").name
            == "rb-k8-connectivity[flat-lifo]"
        )
        assert (
            Scenario(kind="terminal-propagation", objective="hpwl").name
            == "topdown-tp-hpwl[flat-lifo]"
        )
        assert Scenario(kind="kway", label="mine").name == "mine"

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            Scenario(kind="3d")
        with pytest.raises(ValueError, match="engine"):
            Scenario(kind="kway", engine="magic")
        with pytest.raises(ValueError, match="k must"):
            Scenario(kind="kway", k=1)
        with pytest.raises(ValueError, match="method"):
            Scenario(kind="kway", method="spectral")
        with pytest.raises(ValueError, match="rank"):
            Scenario(kind="kway", objective="hpwl")
        with pytest.raises(ValueError, match="rank"):
            Scenario(kind="terminal-propagation", objective="cut")
        with pytest.raises(ValueError, match="tolerance"):
            Scenario(kind="kway", tolerance=1.5)


class TestScenarioHeuristic:
    def test_kway_connectivity_value_is_honest(self, hg):
        adapter = ScenarioHeuristic(
            Scenario(kind="kway", k=4, objective="connectivity")
        )
        res = adapter.partition(hg, seed=3)
        assert res.cut == hg.connectivity_cut(res.assignment)
        assert set(res.assignment) <= set(range(4))
        assert adapter.k == 4
        assert adapter.objective == "connectivity"

    def test_kway_cut_value_is_honest(self, hg):
        adapter = ScenarioHeuristic(Scenario(kind="kway", k=4))
        res = adapter.partition(hg, seed=3)
        assert res.cut == hg.cut_size(res.assignment)

    def test_kway_legal_matches_balance_window(self, hg):
        sc = Scenario(kind="kway", k=4, objective="connectivity")
        res = ScenarioHeuristic(sc).partition(hg, seed=0)
        balance = balance_for(hg, sc)
        part_weights = [0.0] * 4
        for v, p in enumerate(res.assignment):
            part_weights[p] += hg.vertex_weight(v)
        assert res.legal == balance.is_legal(part_weights)

    def test_direct_method(self, hg):
        adapter = ScenarioHeuristic(
            Scenario(kind="kway", k=3, method="direct",
                     objective="connectivity")
        )
        res = adapter.partition(hg, seed=1)
        assert res.cut == hg.connectivity_cut(res.assignment)

    def test_terminal_propagation(self, hg):
        adapter = ScenarioHeuristic(
            Scenario(kind="terminal-propagation", objective="hpwl")
        )
        res = adapter.partition(hg, seed=0)
        assert res.cut > 0  # HPWL of a real placement
        assert res.legal
        assert len(res.assignment) == hg.num_vertices
        assert set(res.assignment) <= {0, 1}
        # Pure function of (scenario, instance, seed).
        again = adapter.partition(hg, seed=0)
        assert (res.cut, res.assignment) == (again.cut, again.assignment)

    def test_fixed_parts_rejected(self, hg):
        adapter = ScenarioHeuristic(Scenario(kind="kway", k=4))
        with pytest.raises(ValueError, match="fixed"):
            adapter.partition(hg, seed=0,
                              fixed_parts=[0] + [None] * (hg.num_vertices - 1))
        # An all-None vector (what the executor passes by default) is fine.
        adapter.partition(hg, seed=0,
                          fixed_parts=[None] * hg.num_vertices)

    def test_picklable(self):
        adapter = ScenarioHeuristic(
            Scenario(kind="kway", k=8, objective="connectivity")
        )
        clone = pickle.loads(pickle.dumps(adapter))
        assert clone.name == adapter.name
        assert clone.k == 8

    def test_kway_axes(self):
        axes = kway_axes(ks=(2, 4, 8))
        assert [a.k for a in axes] == [2, 4, 8]
        assert all(a.objective == "connectivity" for a in axes)


class TestScenarioCampaignDeterminism:
    @pytest.fixture(scope="class")
    def spec(self, hg):
        heuristics = kway_axes(ks=(2, 4, 8)) + [
            ScenarioHeuristic(
                Scenario(kind="terminal-propagation", objective="hpwl")
            )
        ]
        return CampaignSpec(
            name="scen",
            heuristics=heuristics,
            instances={"ibm01s": hg},
            num_starts=2,
            base_seed=11,
        )

    @pytest.fixture(scope="class")
    def serial_records(self, spec):
        return run_campaign(spec).records

    def test_records_stamped(self, serial_records):
        # Every k's outcome lands inside its balance window (the legal
        # flag is that check; see test_kway_legal_matches_balance_window).
        assert all(r.legal for r in serial_records)
        by_heuristic = {r.heuristic: r for r in serial_records}
        assert by_heuristic["rb-k4-connectivity[flat-lifo]"].k == 4
        assert (
            by_heuristic["rb-k4-connectivity[flat-lifo]"].objective
            == "connectivity"
        )
        assert by_heuristic["topdown-tp-hpwl[flat-lifo]"].objective == "hpwl"

    def test_pool_matches_serial(self, spec, serial_records):
        pooled = run_campaign(spec, workers=2).records
        assert record_key(pooled) == record_key(serial_records)

    def test_batched_matches_serial(self, spec, serial_records, tmp_path):
        batched = orchestrate_campaign(
            spec, store_dir=tmp_path, workers=2, batch_size=1
        ).records
        assert record_key(batched) == record_key(serial_records)

    def test_sticky_matches_serial(self, spec, serial_records, tmp_path):
        out = orchestrate_campaign(
            spec,
            store_dir=tmp_path,
            workers=2,
            sticky_cache=True,
        ).records
        assert record_key(out) == record_key(serial_records)

    def test_kill_and_resume_is_journal_identical(self, spec, serial_records,
                                                  tmp_path):
        full = orchestrate_campaign(spec, store_dir=tmp_path, workers=1)
        store = RunStore(tmp_path / "scen")
        lines = store.journal_path.read_text().splitlines(True)
        store.journal_path.write_text("".join(lines[:3]))  # kill midway
        executed = []
        resumed = orchestrate_campaign(
            spec,
            store_dir=tmp_path,
            workers=2,
            resume=True,
            progress=executed.append,
        )
        assert len(executed) == len(serial_records) - 3
        assert record_key(resumed.records) == record_key(full.records)
        assert record_key(resumed.records) == record_key(serial_records)
        # The journal's k/objective stamps survive the round trip.
        by_heuristic = {o.heuristic: o for o in store.outcomes()}
        assert by_heuristic["rb-k4-connectivity[flat-lifo]"].k == 4
        assert by_heuristic["topdown-tp-hpwl[flat-lifo]"].objective == "hpwl"


class TestJobSpecScenarios:
    def test_round_trip_and_fingerprint_stability(self):
        engine_only = JobSpec(
            name="j",
            instances=[
                InstanceSource(kind="suite", label="a", suite="ibm01s")
            ],
            engines=["flat-lifo"],
        )
        wire = engine_only.to_json()
        # Engine-only jobs keep their pre-scenario wire form (job ids
        # embed its fingerprint).
        assert "scenarios" not in wire
        assert JobSpec.from_json(wire) == engine_only

        with_scenarios = JobSpec(
            name="j2",
            instances=[
                InstanceSource(kind="suite", label="a", suite="ibm01s")
            ],
            scenarios=[
                Scenario(kind="kway", k=4, objective="connectivity")
            ],
        )
        assert JobSpec.from_json(with_scenarios.to_json()) == with_scenarios

    def test_needs_engine_or_scenario(self):
        with pytest.raises(ValueError, match="engine or scenario"):
            JobSpec(
                name="j",
                instances=[
                    InstanceSource(kind="suite", label="a", suite="ibm01s")
                ],
            )

    def test_scenario_names_must_be_unique(self):
        sc = Scenario(kind="kway", k=4, objective="connectivity")
        with pytest.raises(ValueError, match="unique"):
            JobSpec(
                name="j",
                instances=[
                    InstanceSource(kind="suite", label="a", suite="ibm01s")
                ],
                scenarios=[sc, sc],
            )

    def test_build_heuristics(self):
        js = JobSpec(
            name="j",
            instances=[
                InstanceSource(kind="suite", label="a", suite="ibm01s")
            ],
            engines=["flat-lifo"],
            scenarios=[
                Scenario(kind="kway", k=4, objective="connectivity")
            ],
        )
        built = js.build_heuristics()
        assert built[0].name == "Flat LIFO FM"
        assert isinstance(built[1], ScenarioHeuristic)
        assert built[1].k == 4


class TestExampleSpec:
    def test_example_loads(self):
        data = json.loads(EXAMPLE_SPEC.read_text(encoding="utf-8"))
        js = JobSpec.from_json(data)
        assert [s.k for s in js.scenarios if s.kind == "kway"] == [2, 4, 8]
        assert any(
            s.kind == "terminal-propagation" for s in js.scenarios
        )
        names = [h.name for h in js.build_heuristics()]
        assert len(set(names)) == len(names)

    def test_example_adversarial_instances_resolve(self):
        data = json.loads(EXAMPLE_SPEC.read_text(encoding="utf-8"))
        js = JobSpec.from_json(data)
        for src in js.instances:
            hg = src.load()
            assert hg.num_vertices > 0

    def test_example_runs_end_to_end(self, tmp_path):
        # Shrunk copy of the committed spec (fewer instances/starts) so
        # the end-to-end path stays in tier-1 time budget.
        data = json.loads(EXAMPLE_SPEC.read_text(encoding="utf-8"))
        data["instances"] = data["instances"][:1]
        data["instances"][0]["scale"] = 64
        data["num_starts"] = 1
        js = JobSpec.from_json(data)
        instances = {src.label: src.load() for src in js.instances}
        result = run_campaign(js.campaign_spec(instances))
        names = {r.heuristic for r in result.records}
        assert "rb-k8-connectivity[flat-lifo]" in names
        assert "topdown-tp-hpwl[flat-lifo]" in names
        report = result.report(num_shuffles=10)
        assert "rb-k4-connectivity[flat-lifo]" in report

"""Tests for the shmetis-compatible entry point."""

import hashlib

import pytest

from repro.core import BalanceConstraint, KWayBalance
from repro.instances import generate_circuit, suite_instance
from repro.multilevel import (
    MLPartitioner,
    shmetis,
    ubfactor_to_tolerance,
)


@pytest.fixture(scope="module")
def hg():
    return generate_circuit(250, seed=140)


class TestUBFactor:
    def test_paper_correspondence(self):
        # UBfactor 1 -> the paper's 2% (49/51); 5 -> 10% (45/55).
        assert ubfactor_to_tolerance(1) == pytest.approx(0.02)
        assert ubfactor_to_tolerance(5) == pytest.approx(0.10)

    def test_validation(self):
        with pytest.raises(ValueError):
            ubfactor_to_tolerance(0)
        with pytest.raises(ValueError):
            ubfactor_to_tolerance(50)


class TestBisection:
    def test_legal_under_ubfactor_window(self, hg):
        result = shmetis(hg, k=2, ubfactor=5, nruns=3)
        balance = BalanceConstraint(hg.total_vertex_weight, 0.10)
        assert balance.is_legal(result.part_weights)
        assert result.cut == hg.cut_size(result.assignment)

    def test_more_runs_never_worse(self, hg):
        one = shmetis(hg, k=2, ubfactor=5, nruns=1, seed=0)
        many = shmetis(hg, k=2, ubfactor=5, nruns=6, seed=0)
        assert many.cut <= one.cut

    def test_vcycle_applied_to_best(self, hg):
        """shmetis must be at least as good as the raw best-of-N
        multilevel result for the same seeds (the V-cycle can only
        keep or improve it)."""
        raw_best = min(
            MLPartitioner(tolerance=0.10).partition(hg, seed=s).cut
            for s in range(3)
        )
        result = shmetis(hg, k=2, ubfactor=5, nruns=3, seed=0)
        assert result.cut <= raw_best

    def test_clip_variant(self, hg):
        result = shmetis(hg, k=2, ubfactor=5, nruns=2, clip=True)
        assert result.cut == hg.cut_size(result.assignment)

    def test_fixed_vertices(self, hg):
        fixed = [None] * hg.num_vertices
        fixed[0], fixed[1] = 0, 1
        result = shmetis(hg, k=2, ubfactor=5, nruns=2, fixed_parts=fixed)
        assert result.assignment[0] == 0
        assert result.assignment[1] == 1

    def test_legal_means_inside_the_window(self, hg):
        """With 70% of the cells fixed to side 0 no bisection fits the
        45/55 window, and ``legal`` says so although both parts are
        non-empty."""
        n = hg.num_vertices
        fixed = [0 if v < 7 * n // 10 else None for v in range(n)]
        result = shmetis(hg, k=2, ubfactor=5, nruns=2, seed=0,
                         fixed_parts=fixed)
        balance = BalanceConstraint(hg.total_vertex_weight, 0.10)
        assert min(result.part_weights) > 0
        assert not balance.is_legal(result.part_weights)
        assert result.legal is False

    def test_deterministic(self, hg):
        a = shmetis(hg, k=2, ubfactor=5, nruns=2, seed=3)
        b = shmetis(hg, k=2, ubfactor=5, nruns=2, seed=3)
        assert a.assignment == b.assignment

    def test_nruns_validated(self, hg):
        with pytest.raises(ValueError):
            shmetis(hg, nruns=0)


def assignment_digest(assignment):
    text = ",".join(map(str, assignment))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


class TestPinnedRecords:
    """Exact k = 2 records: the best of ``nruns`` starts, then the
    V-cycle.  On this instance CLIP's best of three starts beats its
    first start, so the keep-the-best step shows in the pins."""

    PINS = {
        (False, 1): (17, "2a5a7f679411492f7031578cbb7a3092"
                         "3d8f1c5e971765eb2068b8a6766715be"),
        (False, 3): (17, "2a5a7f679411492f7031578cbb7a3092"
                         "3d8f1c5e971765eb2068b8a6766715be"),
        (True, 1): (19, "5dd3cca5deb375901dae549fe1404da2"
                        "bf49b6a9e9d8445c47fa2902c1e2d103"),
        (True, 3): (17, "e5ed292d24fdb035f6254509cc6ec470"
                        "5bb0a6251251e8a70efce8a67bfb3a29"),
    }

    @pytest.fixture(scope="class")
    def ibm(self):
        return suite_instance("ibm01s", scale=32)

    @pytest.mark.parametrize("clip, nruns", sorted(PINS))
    def test_cut_and_assignment(self, ibm, clip, nruns):
        result = shmetis(ibm, k=2, ubfactor=5, nruns=nruns, seed=4,
                         clip=clip)
        assert (result.cut, assignment_digest(result.assignment)) == \
            self.PINS[clip, nruns]

    def test_fixed_parts(self, ibm):
        """The V-cycle of the best start keeps every fixed vertex on its
        side, as the starts do."""
        fixed = [None] * ibm.num_vertices
        for v in range(0, ibm.num_vertices, 40):
            fixed[v] = (v // 40) % 2
        result = shmetis(ibm, k=2, ubfactor=5, nruns=3, seed=4, clip=True,
                         fixed_parts=fixed)
        assert all(result.assignment[v] == side
                   for v, side in enumerate(fixed) if side is not None)
        assert (result.cut, assignment_digest(result.assignment)) == (
            27,
            "11bd6aa1a93cc85e406d191857ca2c6a"
            "8f32712edb62dce0f1dbca7930983584",
        )


class TestKWay:
    def test_four_way(self, hg):
        result = shmetis(hg, k=4, ubfactor=10, nruns=2)
        assert set(result.assignment) == {0, 1, 2, 3}
        assert result.cut == hg.cut_size(result.assignment)
        assert len(result.part_weights) == 4
        assert result.legal is KWayBalance(
            hg.total_vertex_weight, 4, ubfactor_to_tolerance(10)
        ).is_legal(result.part_weights)

    def test_kway_fixed_unsupported(self, hg):
        with pytest.raises(NotImplementedError):
            shmetis(hg, k=4, fixed_parts=[0] * hg.num_vertices)

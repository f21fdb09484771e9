"""Tests for hypergraph validation and instance statistics."""

import pytest

from repro.hypergraph import Hypergraph, hypergraph_stats, validate_hypergraph
from repro.hypergraph.validate import HypergraphValidationError
from repro.instances import generate_circuit


class TestValidate:
    def test_clean_instance_no_warnings(self, tiny):
        assert validate_hypergraph(tiny) == []

    def test_isolated_vertex_warned(self):
        hg = Hypergraph([[0, 1]], num_vertices=3)
        warnings = validate_hypergraph(hg)
        assert any("isolated" in w for w in warnings)

    def test_isolated_vertex_rejected_when_disallowed(self):
        hg = Hypergraph([[0, 1]], num_vertices=3)
        with pytest.raises(HypergraphValidationError, match="isolated"):
            validate_hypergraph(hg, allow_isolated_vertices=False)

    def test_small_net_warned(self):
        hg = Hypergraph([[0], [0, 1]], num_vertices=2)
        warnings = validate_hypergraph(hg)
        assert any("pin(s)" in w for w in warnings)

    def test_small_net_rejected_when_disallowed(self):
        hg = Hypergraph([[0]], num_vertices=1)
        with pytest.raises(HypergraphValidationError):
            validate_hypergraph(
                hg, allow_small_nets=False, allow_isolated_vertices=True
            )

    def test_generated_instances_valid(self):
        hg = generate_circuit(200, seed=3)
        assert validate_hypergraph(hg) == []

    @pytest.mark.parametrize("kind,weight,message", [
        ("vertex", float("nan"), "vertex 1 has non-finite weight nan"),
        ("net", float("nan"), "net 1 has non-finite weight nan"),
        ("net", -2.0, "net 1 has negative weight -2.0"),
    ])
    def test_bad_weight_from_trusted_csr_rejected(self, kind, weight,
                                                  message):
        # from_csr without validate adopts the weights unchecked.
        vwt, nwt = [1.0, 1.0, 1.0], [1.0, 1.0]
        (vwt if kind == "vertex" else nwt)[1] = weight
        hg = Hypergraph.from_csr([0, 2, 4], [0, 1, 1, 2], 3, vwt, nwt)
        with pytest.raises(HypergraphValidationError, match=message):
            validate_hypergraph(hg)


class TestStats:
    def test_tiny_stats(self, tiny):
        st = hypergraph_stats(tiny)
        assert st.num_vertices == 6
        assert st.num_nets == 7
        assert st.num_pins == 15
        assert st.avg_net_size == pytest.approx(15 / 7)
        assert st.avg_degree == pytest.approx(15 / 6)
        assert st.max_net_size == 3

    def test_area_spread(self, weighted_tiny):
        st = hypergraph_stats(weighted_tiny)
        assert st.min_area == 1.0
        assert st.max_area == 3.0
        assert st.area_spread == pytest.approx(3.0)

    def test_generator_hits_paper_targets(self):
        """Section 2.1 targets: sparsity ~1, degrees and net sizes 3-5,
        some large nets, wide area variation with macros."""
        hg = generate_circuit(1500, seed=11)
        st = hypergraph_stats(hg)
        assert 0.8 <= st.sparsity <= 1.4
        assert 2.5 <= st.avg_degree <= 5.0
        assert 2.5 <= st.avg_net_size <= 5.0
        assert st.large_net_count >= 1  # clock/reset-like nets
        assert st.area_spread > 20  # wide variation incl. macros
        assert st.macro_count >= 1

    def test_unit_area_variant_lacks_macros(self):
        hg = generate_circuit(800, seed=11, unit_areas=True)
        st = hypergraph_stats(hg)
        assert st.area_spread == pytest.approx(1.0)
        assert st.macro_count == 0

    def test_summary_renders(self, tiny):
        text = hypergraph_stats(tiny).summary()
        assert "sparsity" in text
        assert "macro cells" in text

    def test_histograms(self, tiny):
        st = hypergraph_stats(tiny)
        assert sum(st.degree_histogram.values()) == 6
        assert sum(st.net_size_histogram.values()) == 7
        assert st.net_size_histogram[2] == 6
        assert st.net_size_histogram[3] == 1

"""Unit tests for HypergraphBuilder."""

import pytest

from repro.hypergraph import HypergraphBuilder


def test_add_vertex_returns_dense_ids():
    b = HypergraphBuilder()
    assert b.add_vertex("a") == 0
    assert b.add_vertex("b", weight=2.5) == 1
    hg = b.build()
    assert hg.num_vertices == 2
    assert hg.vertex_weight(1) == 2.5


def test_duplicate_vertex_name_rejected():
    b = HypergraphBuilder()
    b.add_vertex("a")
    with pytest.raises(ValueError, match="duplicate"):
        b.add_vertex("a")


def test_negative_weights_rejected():
    b = HypergraphBuilder()
    with pytest.raises(ValueError):
        b.add_vertex("a", weight=-1)
    v = b.add_vertex("b")
    with pytest.raises(ValueError):
        b.set_vertex_weight(v, -2)
    with pytest.raises(ValueError):
        b.add_net([v], weight=-1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_weights_rejected(bad):
    b = HypergraphBuilder()
    with pytest.raises(ValueError, match="vertex 0 has non-finite weight"):
        b.add_vertex("a", weight=bad)
    v = b.add_vertex("b")
    b.add_vertex("c")
    with pytest.raises(ValueError, match="vertex 0 has non-finite weight"):
        b.set_vertex_weight(v, bad)
    b.add_net([0, 1])
    with pytest.raises(ValueError, match="net 1 has non-finite weight"):
        b.add_net([0, 1], weight=bad)
    assert b.num_vertices == 2 and b.num_nets == 1


def test_vertex_id_creates_on_demand():
    b = HypergraphBuilder()
    v1 = b.vertex_id("x")
    v2 = b.vertex_id("x")
    assert v1 == v2
    assert b.num_vertices == 1


def test_add_net_dedups_pins():
    b = HypergraphBuilder()
    a, c = b.add_vertex("a"), b.add_vertex("c")
    b.add_net([a, c, a, c, a])
    hg = b.build()
    assert hg.pins_of(0) == [a, c]


def test_add_net_unknown_pin_rejected():
    b = HypergraphBuilder()
    b.add_vertex("a")
    with pytest.raises(ValueError, match="unknown vertex"):
        b.add_net([5])


def test_small_nets_dropped_by_default():
    b = HypergraphBuilder()
    a, c = b.add_vertex(), b.add_vertex()
    b.add_net([a])  # single pin
    b.add_net([a, c])
    assert b.num_nets == 2
    hg = b.build()
    assert hg.num_nets == 1


def test_small_nets_kept_when_requested():
    b = HypergraphBuilder(drop_small_nets=False)
    a, c = b.add_vertex(), b.add_vertex()
    b.add_net([a])
    b.add_net([a, c])
    hg = b.build()
    assert hg.num_nets == 2


def test_add_net_by_names_creates_vertices():
    b = HypergraphBuilder()
    b.add_net_by_names(["x", "y", "z"], name="n")
    hg = b.build()
    assert hg.num_vertices == 3
    assert hg.net_name(0) == "n"
    assert hg.vertex_name(0) == "x"


def test_set_vertex_weight():
    b = HypergraphBuilder()
    v = b.add_vertex("a")
    u = b.add_vertex("b")
    b.add_net([v, u])
    b.set_vertex_weight(v, 42.0)
    assert b.build().vertex_weight(v) == 42.0


def test_net_weights_preserved():
    b = HypergraphBuilder()
    a, c = b.add_vertex(), b.add_vertex()
    b.add_net([a, c], weight=7.0)
    assert b.build().net_weight(0) == 7.0

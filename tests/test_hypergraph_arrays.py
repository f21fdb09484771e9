"""The read-only array representation against loop references.

Construction of the CSR (transpose, duplicate checks), the derived
statics (integer weights, gain bound), ``Partition2`` construction, the
``.hgr`` reader and the compiled replay of the matching shuffle are all
vectorized; each is pinned here to the straightforward Python loop it
replaced, with exact equality.
"""

import io
import pickle
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.core import Partition2
from repro.hypergraph import Hypergraph, read_hgr
from repro.hypergraph.io_hmetis import _parse_nets, _parse_nets_by_line
from repro.instances import generate_circuit

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def hypergraphs(draw, float_weights=False):
    n = draw(st.integers(min_value=1, max_value=25))
    nets = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=0, max_size=6, unique=True),
        max_size=30,
    ))
    weight = (st.floats(0.0, 5.0, allow_nan=False) if float_weights
              else st.integers(0, 4))
    vw = draw(st.lists(weight, min_size=n, max_size=n))
    nw = draw(st.lists(weight, min_size=len(nets), max_size=len(nets)))
    return Hypergraph(nets, n, vertex_weights=vw, net_weights=nw)


def loop_transpose(hg):
    net_ptr, net_pins, _, _ = hg.raw_csr
    nets_of = [[] for _ in range(hg.num_vertices)]
    for e in range(hg.num_nets):
        for i in range(net_ptr[e], net_ptr[e + 1]):
            nets_of[net_pins[i]].append(e)
    vtx_ptr = [0]
    for lst in nets_of:
        vtx_ptr.append(vtx_ptr[-1] + len(lst))
    return vtx_ptr, [e for lst in nets_of for e in lst]


def loop_partition_state(hg, assignment):
    """The pre-vectorization ``Partition2`` constructor body."""
    net_ptr, net_pins, _, _ = hg.raw_csr
    raw_w = [hg.net_weight(e) for e in hg.nets()]
    integral = all(w.is_integer() for w in raw_w)
    net_w = [int(w) for w in raw_w] if integral else raw_w
    part_weights = [0.0, 0.0]
    for v in range(hg.num_vertices):
        part_weights[assignment[v]] += hg.vertex_weight(v)
    pins0, pins1 = [], []
    cut = 0 if integral else 0.0
    for e in range(hg.num_nets):
        c0 = sum(1 for i in range(net_ptr[e], net_ptr[e + 1])
                 if assignment[net_pins[i]] == 0)
        c1 = net_ptr[e + 1] - net_ptr[e] - c0
        pins0.append(c0)
        pins1.append(c1)
        if c0 > 0 and c1 > 0:
            cut += net_w[e]
    return pins0, pins1, cut, part_weights


class TestConstruction:
    @SETTINGS
    @given(hg=hypergraphs())
    def test_transpose_matches_counting_sort(self, hg):
        assert tuple(hg.raw_csr[2:]) == loop_transpose(hg)

    @SETTINGS
    @given(hg=hypergraphs())
    def test_gain_bound_matches_loop(self, hg):
        net_w = [int(round(hg.net_weight(e))) for e in hg.nets()]
        assert hg.int_net_weights().tolist() == net_w
        assert hg.max_weighted_degree == max(
            (sum(net_w[e] for e in hg.nets_of(v)) for v in hg.vertices()),
            default=0,
        )

    def test_first_bad_pin_is_reported(self):
        with pytest.raises(ValueError, match="net 1 has duplicate pin 2"):
            Hypergraph([[0, 1], [2, 3, 2], [9]], 4)
        with pytest.raises(ValueError, match="net 1 references vertex 9"):
            Hypergraph([[0, 1], [2, 9, 2]], 4)

    def test_derived_values_are_cached_per_instance(self):
        hg = Hypergraph([[0, 1], [1, 2]], 3, net_weights=[2, 3])
        assert hg.int_net_weights() is hg.int_net_weights()
        assert hg.raw_csr[1] is hg.raw_csr[1]


class TestPickle:
    """A hypergraph pickles as its net side; loading rebuilds the rest."""

    @SETTINGS
    @given(hg=st.one_of(hypergraphs(), hypergraphs(float_weights=True)))
    def test_round_trip_rebuilds_the_instance(self, hg):
        hg.raw_csr  # fill the list views
        if hg.integral_net_weights:
            hg.max_weighted_degree  # and the memo
        clone = pickle.loads(pickle.dumps(hg, pickle.HIGHEST_PROTOCOL))
        arrays = hg.csr + (hg.vertex_weight_array, hg.net_weight_array)
        cloned = clone.csr + (clone.vertex_weight_array,
                              clone.net_weight_array)
        for want, got in zip(arrays, cloned):
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert not got.flags.writeable
        assert clone.total_vertex_weight == hg.total_vertex_weight
        assert (clone.integral_vertex_weights, clone.integral_net_weights) \
            == (hg.integral_vertex_weights, hg.integral_net_weights)
        assert clone.raw_csr == hg.raw_csr
        if hg.integral_net_weights:
            assert clone.max_weighted_degree == hg.max_weighted_degree
            assert clone.int_net_weights() is not hg.int_net_weights()

    def test_pickle_carries_names_and_the_net_side_only(self):
        named = Hypergraph([[0, 1], [1, 2]], 3, vertex_names=["a", "b", "c"],
                           net_names=["n", "m"])
        clone = pickle.loads(pickle.dumps(named))
        assert [clone.vertex_name(v) for v in clone.vertices()] == [
            "a", "b", "c"]
        assert [clone.net_name(e) for e in clone.nets()] == ["n", "m"]

        hg = generate_circuit(400, seed=3)
        net_ptr, net_pins, vtx_ptr, vtx_nets = hg.csr
        sent = (net_ptr, net_pins, hg.vertex_weight_array,
                hg.net_weight_array)
        blob = pickle.dumps(hg, pickle.HIGHEST_PROTOCOL)
        # Less than the net side plus ``vtx_ptr``: ``vtx_nets`` (as
        # large as ``net_pins``) cannot be in it.
        assert len(blob) < sum(a.nbytes for a in sent) + vtx_ptr.nbytes


class TestPartitionConstruction:
    @SETTINGS
    @given(
        hg=st.one_of(hypergraphs(), hypergraphs(float_weights=True)),
        seed=st.integers(0, 2**16),
    )
    def test_matches_loop_reference(self, hg, seed):
        rng = random.Random(seed)
        assignment = [rng.randint(0, 1) for _ in range(hg.num_vertices)]
        part = Partition2(hg, assignment)
        pins0, pins1, cut, part_weights = loop_partition_state(hg, assignment)
        assert np.array_equal(part.pins_in_part[0], pins0)
        assert np.array_equal(part.pins_in_part[1], pins1)
        assert part.cut == cut and type(part.cut) is type(cut)
        assert part.part_weights == part_weights


class TestReader:
    @SETTINGS
    @given(
        hg=hypergraphs(),
        dup=st.integers(0, 3),
        weighted=st.booleans(),
    )
    def test_vector_parse_matches_line_parse(self, hg, dup, weighted):
        lines = []
        for e in hg.nets():
            pins = [v + 1 for v in hg.pins_of(e)]
            pins += pins[:dup]  # repeated pins are merged, first kept
            if not pins:
                continue
            head = [str(int(hg.net_weight(e)) + 1)] if weighted else []
            lines.append(" \t".join(head + [str(p) for p in pins]))
        fast = _parse_nets(lines, hg.num_vertices, weighted)
        nets, weights = _parse_nets_by_line(lines, hg.num_vertices, weighted)
        net_ptr, pins, fast_weights = fast
        assert [pins[net_ptr[e]:net_ptr[e + 1]].tolist()
                for e in range(len(nets))] == nets
        if weighted:
            assert fast_weights.tolist() == weights

    def test_malformed_tokens_fall_back_to_line_errors(self):
        for text, message in [
            ("2 4\n1 2\n3 9\n", "net 1 pin 9 out of range"),
            ("2 4\n1 x\n3 4\n", "invalid literal"),
            ("2 4\n1 2.5\n3 4\n", "invalid literal"),
        ]:
            with pytest.raises(ValueError, match=message):
                read_hgr(io.StringIO(text))


@pytest.mark.parametrize("backend", ["cnative"])
def test_kernel_shuffle_replays_random_shuffle(backend):
    from repro.multilevel.matching import _kernels, _shuffled_order

    if not get_backend(backend).available:
        pytest.skip(f"{backend} unavailable")
    ks = _kernels(backend)
    for n in (0, 1, 2, 700, 5000):
        ref, got = random.Random(n), random.Random(n)
        order = list(range(n))
        ref.shuffle(order)
        assert _shuffled_order(n, got, ks).tolist() == order
        assert got.getstate() == ref.getstate()

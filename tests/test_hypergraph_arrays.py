"""The read-only array representation against loop references.

Construction of the CSR (transpose, duplicate checks), the derived
statics (integer weights, gain bound), ``Partition2`` construction, the
``.hgr`` reader and the compiled replay of the matching shuffle are all
vectorized; each is pinned here to the straightforward Python loop it
replaced, with exact equality.
"""

import io
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.core import Partition2
from repro.hypergraph import (
    Hypergraph,
    HypergraphBuilder,
    read_hgr,
    read_netd,
    write_netd,
)
from repro.hypergraph.hypergraph import (
    INDEX_LIMIT,
    _build_transpose,
    _integral,
    check_index_range,
    repeated_pins,
    stable_order,
)
from repro.hypergraph.io_hmetis import (
    _parse_bytes,
    _parse_nets_by_line,
    _read_lines,
)
from repro.instances import generate_circuit
from repro.multilevel.coarsen import coarsen

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


@st.composite
def hgr_texts(draw):
    """A well-formed ``.hgr`` file in any of the four formats, dressed in
    what such a file may hold: ``%`` comments, blank and whitespace-only
    lines, tabs, CRLF, no final newline, repeated pins and numeric lines
    past the last one read."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(0, 8))
    code = draw(st.sampled_from(["", "0", "1", "10", "11"]))
    net_weighted, vertex_weighted = code in ("1", "11"), code in ("10", "11")
    weight = st.one_of(st.integers(0, 10**6).map(str),
                       st.floats(0, 1e6).map(repr))
    gap = st.sampled_from([" ", "\t", "  ", " \t "])
    content = [f"{m} {n}" + (f" {code}" if code else "")]
    for _ in range(m):
        pins = draw(st.lists(st.integers(1, n), min_size=0 if net_weighted
                             else 1, max_size=6))  # repeats allowed
        tokens = ([draw(weight)] if net_weighted else []) + list(
            map(str, pins))
        content.append("".join(draw(gap) + t for t in tokens).lstrip(
            " " if draw(st.booleans()) else ""))
    if vertex_weighted:
        content += [draw(weight) for _ in range(n)]
    content += [" ".join(map(str, extra)) for extra in draw(st.lists(
        st.lists(st.integers(0, 99), min_size=1, max_size=3), max_size=2))]
    lines = []
    for line in content:
        lines += draw(st.lists(st.sampled_from(
            ["% a comment", "  %x 1 2", "", "   ", "\t"]), max_size=2))
        lines.append(line + draw(st.sampled_from(["", " ", "\t"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


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

    @pytest.mark.parametrize("value", [
        0.0, -0.0, 0.5, 2.0**52 + 0.5, 2.0**51 + 0.5, 1e300,
        math.inf, -math.inf, math.nan,
    ])
    def test_integrality_matches_the_modulo_test(self, value):
        weights = np.array([3.0, value])
        with np.errstate(invalid="ignore"):
            modulo = bool((np.mod(weights, 1.0) == 0.0).all())
        assert _integral(weights) is modulo

    def test_first_bad_pin_is_reported(self):
        with pytest.raises(ValueError, match="net 1 has duplicate pin 2"):
            Hypergraph([[0, 1], [2, 3, 2], [9]], 4)
        with pytest.raises(ValueError, match="net 1 references vertex 9"):
            Hypergraph([[0, 1], [2, 9, 2]], 4)

    def test_derived_values_are_cached_per_instance(self):
        hg = Hypergraph([[0, 1], [1, 2]], 3, net_weights=[2, 3])
        assert hg.int_net_weights() is hg.int_net_weights()
        assert hg.raw_csr[1] is hg.raw_csr[1]


def _construction_paths(tmp_path):
    """One hypergraph per construction path, keyed by the path."""
    nets = [[0, 1, 2], [2, 3], [1, 3, 4], [0, 4]]
    weights = [1.0, 2.0, 1.0, 3.0]
    built = {"init": Hypergraph(nets, 5, net_weights=weights)}
    net_ptr = [0, 3, 5, 8, 10]
    pins = [v for net in nets for v in net]
    for label, ptr, flat in (
        ("from_csr-lists", list(net_ptr), list(pins)),
        ("from_csr-int64", np.array(net_ptr), np.array(pins)),
        ("from_csr-int32", np.array(net_ptr, dtype=np.int32),
         np.array(pins, dtype=np.int32)),
    ):
        built[label] = Hypergraph.from_csr(ptr, flat, 5, None, None)
    built["from_csr-validate"] = Hypergraph.from_csr(
        np.array(net_ptr), np.array(pins), 5, None, None, validate=True)
    text = "4 5 1\n1 1 2 3\n2 3 4\n1 2 4 5\n3 1 5\n"
    built["read_hgr"] = read_hgr(io.StringIO(text))
    # Comments and repeated pins (merged, first kept).
    built["read_hgr-merged"] = read_hgr(io.StringIO(
        "% c\n4 5\n1 2 3 1\n3 4 3\n\n2 4 5\n1 5 5\n"))
    builder = HypergraphBuilder()
    for v in range(5):
        builder.add_vertex(f"c{v}")
    for net in nets:
        builder.add_net(net + net[:1])
    built["builder"] = builder.build()
    write_netd(built["init"], tmp_path / "x.netD")
    built["read_netd"] = read_netd(tmp_path / "x.netD")
    hg = generate_circuit(200, seed=5)
    cluster = np.arange(hg.num_vertices, dtype=np.int64) // 3
    built["coarsen-numpy"] = coarsen(hg, cluster, backend="numpy").coarse
    if get_backend("cnative").available:
        built["coarsen-cnative"] = coarsen(
            hg, cluster, backend="cnative").coarse
    built["unpickle"] = pickle.loads(pickle.dumps(hg))
    return built


class TestInt32CSR:
    """Every construction path stores the CSR as read-only int32."""

    def test_every_construction_path(self, tmp_path):
        built = _construction_paths(tmp_path)
        for label, hg in built.items():
            for arr in hg.csr:
                assert arr.dtype == np.int32, label
                assert arr.flags.c_contiguous, label
                assert not arr.flags.writeable, label
        init = built["init"]
        for label in ("from_csr-lists", "from_csr-int64", "from_csr-int32",
                      "from_csr-validate", "read_hgr", "read_hgr-merged",
                      "builder", "read_netd"):
            assert built[label].raw_csr == init.raw_csr, label
        if "coarsen-cnative" in built:
            for got, want in zip(built["coarsen-cnative"].csr,
                                 built["coarsen-numpy"].csr):
                assert np.array_equal(got, want)

    def test_int32_arrays_are_adopted_without_a_copy(self):
        ptr = np.array([0, 2, 4], dtype=np.int32)
        pins = np.array([0, 1, 1, 2], dtype=np.int32)
        hg = Hypergraph.from_csr(ptr, pins, 3, None, None)
        assert np.shares_memory(hg.csr[0], ptr)
        assert np.shares_memory(hg.csr[1], pins)

    def test_bad_pin_raises_before_narrowing(self):
        # 2**32 wraps to 0 in int32, which would read as a duplicate.
        with pytest.raises(ValueError, match="references vertex 4294967296"):
            Hypergraph([[0, 2**32]], 4)
        with pytest.raises(ValueError, match="references vertex 4294967297"):
            Hypergraph.from_csr(np.array([0, 2]), np.array([0, 2**32 + 1]),
                                4, None, None, validate=True)

    @pytest.mark.parametrize("sizes,kind", [
        ((INDEX_LIMIT + 1, 0, 0), "vertices"),
        ((0, INDEX_LIMIT + 1, 0), "nets"),
        ((0, 0, 2**40), "pins"),
    ])
    def test_size_guard_names_the_size(self, sizes, kind):
        count = max(sizes)
        with pytest.raises(ValueError, match=f"{count} {kind}"):
            check_index_range(*sizes)
        check_index_range(INDEX_LIMIT, INDEX_LIMIT, INDEX_LIMIT)

    def test_oversized_instances_raise_before_allocating(self):
        # Unit weights for 2**31 vertices would take 16 GiB: the guard
        # must come first on both constructors.
        big = INDEX_LIMIT + 1
        with pytest.raises(ValueError, match=f"{big} vertices"):
            Hypergraph([], big)
        for validate in (False, True):
            with pytest.raises(ValueError, match=f"{big} vertices"):
                Hypergraph.from_csr([0], [], big, None, None,
                                    validate=validate)

    def test_transpose_and_duplicates_past_int32_composites(self):
        """``max key * len(keys)`` passes 2**31 here (40k vertices, about
        70k pins), where an int32 composite sort key would wrap."""
        rng = np.random.default_rng(7)
        n, m = 40_000, 24_000
        sizes = rng.integers(2, 5, size=m)
        net_ptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(sizes, out=net_ptr[1:])
        pins = rng.integers(0, n, size=int(net_ptr[-1]))
        assert n * pins.size > 2**31
        # stable_order against numpy's stable argsort, on int32 keys.
        keys = pins.astype(np.int32)
        assert np.array_equal(stable_order(keys, n),
                              np.argsort(keys, kind="stable"))
        # Duplicate detection against a per-net seen-set loop.
        ptr_l, pins_l = net_ptr.tolist(), pins.tolist()
        want = []
        for e in range(m):
            seen = set()
            for v in pins_l[ptr_l[e]:ptr_l[e + 1]]:
                want.append(v in seen)
                seen.add(v)
        assert repeated_pins(net_ptr, pins, n).tolist() == want
        # The transpose of the de-duplicated int32 CSR against a loop.
        keep = ~np.array(want)
        owner = np.repeat(np.arange(m), sizes)[keep]
        net_ptr = np.zeros(m + 1, dtype=np.int32)
        np.cumsum(np.bincount(owner, minlength=m), out=net_ptr[1:])
        pins = pins[keep].astype(np.int32)
        vtx_ptr, vtx_nets = _build_transpose(n, net_ptr, pins)
        assert vtx_ptr.dtype == vtx_nets.dtype == np.int32
        nets_of = [[] for _ in range(n)]
        ptr_l, pins_l = net_ptr.tolist(), pins.tolist()
        for e in range(m):
            for v in pins_l[ptr_l[e]:ptr_l[e + 1]]:
                nets_of[v].append(e)
        assert vtx_nets.tolist() == [e for lst in nets_of for e in lst]
        assert np.diff(vtx_ptr).tolist() == [len(lst) for lst in nets_of]


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
        header = f"{len(lines)} {hg.num_vertices}" + (" 1" if weighted else "")
        fast = _parse_bytes("\n".join([header] + lines).encode("ascii"))
        nets, weights = _parse_nets_by_line(lines, hg.num_vertices, weighted)
        net_ptr, pins, _, _, fast_weights, _ = fast
        assert [pins[net_ptr[e]:net_ptr[e + 1]].tolist()
                for e in range(len(nets))] == nets
        if weighted:
            assert fast_weights.tolist() == weights

    @SETTINGS
    @given(text=hgr_texts())
    def test_bytes_parse_matches_line_parse(self, text):
        parsed = _parse_bytes(text.encode("ascii"))
        assert parsed is not None  # the bytes path read it
        *args, transpose = parsed
        fast = Hypergraph.from_csr(*args, transpose=transpose)
        ref = _read_lines(text)
        for got, want in zip(fast.csr, ref.csr):
            assert got.tolist() == want.tolist()
        assert fast.vertex_weights == ref.vertex_weights
        assert fast.net_weights == ref.net_weights

    @pytest.mark.parametrize("text", [
        "1 30\n1 2_0\n",                # underscores: int() reads 20
        "1 3 1\n+2 +1 3\n",             # signs
        "1 3 10\n1 3\n1\n1_5\n2\n",     # float() reads 1_5 too
        "1 3\n1\x1c3\n",                # a separator numpy does not skip
        "1 3\n1\r3\n",                  # a lone CR (whitespace in a stream)
    ])
    def test_declined_spellings_read_as_before(self, text):
        """Input the bytes path declines is read line by line, as it
        always was."""
        assert _parse_bytes(text.encode("ascii", "replace")) is None
        got, want = read_hgr(io.StringIO(text)), _read_lines(text)
        assert got.raw_csr == want.raw_csr
        assert got.vertex_weights == want.vertex_weights

    def test_each_source_keeps_its_text_rules(self, tmp_path):
        """A path reads as a text-mode open of it did: lone CRs end
        lines, and a byte outside ASCII raises ``UnicodeDecodeError``.
        A stream may hold any text in its comments."""
        path = tmp_path / "cr.hgr"
        path.write_bytes(b"2 3\r1 2\r2 3\r")
        assert read_hgr(path).raw_csr[:2] == ([0, 2, 4], [0, 1, 1, 2])
        path.write_bytes(b"% \xe9\n1 3\n1 3\n")
        with pytest.raises(UnicodeDecodeError):
            read_hgr(path)
        hg = read_hgr(io.StringIO("% r\u00e9sum\u00e9\n1 3\n1 3\n"))
        assert hg.raw_csr[:2] == ([0, 2], [0, 2])

    def test_malformed_tokens_fall_back_to_line_errors(self):
        for text, message in [
            ("2 4\n1 2\n3 9\n", "net 1 pin 9 out of range"),
            ("2 4\n1 x\n3 4\n", "invalid literal"),
            ("2 4\n1 2.5\n3 4\n", "invalid literal"),
            ("1 4 1\n1 1 2.\n", "invalid literal"),  # a pin, not a weight
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

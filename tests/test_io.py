"""Round-trip and error tests for the .hgr and .netD/.are formats."""

import io

import pytest

from repro.hypergraph import (
    HgrFormatError,
    Hypergraph,
    read_hgr,
    read_netd,
    write_hgr,
    write_netd,
)
from repro.instances import generate_circuit


class TestHgr:
    def test_round_trip_with_weights(self, tmp_path, weighted_tiny):
        path = tmp_path / "t.hgr"
        write_hgr(weighted_tiny, path, write_net_weights=True)
        back = read_hgr(path)
        assert back.num_vertices == weighted_tiny.num_vertices
        assert back.num_nets == weighted_tiny.num_nets
        for e in back.nets():
            assert back.pins_of(e) == weighted_tiny.pins_of(e)
            assert back.net_weight(e) == weighted_tiny.net_weight(e)
        for v in back.vertices():
            assert back.vertex_weight(v) == weighted_tiny.vertex_weight(v)

    def test_round_trip_unweighted(self, tmp_path, tiny):
        path = tmp_path / "t.hgr"
        write_hgr(tiny, path, write_vertex_weights=False)
        back = read_hgr(path)
        assert back.num_nets == tiny.num_nets
        assert all(back.vertex_weight(v) == 1.0 for v in back.vertices())

    def test_round_trip_generated(self, tmp_path):
        hg = generate_circuit(120, seed=5)
        path = tmp_path / "g.hgr"
        write_hgr(hg, path)
        back = read_hgr(path)
        assignment = [v % 2 for v in range(hg.num_vertices)]
        assert back.cut_size(assignment) == hg.cut_size(assignment)

    def test_stream_io(self, tiny):
        buf = io.StringIO()
        write_hgr(tiny, buf, write_vertex_weights=False)
        back = read_hgr(io.StringIO(buf.getvalue()))
        assert back.num_nets == tiny.num_nets

    def test_comments_ignored(self):
        text = "% comment\n1 2\n% another\n1 2\n"
        back = read_hgr(io.StringIO(text))
        assert back.num_nets == 1
        assert back.pins_of(0) == [0, 1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            read_hgr(io.StringIO(""))

    def test_truncated_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            read_hgr(io.StringIO("3 4\n1 2\n"))

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            read_hgr(io.StringIO("1\n1 2\n"))

    @pytest.mark.parametrize("header", ["-1 2", "1 -2", "x 2", "1 2 2",
                                        "1 2 011"])
    def test_bad_count_or_format_rejected(self, header):
        with pytest.raises(ValueError, match="bad .hgr header"):
            read_hgr(io.StringIO(f"{header}\n1 2\n1\n1\n"))

    @pytest.mark.parametrize("text,message", [
        ("1 2 1\nnan 1 2\n", "net 0 has non-finite weight nan"),
        ("2 2 1\n1 1 2\ninf 1 2\n", "net 1 has non-finite weight inf"),
        ("1 2 10\n1 2\n1\ninf\n", "vertex 1 has non-finite weight inf"),
        ("1 2 11\n1 1 2\nnan\n1\n", "vertex 0 has non-finite weight nan"),
    ], ids=["net-nan", "net-inf", "vertex-inf", "vertex-nan"])
    def test_non_finite_weight_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            read_hgr(io.StringIO(text))

    def test_pin_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            read_hgr(io.StringIO("1 2\n1 5\n"))


class TestHgrErrorLines:
    """Every malformed-input error is an ``HgrFormatError`` naming the
    1-based file line, comment and blank lines counted; the message
    keeps its reason."""

    @staticmethod
    def _error(text):
        with pytest.raises(HgrFormatError) as info:
            read_hgr(io.StringIO(text))
        assert isinstance(info.value, ValueError)
        assert str(info.value).endswith(f"(line {info.value.line})")
        return info.value

    def test_bad_header(self):
        err = self._error("% netlist\n\n2 4 7\n1 2\n3 4\n")
        assert err.line == 3 and "bad .hgr header: '2 4 7'" in str(err)

    def test_truncated_names_the_line_after_the_last(self):
        err = self._error("3 4\n% nets\n1 2\n\n3 4\n")
        assert err.line == 6
        assert "truncated: expected 4 lines, got 3" in str(err)

    def test_empty_names_the_line_after_the_comments(self):
        assert self._error("% only\n% comments\n").line == 3

    @pytest.mark.parametrize("text,line,message", [
        ("2 4\n1 2\n% c\n\n3 x\n", 5, "invalid literal"),
        ("2 4\n1 2\n% c\n3 2.5\n", 4, "invalid literal"),
        ("1 2 1\n\nw 1 2\n", 3, "could not convert"),
        ("1 2 10\n1 2\n% areas\n1\nbig\n", 5, "could not convert"),
    ], ids=["pin", "fractional-pin", "net-weight", "vertex-weight"])
    def test_non_numeric_token(self, text, line, message):
        err = self._error(text)
        assert err.line == line and message in str(err)

    def test_out_of_range_pin(self):
        err = self._error("2 4\n% c\n1 2\n\n3 9\n")
        assert err.line == 5 and "net 1 pin 9 out of range" in str(err)

    @pytest.mark.parametrize("text,line,message", [
        ("2 4 1\n1 1 2\n% c\n-2 3 4\n", 4, "net 1 has negative weight"),
        ("2 4 10\n1 2\n3 4\n\n1\n% c\n-1\n1\n1\n", 7,
         "vertex 1 has negative weight"),
    ], ids=["net", "vertex"])
    def test_negative_weight(self, text, line, message):
        err = self._error(text)
        assert err.line == line and message in str(err)

    @pytest.mark.parametrize("text,line,message", [
        ("2 4 1\n% c\n1 1 2\ninf 3 4\n", 4, "net 1 has non-finite"),
        ("2 4 1\n% c\n1 1 2\ninf 3 9\n", 4, "net 1 pin 9 out of range"),
        ("1 2 10\n\n1 2\nnan\n1\n", 4, "vertex 0 has non-finite"),
    ], ids=["net", "pin-before-weight", "vertex"])
    def test_non_finite_weight(self, text, line, message):
        err = self._error(text)
        assert err.line == line and message in str(err)


class TestNetD:
    def test_round_trip(self, tmp_path):
        hg = Hypergraph(
            [[0, 1, 2], [1, 3], [0, 3]],
            num_vertices=4,
            vertex_weights=[2, 3, 1, 5],
            vertex_names=["a0", "a1", "a2", "p1"],
        )
        netd = tmp_path / "x.netD"
        are = tmp_path / "x.are"
        write_netd(hg, netd, are)
        back = read_netd(netd, are)
        assert back.num_vertices == 4
        assert back.num_nets == 3
        # Names map positions; areas must follow names.
        for v in range(4):
            name = hg.vertex_name(v)
            idx = next(
                u for u in range(4) if back.vertex_name(u) == name
            )
            assert back.vertex_weight(idx) == hg.vertex_weight(v)

    def test_read_without_are_gives_unit_areas(self, tmp_path):
        hg = Hypergraph([[0, 1]], num_vertices=2, vertex_names=["a0", "a1"])
        netd = tmp_path / "y.netD"
        write_netd(hg, netd)
        back = read_netd(netd)
        assert all(back.vertex_weight(v) == 1.0 for v in back.vertices())

    def test_header_validation(self, tmp_path):
        bad = tmp_path / "bad.netD"
        bad.write_text("1\n2\n3\n4\n5\n")
        with pytest.raises(ValueError, match="'0'"):
            read_netd(bad)

    def test_pin_count_validation(self, tmp_path):
        bad = tmp_path / "bad.netD"
        bad.write_text("0\n3\n1\n2\n0\na0 s I\na1 l I\n")
        with pytest.raises(ValueError, match="pins"):
            read_netd(bad)

    def test_continuation_before_start_rejected(self, tmp_path):
        bad = tmp_path / "bad.netD"
        bad.write_text("0\n2\n1\n2\n0\na0 l I\na1 l I\n")
        with pytest.raises(ValueError, match="continuation"):
            read_netd(bad)

    @pytest.mark.parametrize("area", ["nan", "inf"])
    def test_non_finite_area_rejected(self, tmp_path, area):
        netd = tmp_path / "a.netD"
        netd.write_text("0\n2\n1\n2\n0\na0 s I\na1 l I\n")
        are = tmp_path / "a.are"
        are.write_text(f"a0 1\na1 {area}\n")
        with pytest.raises(ValueError,
                           match=f"vertex 1 has non-finite weight {area}"):
            read_netd(netd, are)

    def test_net_count_validation(self, tmp_path):
        bad = tmp_path / "bad.netD"
        bad.write_text("0\n2\n5\n2\n0\na0 s I\na1 l I\n")
        with pytest.raises(ValueError, match="nets"):
            read_netd(bad)

    def test_generated_round_trip_cut_preserved(self, tmp_path):
        hg = generate_circuit(80, seed=9)
        netd = tmp_path / "g.netD"
        are = tmp_path / "g.are"
        write_netd(hg, netd, are)
        back = read_netd(netd, are)
        assert back.num_nets == hg.num_nets
        assert back.total_vertex_weight == hg.total_vertex_weight

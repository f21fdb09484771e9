"""ISPD98 ``.netD`` + ``.are`` netlist format.

This is the format of the IBM benchmark suite [Alpert, ISPD98] the paper
reports on.  The ``.netD`` file lists pins grouped into nets; the ``.are``
file carries actual cell areas.

``.netD`` layout::

    0
    <#pins>
    <#nets>
    <#modules>
    <pad offset>
    <module> <s|l> <I|O|B>
    ...

Module names are ``a<k>`` for cells and ``p<k>`` for pads.  A pin line
with ``s`` starts a new net; ``l`` continues the current net.  The third
field is the pin direction (input/output/bidirectional), preserved on
read but irrelevant to undirected partitioning.

``.are`` layout: one ``<module> <area>`` pair per line.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.hypergraph.builder import HypergraphBuilder
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.io_hmetis import read_hgr

PathLike = Union[str, Path]


def read_netlist(
    path: PathLike, are: Optional[PathLike] = None
) -> Hypergraph:
    """Read a netlist by suffix: ISPD98 ``.netD``/``.netd``/``.net``
    (with optional ``.are`` areas), hMetis ``.hgr`` otherwise."""
    if str(path).endswith((".netD", ".netd", ".net")):
        return read_netd(path, are)
    return read_hgr(path)


def read_netd(
    netd_path: PathLike, are_path: Optional[PathLike] = None
) -> Hypergraph:
    """Read an ISPD98 ``.netD`` netlist, optionally with ``.are`` areas.

    Without an ``.are`` file all modules get unit area.  Single-pin and
    duplicate-pin anomalies are cleaned up as in
    :class:`~repro.hypergraph.builder.HypergraphBuilder`.
    """
    text = Path(netd_path).read_text(encoding="ascii")
    tokens_by_line = [
        ln.split() for ln in text.splitlines() if ln.strip()
    ]
    if len(tokens_by_line) < 5:
        raise ValueError(".netD header truncated")
    if tokens_by_line[0] != ["0"]:
        raise ValueError(".netD must start with a '0' line")
    num_pins = int(tokens_by_line[1][0])
    num_nets = int(tokens_by_line[2][0])
    num_modules = int(tokens_by_line[3][0])
    pad_offset = int(tokens_by_line[4][0])

    pin_lines = tokens_by_line[5:]
    if len(pin_lines) != num_pins:
        raise ValueError(
            f".netD declares {num_pins} pins but lists {len(pin_lines)}"
        )

    builder = HypergraphBuilder()
    # Pre-register modules so vertex ids are dense and name-ordered:
    # cells a0..a<pad_offset>, pads p1..  (the ISPD98 convention is that
    # modules with index > pad_offset are pads).
    del num_modules  # implied by the pin list; names drive registration

    current_net: List[int] = []
    net_count = 0
    for fields in pin_lines:
        if len(fields) < 2:
            raise ValueError(f"bad .netD pin line: {fields!r}")
        name, flag = fields[0], fields[1]
        vid = builder.vertex_id(name)
        if flag == "s":
            if current_net:
                builder.add_net(current_net, name=f"net{net_count}")
                net_count += 1
            current_net = [vid]
        elif flag == "l":
            if not current_net:
                raise ValueError("continuation pin before any 's' pin")
            current_net.append(vid)
        else:
            raise ValueError(f"unknown pin flag {flag!r}")
    if current_net:
        builder.add_net(current_net, name=f"net{net_count}")
        net_count += 1
    if net_count != num_nets:
        raise ValueError(
            f".netD declares {num_nets} nets but contains {net_count}"
        )

    if are_path is not None:
        for name, area in _read_are(are_path).items():
            # Areas may mention modules absent from every net.
            builder.set_vertex_weight(builder.vertex_id(name), area)

    del pad_offset  # retained in the writer; not needed for partitioning
    return builder.build()


def _read_are(are_path: PathLike) -> Dict[str, float]:
    areas: Dict[str, float] = {}
    for ln in Path(are_path).read_text(encoding="ascii").splitlines():
        fields = ln.split()
        if not fields:
            continue
        if len(fields) != 2:
            raise ValueError(f"bad .are line: {ln!r}")
        areas[fields[0]] = float(fields[1])
    return areas


def write_netd(
    hypergraph: Hypergraph,
    netd_path: PathLike,
    are_path: Optional[PathLike] = None,
    pad_prefix: str = "p",
) -> None:
    """Write ``hypergraph`` as ``.netD`` (+ optional ``.are``).

    Vertex names from the hypergraph are used as module names.  Vertices
    whose name starts with ``pad_prefix`` count as pads for the header's
    pad-offset field.
    """
    lines: List[str] = []
    num_pins = hypergraph.num_pins
    pads = sum(
        1
        for v in range(hypergraph.num_vertices)
        if hypergraph.vertex_name(v).startswith(pad_prefix)
    )
    pad_offset = hypergraph.num_vertices - pads - 1
    lines.append("0")
    lines.append(str(num_pins))
    lines.append(str(hypergraph.num_nets))
    lines.append(str(hypergraph.num_vertices))
    lines.append(str(pad_offset))
    for e in range(hypergraph.num_nets):
        for i, v in enumerate(hypergraph.pins_of(e)):
            flag = "s" if i == 0 else "l"
            lines.append(f"{hypergraph.vertex_name(v)} {flag} B")
    Path(netd_path).write_text("\n".join(lines) + "\n", encoding="ascii")

    if are_path is not None:
        area_lines = [
            f"{hypergraph.vertex_name(v)} {hypergraph.vertex_weight(v):g}"
            for v in range(hypergraph.num_vertices)
        ]
        Path(are_path).write_text(
            "\n".join(area_lines) + "\n", encoding="ascii"
        )


def netd_round_trip_names(hypergraph: Hypergraph) -> Tuple[List[str], List[str]]:
    """Names that :func:`write_netd` will emit (cells first, then pads)."""
    names = [hypergraph.vertex_name(v) for v in range(hypergraph.num_vertices)]
    cells = [n for n in names if not n.startswith("p")]
    pads = [n for n in names if n.startswith("p")]
    return cells, pads

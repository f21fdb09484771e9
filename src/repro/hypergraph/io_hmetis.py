"""hMetis ``.hgr`` text format reader and writer.

Format (hMetis 1.5 user manual):

* First line: ``<#nets> <#vertices> [fmt]`` where ``fmt`` is ``0`` (or
  absent) for no weights, ``1`` for net weights, ``10`` for vertex
  weights, ``11`` for both.  Any other code, and a count that is not a
  non-negative integer, is a bad header.
* One line per net: ``[weight] pin pin ...`` with 1-based vertex ids.
* If vertex weights are present, one weight per line follows the nets.
* Lines starting with ``%`` are comments.

Malformed input raises :class:`HgrFormatError`, a ``ValueError`` whose
``line`` is the 1-based file line at fault (comment and blank lines
counted).
"""

from __future__ import annotations

import io
import warnings
from pathlib import Path
from typing import Callable, List, Optional, TextIO, Union

import numpy as np

from repro.hypergraph.hypergraph import (
    Hypergraph,
    WeightError,
    checked_weights,
    repeated_pins,
)

PathLike = Union[str, Path]


class HgrFormatError(ValueError):
    """Malformed ``.hgr`` input.

    ``line`` is the 1-based line of the file at fault, counting comment
    and blank lines; a file that ends early names the line after its
    last.  The message is the reason with `` (line N)`` appended.
    """

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"{message} (line {line})")
        self.line = line


def _open_text(source: Union[PathLike, TextIO], mode: str) -> TextIO:
    if isinstance(source, (str, Path)):
        return open(source, mode, encoding="ascii")
    return source


def read_hgr(source: Union[PathLike, TextIO]) -> Hypergraph:
    """Read a hypergraph in hMetis ``.hgr`` format.

    ``source`` may be a path or an open text stream.  Raises
    :class:`HgrFormatError` (a ``ValueError`` naming the line) on
    malformed input: a bad header, a truncated file, a token that is
    not a number, an out-of-range pin, or a negative or non-finite
    weight.  Duplicate pins within a net are merged (first occurrence
    kept).
    """
    stream = _open_text(source, "r")
    close = isinstance(source, (str, Path))
    try:
        text = stream.read()
    finally:
        if close:
            stream.close()
    lines = list(filter(None, map(str.strip, text.split("\n"))))
    if "%" in text:
        lines = [ln for ln in lines if not ln.startswith("%")]

    def line_of(i: int) -> int:
        """File line of ``lines[i]`` (error paths only)."""
        return _content_lines(text)[i]

    if not lines:
        raise HgrFormatError("empty .hgr file", _end_line(text))

    header = lines[0].split()
    fmt = header[2] if len(header) == 3 else "0"
    if (len(header) not in (2, 3) or fmt not in ("0", "1", "10", "11")
            or not all(f.isdecimal() for f in header[:2])):
        raise HgrFormatError(f"bad .hgr header: {lines[0]!r}", line_of(0))
    num_nets, num_vertices = int(header[0]), int(header[1])
    has_net_weights = fmt in ("1", "11")
    has_vertex_weights = fmt in ("10", "11")

    expected = 1 + num_nets + (num_vertices if has_vertex_weights else 0)
    if len(lines) < expected:
        raise HgrFormatError(
            f".hgr truncated: expected {expected} lines, got {len(lines)}",
            _end_line(text),
        )

    net_lines = lines[1 : 1 + num_nets]
    parsed = _parse_nets(net_lines, num_vertices, has_net_weights)
    if parsed is None:
        nets, net_weights = _parse_nets_by_line(
            net_lines, num_vertices, has_net_weights,
            line_of=lambda e: line_of(1 + e),
        )
    else:
        net_ptr, pins, net_weights = parsed
    first = 1 + num_nets  # the first vertex-weight line
    vertex_weights: Optional[List[float]] = None
    if has_vertex_weights:
        tokens = lines[first : first + num_vertices]
        try:
            vertex_weights = list(map(float, tokens))
        except ValueError:
            for i, token in enumerate(tokens):
                try:
                    float(token)
                except ValueError as exc:
                    raise HgrFormatError(
                        str(exc), line_of(first + i)
                    ) from None
    vw = _checked(vertex_weights, num_vertices, "vertex",
                  lambda v: line_of(first + v))
    nw = _checked(net_weights, num_nets, "net", lambda e: line_of(1 + e))
    if parsed is None:
        return Hypergraph(
            nets, num_vertices=num_vertices, vertex_weights=vw, net_weights=nw
        )
    return Hypergraph.from_csr(net_ptr, pins, num_vertices, vw, nw)


def _parse_nets(
    net_lines: List[str], num_vertices: int, has_net_weights: bool
) -> Optional[tuple]:
    """``(net_ptr, pins, net_weights)`` of the net lines, parsed by one
    numpy call over all of them.

    Returns ``None`` when anything is unusual — a token numpy does not
    read as a number, a non-integral or out-of-range pin — so the caller
    re-parses line by line and raises exactly the error that names the
    offending net.
    """
    num_nets = len(net_lines)
    block = "\n".join(net_lines)
    with warnings.catch_warnings():
        # A token numpy cannot parse raises, or on older numpy ends the
        # array early with a DeprecationWarning (the length check).
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            tokens = np.fromstring(
                block,
                dtype=np.float64 if has_net_weights else np.int64,
                sep=" ",
            )
        except ValueError:
            return None
    # Every byte numpy accepted is part of a number or whitespace, so a
    # token starts at each non-space byte after a space, and newlines
    # number the nets.
    raw = np.frombuffer(block.encode("ascii", "replace"), dtype=np.uint8)
    space = raw <= 32
    starts = ~space
    starts[1:] &= space[:-1]
    net_of_token = np.searchsorted(
        np.flatnonzero(raw == 10), np.flatnonzero(starts)
    )
    counts = np.bincount(net_of_token, minlength=num_nets).astype(np.int64)
    if counts.shape[0] != num_nets or tokens.shape[0] != int(counts.sum()):
        return None
    net_weights = None
    if has_net_weights:
        first = np.cumsum(counts) - counts
        net_weights = tokens[first]
        is_pin = np.ones(tokens.shape[0], dtype=bool)
        is_pin[first] = False
        values = tokens[is_pin]
        if not (values == np.floor(values)).all():
            return None
        pins = values.astype(np.int64) - 1
        counts = counts - 1
    else:
        pins = tokens - 1
    if ((pins < 0) | (pins >= num_vertices)).any():
        return None
    net_ptr = np.zeros(num_nets + 1, dtype=np.int64)
    np.cumsum(counts, out=net_ptr[1:])
    repeat = repeated_pins(net_ptr, pins, num_vertices)
    if repeat.any():
        owner = np.repeat(np.arange(num_nets, dtype=np.int64), counts)
        pins = pins[~repeat]
        np.cumsum(
            np.bincount(owner[~repeat], minlength=num_nets), out=net_ptr[1:]
        )
    return net_ptr, pins, net_weights


def _content_lines(text: str) -> List[int]:
    """1-based file line of each line :func:`read_hgr` parses (comment
    and blank lines skipped)."""
    return [
        number for number, line in enumerate(text.split("\n"), 1)
        if line.strip() and not line.strip().startswith("%")
    ]


def _end_line(text: str) -> int:
    """The line after the last (error paths only)."""
    return len(text.splitlines()) + 1


def _checked(
    values, count: int, kind: str, line_of: Callable[[int], int]
) -> np.ndarray:
    """:func:`checked_weights`, its :class:`WeightError` raised again as
    :class:`HgrFormatError` on the file line of the bad weight."""
    try:
        return checked_weights(values, count, kind)
    except WeightError as exc:
        raise HgrFormatError(str(exc), line_of(exc.index)) from None


def _parse_nets_by_line(
    net_lines: List[str],
    num_vertices: int,
    has_net_weights: bool,
    line_of: Callable[[int], int] = lambda e: e + 2,
) -> tuple:
    """Reference line-by-line parse: ``(nets, net_weights)``; raises
    :class:`HgrFormatError` at the first malformed net, on the file line
    ``line_of(e)`` of net ``e`` (by default, the line after the header
    with no comments in between)."""
    nets: List[List[int]] = []
    net_weights: Optional[List[float]] = [] if has_net_weights else None
    for e, line in enumerate(net_lines):
        fields = line.split()
        try:
            if has_net_weights:
                assert net_weights is not None
                net_weights.append(float(fields[0]))
                fields = fields[1:]
            pins = []
            seen = set()
            for f in fields:
                v = int(f) - 1
                if not 0 <= v < num_vertices:
                    raise ValueError(f"net {e} pin {f} out of range")
                if v not in seen:
                    seen.add(v)
                    pins.append(v)
        except ValueError as exc:
            raise HgrFormatError(str(exc), line_of(e)) from None
        nets.append(pins)
    return nets, net_weights


def write_hgr(
    hypergraph: Hypergraph,
    destination: Union[PathLike, TextIO],
    write_net_weights: bool = False,
    write_vertex_weights: bool = True,
) -> None:
    """Write ``hypergraph`` in hMetis ``.hgr`` format."""
    fmt_bits = ("1" if write_vertex_weights else "0") + (
        "1" if write_net_weights else "0"
    )
    fmt = {"00": "", "01": "1", "10": "10", "11": "11"}[fmt_bits]

    buf = io.StringIO()
    header = f"{hypergraph.num_nets} {hypergraph.num_vertices}"
    if fmt:
        header += f" {fmt}"
    buf.write(header + "\n")
    for e in range(hypergraph.num_nets):
        parts = []
        if write_net_weights:
            parts.append(_fmt_weight(hypergraph.net_weight(e)))
        parts.extend(str(v + 1) for v in hypergraph.pins_of(e))
        buf.write(" ".join(parts) + "\n")
    if write_vertex_weights:
        for v in range(hypergraph.num_vertices):
            buf.write(_fmt_weight(hypergraph.vertex_weight(v)) + "\n")

    stream = _open_text(destination, "w")
    close = isinstance(destination, (str, Path))
    try:
        stream.write(buf.getvalue())
    finally:
        if close:
            stream.close()


def _fmt_weight(w: float) -> str:
    """hMetis weights are integers; emit ints when exact."""
    if w == int(w):
        return str(int(w))
    return repr(w)

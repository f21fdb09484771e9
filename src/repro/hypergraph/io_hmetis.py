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
    INDEX_LIMIT,
    Hypergraph,
    WeightError,
    _build_transpose,
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

    A well-formed file is parsed from its bytes by numpy
    (:func:`_parse_bytes`), with no object per line.  Input that parse
    declines -- malformed, or spelled in a way only Python's ``int`` and
    ``float`` read, such as ``1_000`` -- is read line by line
    (:func:`_read_lines`), which raises the located error.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as stream:
            data = stream.read()
        text = None
    else:
        text = source.read()
        data = text.encode("ascii", "replace")
    parsed = _parse_bytes(data)
    if parsed is not None:
        *args, transpose = parsed
        return Hypergraph.from_csr(*args, transpose=transpose)
    if text is None:
        # What reading the path as text gives: ASCII, universal newlines.
        text = data.decode("ascii").replace("\r\n", "\n").replace("\r", "\n")
    return _read_lines(text)


#: Whitespace as ``str.split`` reads it, less the separators 0x1c-0x1f
#: numpy's parser does not skip.
_SPACE = b" \t\n\v\f\r"
#: Every byte :func:`_parse_bytes` reads: whitespace and printable ASCII.
_TEXT = _SPACE + bytes(range(33, 127))
#: The bytes a weight may hold besides digits.
_WEIGHT_CHARS = b".eE+-"
#: Format code -> (net weights given, vertex weights given).
_FORMATS = {b"0": (False, False), b"1": (True, False),
            b"10": (False, True), b"11": (True, True)}


def _parse_bytes(data: bytes) -> Optional[tuple]:
    """``(net_ptr, pins, num_vertices, vertex_weights, net_weights,
    (vtx_ptr, vtx_nets))`` of a well-formed ``.hgr`` file, parsed from
    its bytes by numpy; ``None`` for any other input.

    The transpose, which the hypergraph needs anyway, finds the repeated
    pins: a vertex that lists one net twice.  It is built after the
    token arrays of :func:`_parse_tokens` are freed, so the hypergraph's
    arrays reuse their memory instead of landing above it.
    """
    parsed = _parse_tokens(data)
    if parsed is None:
        return None
    num_vertices, counts, pins, vertex_weights, net_weights = parsed
    num_nets = counts.shape[0]
    try:
        vw = checked_weights(vertex_weights, num_vertices, "vertex")
        nw = checked_weights(net_weights, num_nets, "net")
    except WeightError:
        return None
    net_ptr = np.zeros(num_nets + 1, dtype=np.int64)
    np.cumsum(counts, out=net_ptr[1:])
    vtx_ptr, vtx_nets = _build_transpose(num_vertices, net_ptr, pins)
    repeat = np.zeros(pins.shape[0] + 1, dtype=bool)
    np.equal(vtx_nets[1:], vtx_nets[:-1], out=repeat[1:-1])
    repeat[vtx_ptr] = False  # a vertex's first net repeats nothing
    if repeat.any():
        # Merge the repeated pins, first kept (rare: sorting again is
        # fine).
        owner = np.repeat(np.arange(num_nets, dtype=np.int64), counts)
        keep = ~repeated_pins(net_ptr, pins, num_vertices)
        pins = pins[keep]
        np.cumsum(np.bincount(owner[keep], minlength=num_nets),
                  out=net_ptr[1:])
        vtx_ptr, vtx_nets = _build_transpose(num_vertices, net_ptr, pins)
    return net_ptr, pins, num_vertices, vw, nw, (vtx_ptr, vtx_nets)


def _parse_tokens(data: bytes) -> Optional[tuple]:
    """``(num_vertices, pin counts, pins, vertex weights or None, net
    weights or None)`` of a well-formed ``.hgr`` file, or ``None``.

    Tokens are the runs of non-whitespace bytes, and a newline before a
    token makes it the first of its line.  Comment lines are blanked, so
    one ``np.fromstring`` call reads every net line and one every
    vertex-weight line.  Anything unusual -- a byte other than
    whitespace and printable ASCII, a lone CR, a header, token or weight
    that does not read as given, an out-of-range pin -- returns
    ``None``.
    """
    if data.translate(None, _TEXT) or (
            b"\r" in data and data.count(b"\r") != data.count(b"\r\n")):
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    edges = np.flatnonzero(np.diff(raw > 32, prepend=False, append=False))
    starts, ends = edges[0::2], edges[1::2]
    newlines = np.flatnonzero(raw == 10)
    first = np.zeros(starts.shape[0] + 1, dtype=bool)
    first[0] = True
    first[np.searchsorted(starts, newlines)] = True
    first = first[:-1]
    if b"%" in data:
        lead = np.flatnonzero(first)
        comment = lead[raw[starts[lead]] == ord("%")]
        if comment.size:
            line = np.cumsum(first) - 1
            on_comment = np.zeros(lead.shape[0], dtype=bool)
            on_comment[line[comment]] = True
            keep = ~on_comment[line]
            # Blank each comment from its '%' to the end of its line.
            begin = starts[comment]
            eol = np.append(newlines, raw.shape[0])
            mark = np.zeros(raw.shape[0] + 1, dtype=np.int8)
            mark[begin] = 1
            mark[eol[np.searchsorted(newlines, begin)]] = -1
            blank = raw.copy()
            blank[np.cumsum(mark[:-1], dtype=np.int8).view(bool)] = 32
            data, raw = blank.tobytes(), blank
            starts, ends, first = starts[keep], ends[keep], first[keep]
    odd = data.translate(None, _SPACE + b"0123456789")
    if odd.translate(None, _WEIGHT_CHARS):
        return None
    # bound[i]:bound[i + 1] are the tokens of content line i.
    bound = np.append(np.flatnonzero(first), starts.shape[0])
    if bound.shape[0] < 2 or bound[1] not in (2, 3):
        return None
    header = [data[a:b] for a, b in zip(starts[: bound[1]].tolist(),
                                         ends[: bound[1]].tolist())]
    weighted = _FORMATS.get(header[2] if len(header) == 3 else b"0")
    if weighted is None or not (header[0].isdigit()
                                and header[1].isdigit()):
        return None
    num_nets, num_vertices = int(header[0]), int(header[1])
    net_weighted, vertex_weighted = weighted
    last = 1 + num_nets + (num_vertices if vertex_weighted else 0)
    if bound.shape[0] <= last:
        return None
    nets = bound[1 : num_nets + 2]
    areas = bound[num_nets + 1 : last + 1]
    if odd:
        # Weight characters only in the weight tokens, or in the lines
        # past the last one read.
        allowed = np.zeros(starts.shape[0], dtype=bool)
        if net_weighted:
            allowed[nets[:-1]] = True
        allowed[areas[0] if vertex_weighted else bound[last]:] = True
        at = np.zeros(raw.shape[0], dtype=bool)
        for char in _WEIGHT_CHARS:
            at |= raw == char
        if not allowed[np.searchsorted(starts, np.flatnonzero(at),
                                       side="right") - 1].all():
            return None
    # Integers parse several times faster than floats, and a weight of
    # at most 18 digits converts from int64 exactly as float() reads it.
    weight_type = (np.int64 if not odd and (ends - starts).max() <= 18
                   else np.float64)
    values = _numbers(data, starts, ends, nets[0], nets[-1],
                      weight_type if net_weighted else np.int64)
    if values is None or max(num_vertices, num_nets,
                             values.shape[0]) > INDEX_LIMIT:
        return None
    counts = np.diff(nets)
    net_weights = None
    if net_weighted:
        heads = nets[:-1] - nets[0]
        net_weights = values[heads]
        values = np.delete(values, heads)
        counts -= 1
    if values.size and (values.min() < 1 or values.max() > num_vertices):
        return None
    pins = values.astype(np.int32)
    pins -= 1
    vertex_weights = None
    if vertex_weighted:
        if (np.diff(areas) != 1).any():
            return None
        vertex_weights = _numbers(data, starts, ends, areas[0], areas[-1],
                                  weight_type)
        if vertex_weights is None:
            return None
    return num_vertices, counts, pins, vertex_weights, net_weights


def _numbers(data: bytes, starts, ends, lo: int, hi: int, dtype):
    """Tokens ``lo:hi`` of ``data`` read as ``dtype`` by one numpy call,
    or ``None`` unless each token is exactly one number.  Only
    whitespace and blanked comments lie between them."""
    if lo == hi:
        return np.zeros(0, dtype=dtype)
    with warnings.catch_warnings():
        # A token numpy cannot parse raises, or on older numpy ends the
        # array early with a DeprecationWarning (the length check).
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            values = np.fromstring(data[starts[lo]:ends[hi - 1]],
                                   dtype=dtype, sep=" ")
        except ValueError:
            return None
    return values if values.shape[0] == hi - lo else None


def _read_lines(text: str) -> Hypergraph:
    """The reference reader, line by line: the hypergraph of ``text``,
    or :class:`HgrFormatError` at the first malformed line."""
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

    nets, net_weights = _parse_nets_by_line(
        lines[1 : 1 + num_nets], num_vertices, has_net_weights,
        line_of=lambda e: line_of(1 + e),
    )
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
    return Hypergraph(
        nets, num_vertices=num_vertices, vertex_weights=vw, net_weights=nw
    )


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

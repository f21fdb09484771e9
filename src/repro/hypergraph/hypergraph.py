"""Core hypergraph data structure.

The representation follows the usual VLSI CAD convention: *vertices* are
cells (with areas as weights) and *nets* are hyperedges (with optional
weights).  A hypergraph is one immutable CSR, built once:

* ``net_ptr`` / ``net_pins`` — for net ``e``, the pins (vertices) are
  ``net_pins[net_ptr[e]:net_ptr[e + 1]]``;
* ``vtx_ptr`` / ``vtx_nets`` — for vertex ``v``, the incident nets are
  ``vtx_nets[vtx_ptr[v]:vtx_ptr[v + 1]]``, in ascending net order;
* float64 vertex and net weights.

All six are read-only numpy arrays (:attr:`Hypergraph.csr`,
:attr:`Hypergraph.vertex_weight_array`,
:attr:`Hypergraph.net_weight_array`).  The compiled kernels and the
vectorized constructors consume them as they are, and an accidental
write raises instead of silently invalidating something derived from
them.  Because nothing can change, every derived value — weight
integrality, the gain bound, per-consumer statics — is computed at most
once per hypergraph and kept on the instance (:meth:`Hypergraph.cached`).

The interpreted FM and matching loops index single elements millions of
times, where Python-list indexing is several times faster than scalar
numpy access.  Those loops read :attr:`Hypergraph.raw_csr` and the
``*_weight_list`` views: plain-list copies materialized on first use, so
the compiled path never pays for them.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np


class Hypergraph:
    """A vertex- and net-weighted hypergraph.

    Instances are immutable: all mutation happens through
    :class:`repro.hypergraph.builder.HypergraphBuilder`.  The constructor
    accepts fully-formed pin lists and performs validation and CSR
    compression.

    Parameters
    ----------
    net_pins:
        One sequence of vertex ids per net.  Pins within a net must be
        unique (use the builder to de-duplicate raw netlists).
    num_vertices:
        Total vertex count.  Must cover every pin; isolated vertices (in
        no net) are allowed and commonly arise in real netlists.
    vertex_weights:
        Cell areas.  Defaults to unit areas.
    net_weights:
        Net weights.  Defaults to unit weights (plain cut-size objective).
    vertex_names / net_names:
        Optional external names preserved for I/O round-trips.
    """

    __slots__ = (
        "_num_vertices",
        "_num_nets",
        "_net_ptr",
        "_net_pins",
        "_vtx_ptr",
        "_vtx_nets",
        "_vertex_weights",
        "_net_weights",
        "_vertex_names",
        "_net_names",
        "_total_vertex_weight",
        "_integral_vertices",
        "_integral_nets",
        "_lists",
        "_derived",
    )

    def __init__(
        self,
        net_pins: Sequence[Sequence[int]],
        num_vertices: int,
        vertex_weights: Optional[Sequence[float]] = None,
        net_weights: Optional[Sequence[float]] = None,
        vertex_names: Optional[Sequence[str]] = None,
        net_names: Optional[Sequence[str]] = None,
    ) -> None:
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        num_nets = len(net_pins)
        net_ptr = np.zeros(num_nets + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter((len(p) for p in net_pins), np.int64, num_nets),
            out=net_ptr[1:],
        )
        pins = np.fromiter(
            itertools.chain.from_iterable(net_pins), np.int64, int(net_ptr[-1])
        )
        _check_pins(net_ptr, pins, num_vertices)
        vw = checked_weights(vertex_weights, num_vertices, "vertex")
        nw = checked_weights(net_weights, num_nets, "net")
        vertex_names = list(vertex_names) if vertex_names else None
        if vertex_names and len(vertex_names) != num_vertices:
            raise ValueError("vertex_names length mismatch")
        net_names = list(net_names) if net_names else None
        if net_names and len(net_names) != num_nets:
            raise ValueError("net_names length mismatch")
        self._adopt(
            num_vertices, net_ptr, pins, vw, nw, vertex_names, net_names
        )

    def _adopt(
        self,
        num_vertices: int,
        net_ptr,
        net_pins,
        vertex_weights,
        net_weights,
        vertex_names: Optional[List[str]],
        net_names: Optional[List[str]],
    ) -> None:
        """Freeze the arrays and compute the construction-time statics."""
        self._num_vertices = num_vertices
        self._net_ptr = _frozen(net_ptr, np.int64)
        self._net_pins = _frozen(net_pins, np.int64)
        self._num_nets = self._net_ptr.shape[0] - 1
        vtx_ptr, vtx_nets = _build_transpose(
            num_vertices, self._net_ptr, self._net_pins
        )
        self._vtx_ptr = _frozen(vtx_ptr, np.int64)
        self._vtx_nets = _frozen(vtx_nets, np.int64)
        vw = self._vertex_weights = _frozen(vertex_weights, np.float64)
        self._net_weights = _frozen(net_weights, np.float64)
        self._vertex_names = vertex_names
        self._net_names = net_names
        self._integral_vertices = _integral(vw)
        self._integral_nets = _integral(self._net_weights)
        # Integral weights sum exactly in any order; otherwise keep the
        # sequential float sum callers have always seen.
        self._total_vertex_weight = (
            float(vw.sum()) if self._integral_vertices
            else float(sum(vw.tolist()))
        )
        self._lists = [None] * 6
        self._derived = {}

    # ------------------------------------------------------------------
    # Trusted construction from flat CSR (kernel fast path)
    # ------------------------------------------------------------------
    @classmethod
    def from_csr(
        cls,
        net_ptr,
        net_pins,
        num_vertices: int,
        vertex_weights,
        net_weights,
        validate: bool = False,
        vertex_names: Optional[List[str]] = None,
        net_names: Optional[List[str]] = None,
    ) -> "Hypergraph":
        """Build a hypergraph directly from flat CSR arrays.

        This is the fast path for kernel-built hypergraphs (the coarsening
        kernels, the netlist builder, the ``.hgr`` reader, unpickling):
        the caller *transfers ownership* of the arguments, which
        may be lists or numpy arrays.  Contiguous arrays of the right
        dtype are adopted without copying and frozen; CSR arguments given
        as lists also become the interpreted loops' list views.  Unless
        ``validate`` is set nothing is
        re-checked, on the contract that pins are in range and
        duplicate-free within each net, weights are finite, non-negative
        and of the right length, and ``net_ptr`` is a proper monotone prefix
        array.

        ``validate=True`` applies the same checks as the list-of-lists
        constructor (useful when adopting CSR data of uncertain origin).
        """
        if validate:
            if num_vertices < 0:
                raise ValueError("num_vertices must be non-negative")
            ptr = np.asarray(net_ptr, dtype=np.int64)
            pins = np.asarray(net_pins, dtype=np.int64)
            if ptr.size == 0 or ptr[0] != 0 or ptr[-1] != pins.size:
                raise ValueError("net_ptr is not a valid prefix array")
            if (np.diff(ptr) < 0).any():
                raise ValueError("net_ptr is not monotone")
            _check_pins(ptr, pins, num_vertices)
            vertex_weights = checked_weights(
                vertex_weights, num_vertices, "vertex"
            )
            net_weights = checked_weights(net_weights, ptr.size - 1, "net")
            if vertex_names is not None and len(vertex_names) != num_vertices:
                raise ValueError("vertex_names length mismatch")
            if net_names is not None and len(net_names) != ptr.size - 1:
                raise ValueError("net_names length mismatch")
        hg = object.__new__(cls)
        hg._adopt(
            num_vertices,
            net_ptr,
            net_pins,
            vertex_weights,
            net_weights,
            vertex_names,
            net_names,
        )
        # A list-building producer already paid for the list form.
        for i, values in enumerate((net_ptr, net_pins)):
            if type(values) is list:
                hg._lists[i] = values
        return hg

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------
    def __reduce__(self):
        """Pickle as the :meth:`from_csr` arguments, net side only.

        Loading rebuilds the transpose, the integrality flags and the
        weight total, which keeps a pickle about 40% smaller than one
        carrying both incidence directions; the list views and the
        :meth:`cached` memo start empty, as on any new instance.
        """
        return Hypergraph.from_csr, (
            self._net_ptr,
            self._net_pins,
            self._num_vertices,
            self._vertex_weights,
            self._net_weights,
            False,
            self._vertex_names,
            self._net_names,
        )

    # ------------------------------------------------------------------
    # Size accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices (cells)."""
        return self._num_vertices

    @property
    def num_nets(self) -> int:
        """Number of nets (hyperedges)."""
        return self._num_nets

    @property
    def num_pins(self) -> int:
        """Total number of pins (sum of net sizes)."""
        return self._net_pins.shape[0]

    @property
    def total_vertex_weight(self) -> float:
        """Sum of all vertex weights (total cell area)."""
        return self._total_vertex_weight

    @property
    def integral_vertex_weights(self) -> bool:
        """True when every vertex weight is an integer value."""
        return self._integral_vertices

    @property
    def integral_net_weights(self) -> bool:
        """True when every net weight is an integer value (the regime of
        the exact integer cut ledger)."""
        return self._integral_nets

    # ------------------------------------------------------------------
    # The immutable arrays and values derived from them
    # ------------------------------------------------------------------
    @property
    def csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only int64 ``(net_ptr, net_pins, vtx_ptr, vtx_nets)``."""
        return self._net_ptr, self._net_pins, self._vtx_ptr, self._vtx_nets

    @property
    def vertex_weight_array(self) -> np.ndarray:
        """Read-only float64 vertex weights."""
        return self._vertex_weights

    @property
    def net_weight_array(self) -> np.ndarray:
        """Read-only float64 net weights."""
        return self._net_weights

    def cached(self, build: Callable[["Hypergraph"], Any]) -> Any:
        """``build(self)``, computed once per hypergraph.

        The memo for values derived from this hypergraph's immutable
        arrays: consumers keep their per-instance statics here instead
        of in module-level caches, so an entry is keyed on the instance
        (and on ``build`` itself, which must therefore be a module-level
        function) and dies with it.
        """
        derived = self._derived
        try:
            return derived[build]
        except KeyError:
            value = derived[build] = build(self)
            return value

    def int_net_weights(self) -> np.ndarray:
        """Net weights rounded to read-only int64 (cached).

        Raises ``ValueError`` unless every weight lies within 1e-9 of an
        integer — the regime FM gain buckets require.
        """
        return self.cached(_int_net_weights)

    def int_vertex_weights(self) -> np.ndarray:
        """Vertex weights as read-only int64 (cached).

        Meaningful only when :attr:`integral_vertex_weights` holds and
        every weight fits int64.  The compiled FM kernel reads its areas
        from here, and :class:`~repro.core.partition.Partition2` sums
        part weights with it: an int64 product runs in numpy's own loop,
        never in BLAS.
        """
        return self.cached(_int_vertex_weights)

    @property
    def max_weighted_degree(self) -> int:
        """Largest sum of :meth:`int_net_weights` over one vertex's nets
        (cached); ``2 * max_weighted_degree + 1`` bounds every FM gain
        and CLIP key."""
        return self.cached(_max_weighted_degree)

    # ------------------------------------------------------------------
    # Plain-list views for the interpreted loops
    # ------------------------------------------------------------------
    def _list_view(self, i: int) -> list:
        """List copy of array ``i`` of :data:`_ARRAYS`, built on first use."""
        view = self._lists[i]
        if view is None:
            view = self._lists[i] = getattr(self, _ARRAYS[i]).tolist()
        return view

    @property
    def raw_csr(
        self,
    ) -> Tuple[List[int], List[int], List[int], List[int]]:
        """List views ``(net_ptr, net_pins, vtx_ptr, vtx_nets)``.

        For the interpreted inner loops: built on first use and shared,
        so callers must not mutate them.  Vectorized and compiled
        consumers read :attr:`csr` instead.
        """
        view = self._list_view
        return view(0), view(1), view(2), view(3)

    @property
    def vertex_weight_list(self) -> List[float]:
        """Shared list view of the vertex weights (do not mutate)."""
        return self._list_view(4)

    @property
    def net_weight_list(self) -> List[float]:
        """Shared list view of the net weights (do not mutate)."""
        return self._list_view(5)

    # ------------------------------------------------------------------
    # Weights and names
    # ------------------------------------------------------------------
    def vertex_weight(self, v: int) -> float:
        """Weight (area) of vertex ``v``."""
        return self._list_view(4)[v]

    def net_weight(self, e: int) -> float:
        """Weight of net ``e``."""
        return self._list_view(5)[e]

    @property
    def vertex_weights(self) -> List[float]:
        """All vertex weights (copy)."""
        return self._vertex_weights.tolist()

    @property
    def net_weights(self) -> List[float]:
        """All net weights (copy)."""
        return self._net_weights.tolist()

    def vertex_name(self, v: int) -> str:
        """External name of vertex ``v`` (synthesized if absent)."""
        if self._vertex_names is not None:
            return self._vertex_names[v]
        return f"v{v}"

    def net_name(self, e: int) -> str:
        """External name of net ``e`` (synthesized if absent)."""
        if self._net_names is not None:
            return self._net_names[e]
        return f"n{e}"

    # ------------------------------------------------------------------
    # Incidence traversal
    # ------------------------------------------------------------------
    def pins_of(self, e: int) -> List[int]:
        """Vertices on net ``e`` (fresh list)."""
        net_ptr, net_pins = self._list_view(0), self._list_view(1)
        return net_pins[net_ptr[e] : net_ptr[e + 1]]

    def nets_of(self, v: int) -> List[int]:
        """Nets incident to vertex ``v`` (fresh list)."""
        vtx_ptr, vtx_nets = self._list_view(2), self._list_view(3)
        return vtx_nets[vtx_ptr[v] : vtx_ptr[v + 1]]

    def net_size(self, e: int) -> int:
        """Number of pins of net ``e``."""
        net_ptr = self._list_view(0)
        return net_ptr[e + 1] - net_ptr[e]

    def degree(self, v: int) -> int:
        """Number of nets incident to vertex ``v``."""
        vtx_ptr = self._list_view(2)
        return vtx_ptr[v + 1] - vtx_ptr[v]

    def nets(self) -> range:
        """Iterable over net ids."""
        return range(self._num_nets)

    def vertices(self) -> range:
        """Iterable over vertex ids."""
        return range(self._num_vertices)

    # ------------------------------------------------------------------
    # Objective evaluation
    # ------------------------------------------------------------------
    def cut_size(self, assignment: Sequence[int]) -> float:
        """Weighted cut of ``assignment`` (net-cut objective).

        A net is cut when its pins do not all lie in a single partition.
        Works for any number of parts; pin-less nets are never cut.
        """
        if len(assignment) != self._num_vertices:
            raise ValueError("assignment length mismatch")
        total = 0.0
        net_ptr, net_pins = self._list_view(0), self._list_view(1)
        net_weights = self._list_view(5)
        for e in range(self._num_nets):
            lo, hi = net_ptr[e], net_ptr[e + 1]
            if hi - lo < 2:
                continue
            first = assignment[net_pins[lo]]
            for i in range(lo + 1, hi):
                if assignment[net_pins[i]] != first:
                    total += net_weights[e]
                    break
        return total

    def connectivity_cut(self, assignment: Sequence[int]) -> float:
        """(k-1)-connectivity objective: ``sum_e w_e * (lambda_e - 1)``.

        ``lambda_e`` is the number of distinct parts spanned by net ``e``.
        Equals :meth:`cut_size` for 2-way partitions.
        """
        if len(assignment) != self._num_vertices:
            raise ValueError("assignment length mismatch")
        total = 0.0
        net_ptr, net_pins = self._list_view(0), self._list_view(1)
        net_weights = self._list_view(5)
        for e in range(self._num_nets):
            lo, hi = net_ptr[e], net_ptr[e + 1]
            if hi - lo < 2:
                continue
            parts = {assignment[net_pins[i]] for i in range(lo, hi)}
            if len(parts) > 1:
                total += net_weights[e] * (len(parts) - 1)
        return total

    def part_weights(self, assignment: Sequence[int], k: int = 2) -> List[float]:
        """Total vertex weight per part under ``assignment``."""
        weights = [0.0] * k
        vwt = self.vertex_weight_list
        for v in range(self._num_vertices):
            weights[assignment[v]] += vwt[v]
        return weights

    # ------------------------------------------------------------------
    # Derived hypergraphs
    # ------------------------------------------------------------------
    def induced_subgraph(
        self, vertex_ids: Iterable[int]
    ) -> Tuple["Hypergraph", List[int]]:
        """Subhypergraph induced by ``vertex_ids``.

        Nets are restricted to the kept pins; nets left with fewer than
        two pins are dropped (they can never be cut).  Returns the new
        hypergraph and the list mapping new vertex ids to old ids.
        """
        keep = sorted(set(vertex_ids))
        old_to_new = {old: new for new, old in enumerate(keep)}
        vertex_weights = self._list_view(4)
        net_weights = self._list_view(5)
        new_nets: List[List[int]] = []
        new_net_weights: List[float] = []
        for e in range(self._num_nets):
            pins = [old_to_new[v] for v in self.pins_of(e) if v in old_to_new]
            if len(pins) >= 2:
                new_nets.append(pins)
                new_net_weights.append(net_weights[e])
        sub = Hypergraph(
            new_nets,
            num_vertices=len(keep),
            vertex_weights=[vertex_weights[v] for v in keep],
            net_weights=new_net_weights,
            vertex_names=(
                [self._vertex_names[v] for v in keep]
                if self._vertex_names
                else None
            ),
        )
        return sub, keep

    def __repr__(self) -> str:
        return (
            f"Hypergraph(|V|={self._num_vertices}, |E|={self._num_nets}, "
            f"pins={self.num_pins}, area={self._total_vertex_weight:g})"
        )


# ----------------------------------------------------------------------
#: The array slots, in the order of :meth:`Hypergraph._list_view` indices.
_ARRAYS = (
    "_net_ptr",
    "_net_pins",
    "_vtx_ptr",
    "_vtx_nets",
    "_vertex_weights",
    "_net_weights",
)


def _frozen(values, dtype) -> np.ndarray:
    """``values`` as a read-only contiguous 1-d array of ``dtype``
    (adopted without a copy when it already is one)."""
    arr = np.ascontiguousarray(values, dtype=dtype)
    if arr.ndim != 1:
        raise ValueError("CSR and weight arrays must be one-dimensional")
    arr.flags.writeable = False
    return arr


def _integral(weights: np.ndarray) -> bool:
    """True when every weight is a finite integer value."""
    return bool((np.mod(weights, 1.0) == 0.0).all())


def checked_weights(values, count: int, kind: str) -> np.ndarray:
    """Validated float64 copy of a ``kind`` ("vertex"/"net") weight
    vector; unit weights when ``values`` is ``None``."""
    if values is None:
        return np.ones(count, dtype=np.float64)
    if len(values) != count:
        raise ValueError(f"{kind}_weights length mismatch")
    arr = np.array(values, dtype=np.float64)
    bad = np.flatnonzero((arr < 0) | ~np.isfinite(arr))
    if bad.size:
        i = int(bad[0])
        checked_weight(kind, i, float(arr[i]))  # raises with the message
    return arr


def checked_weight(kind: str, index: int, weight: float) -> float:
    """``weight`` as a float; raises ``ValueError`` naming ``kind`` and
    ``index`` when it is negative or not finite (a NaN area fails every
    balance check, an infinite one passes every one)."""
    w = float(weight)
    if w < 0:
        raise ValueError(f"{kind} {index} has negative weight {w}")
    if not math.isfinite(w):
        raise ValueError(f"{kind} {index} has non-finite weight {w}")
    return w


def stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of int64 ``keys`` in ``[0, bound)``.

    Sorting the distinct composites ``key * len + slot`` gives the same
    order several times faster than numpy's stable argsort; keys too
    wide for the composite to fit int64 take the argsort.
    """
    size = keys.shape[0]
    if size == 0 or bound * size >= 1 << 62:
        return np.argsort(keys, kind="stable")
    return np.sort(keys * size + np.arange(size, dtype=np.int64)) % size


def repeated_pins(
    net_ptr: np.ndarray, pins: np.ndarray, num_vertices: int
) -> np.ndarray:
    """Mask of the pin slots that repeat an earlier pin of their net
    (one stable sort by (net, pin); out-of-range pins compare as the
    nearest out-of-range value)."""
    num_nets = net_ptr.shape[0] - 1
    owner = np.repeat(np.arange(num_nets, dtype=np.int64), np.diff(net_ptr))
    width = num_vertices + 2
    key = owner * width + (np.clip(pins, -1, num_vertices) + 1)
    order = stable_order(key, num_nets * width)
    repeat = np.zeros(pins.shape[0], dtype=bool)
    repeat[order[1:]] = key[order[1:]] == key[order[:-1]]
    return repeat


def _check_pins(net_ptr: np.ndarray, pins: np.ndarray, num_vertices: int) -> None:
    """Raise for the first pin (in CSR order) that is out of range or
    repeats an earlier pin of its net."""
    bad = (pins < 0) | (pins >= num_vertices)
    flagged = np.flatnonzero(bad | repeated_pins(net_ptr, pins, num_vertices))
    if flagged.size == 0:
        return
    i = int(flagged[0])
    e = int(np.searchsorted(net_ptr, i, side="right")) - 1
    v = int(pins[i])
    if bad[i]:
        raise ValueError(
            f"net {e} references vertex {v} outside [0, {num_vertices})"
        )
    raise ValueError(f"net {e} has duplicate pin {v}")


def _build_transpose(
    num_vertices: int, net_ptr: np.ndarray, net_pins: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Vertex -> nets CSR from the net -> pins CSR (nets ascending per
    vertex): a stable sort of the pin slots by vertex."""
    vtx_ptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(net_pins, minlength=num_vertices), out=vtx_ptr[1:])
    owner = np.repeat(
        np.arange(net_ptr.shape[0] - 1, dtype=np.int64), np.diff(net_ptr)
    )
    return vtx_ptr, owner[stable_order(net_pins, num_vertices)]


def _int_net_weights(hg: Hypergraph) -> np.ndarray:
    nw = hg.net_weight_array
    rounded = np.rint(nw)
    off = np.flatnonzero(~(np.abs(nw - rounded) <= 1e-9))
    if off.size:
        e = int(off[0])
        raise ValueError(
            "FM gain buckets require integral net weights; "
            f"net {e} has weight {float(nw[e])}"
        )
    out = rounded.astype(np.int64)
    out.flags.writeable = False
    return out


def _int_vertex_weights(hg: Hypergraph) -> np.ndarray:
    out = hg.vertex_weight_array.astype(np.int64)
    out.flags.writeable = False
    return out


def _max_weighted_degree(hg: Hypergraph) -> int:
    if hg.num_vertices == 0:
        return 0
    _, _, vtx_ptr, vtx_nets = hg.csr
    prefix = np.zeros(vtx_nets.shape[0] + 1, dtype=np.int64)
    np.cumsum(hg.int_net_weights()[vtx_nets], out=prefix[1:])
    return int((prefix[vtx_ptr[1:]] - prefix[vtx_ptr[:-1]]).max())

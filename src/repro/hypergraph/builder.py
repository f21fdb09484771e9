"""Incremental hypergraph construction.

Real netlists arrive as streams of named cells and nets with messy pin
lists (duplicate pins, dangling single-pin nets).  The builder cleans
these up and produces an immutable :class:`Hypergraph`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.hypergraph.hypergraph import Hypergraph, checked_weight


class HypergraphBuilder:
    """Builds a :class:`Hypergraph` incrementally.

    Vertices may be declared explicitly via :meth:`add_vertex` or
    implicitly by name through :meth:`add_net`.  Duplicate pins within a
    net are silently merged (a cell connected twice to the same net is a
    single pin for partitioning purposes).

    Parameters
    ----------
    drop_small_nets:
        When True (default), nets with fewer than two distinct pins are
        dropped at :meth:`build` time — they cannot contribute to any cut.
    """

    def __init__(self, drop_small_nets: bool = True) -> None:
        self._drop_small_nets = drop_small_nets
        self._vertex_ids: Dict[str, int] = {}
        self._vertex_weights: List[float] = []
        self._vertex_names: List[str] = []
        self._nets: List[List[int]] = []
        self._net_weights: List[float] = []
        self._net_names: List[str] = []

    @property
    def num_vertices(self) -> int:
        """Vertices added so far."""
        return len(self._vertex_names)

    @property
    def num_nets(self) -> int:
        """Nets added so far (before small-net dropping)."""
        return len(self._nets)

    def add_vertex(self, name: Optional[str] = None, weight: float = 1.0) -> int:
        """Add one vertex and return its id.

        Raises ``ValueError`` on duplicate names or on negative or
        non-finite weights.
        """
        vid = len(self._vertex_names)
        weight = checked_weight("vertex", vid, weight)
        if name is None:
            name = f"v{vid}"
        if name in self._vertex_ids:
            raise ValueError(f"duplicate vertex name {name!r}")
        self._vertex_ids[name] = vid
        self._vertex_names.append(name)
        self._vertex_weights.append(weight)
        return vid

    def vertex_id(self, name: str) -> int:
        """Id of a previously added vertex, creating it if unknown."""
        vid = self._vertex_ids.get(name)
        if vid is None:
            vid = self.add_vertex(name)
        return vid

    def set_vertex_weight(self, v: int, weight: float) -> None:
        """Override the weight of vertex ``v`` (e.g. from an ``.are`` file)."""
        self._vertex_weights[v] = checked_weight("vertex", v, weight)

    def add_net(
        self,
        pins: Iterable[int],
        weight: float = 1.0,
        name: Optional[str] = None,
    ) -> int:
        """Add one net over vertex ids ``pins``; returns the net id.

        Duplicate pins are merged.  Pins must already exist.
        """
        eid = len(self._nets)
        weight = checked_weight("net", eid, weight)
        unique: List[int] = []
        seen = set()
        for v in pins:
            if not 0 <= v < len(self._vertex_names):
                raise ValueError(f"pin {v} references unknown vertex")
            if v not in seen:
                seen.add(v)
                unique.append(v)
        self._nets.append(unique)
        self._net_weights.append(weight)
        self._net_names.append(name if name is not None else f"n{eid}")
        return eid

    def add_net_by_names(
        self,
        pin_names: Iterable[str],
        weight: float = 1.0,
        name: Optional[str] = None,
    ) -> int:
        """Add a net over vertex *names*, creating unknown vertices."""
        return self.add_net(
            (self.vertex_id(p) for p in pin_names), weight=weight, name=name
        )

    def build(self) -> Hypergraph:
        """Produce the immutable hypergraph.

        Pins and weights were validated (and pins de-duplicated) at add
        time, so the builder assembles flat CSR arrays and takes the
        trusted :meth:`Hypergraph.from_csr` path — no second validation
        pass over the whole netlist.
        """
        if self._drop_small_nets:
            kept = [
                (pins, w, nm)
                for pins, w, nm in zip(
                    self._nets, self._net_weights, self._net_names
                )
                if len(pins) >= 2
            ]
        else:
            kept = list(zip(self._nets, self._net_weights, self._net_names))
        net_ptr = [0] * (len(kept) + 1)
        flat_pins: List[int] = []
        for e, (pins, _, _) in enumerate(kept):
            flat_pins.extend(pins)
            net_ptr[e + 1] = len(flat_pins)
        return Hypergraph.from_csr(
            net_ptr,
            flat_pins,
            num_vertices=len(self._vertex_names),
            vertex_weights=list(self._vertex_weights),
            net_weights=[float(w) for _, w, _ in kept],
            vertex_names=list(self._vertex_names),
            net_names=[nm for _, _, nm in kept],
        )

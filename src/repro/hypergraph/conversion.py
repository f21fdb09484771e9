"""Conversions between hypergraphs and ordinary graphs.

Move-based partitioners work on the hypergraph directly, but several
baselines (Kernighan-Lin, spectral bisection) need a graph.  Two standard
models are provided:

* **Clique expansion** — each net of size ``s`` becomes a clique with
  edge weight ``w / (s - 1)`` (the "standard" net model; exact for
  2-pin nets, an approximation for larger nets).
* **Star expansion** — each net becomes a zero-weight auxiliary vertex
  connected to its pins; preserves hypergraph cuts exactly in a
  vertex-separator sense.

``import repro`` loads this module, so networkx (about 0.1 s and 13 MB)
is imported only inside the two functions that build NetworkX graphs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

from repro.hypergraph.hypergraph import Hypergraph

if TYPE_CHECKING:
    import networkx as nx


def clique_expansion(hypergraph: Hypergraph) -> Dict[Tuple[int, int], float]:
    """Weighted edge dict ``{(u, v): w}`` of the clique expansion.

    Edges are keyed with ``u < v``; parallel contributions from multiple
    nets accumulate.  Nets below two pins contribute nothing.
    """
    edges: Dict[Tuple[int, int], float] = {}
    for e in range(hypergraph.num_nets):
        pins = hypergraph.pins_of(e)
        s = len(pins)
        if s < 2:
            continue
        w = hypergraph.net_weight(e) / (s - 1)
        for i in range(s):
            for j in range(i + 1, s):
                u, v = pins[i], pins[j]
                key = (u, v) if u < v else (v, u)
                edges[key] = edges.get(key, 0.0) + w
    return edges


def star_expansion(hypergraph: Hypergraph) -> nx.Graph:
    """Bipartite star expansion as a NetworkX graph.

    Cell vertices keep their integer ids; net vertices are the strings
    ``"net<e>"``.  Cell nodes carry ``weight`` (area) attributes; edges
    carry the net weight.
    """
    import networkx as nx

    graph = nx.Graph()
    for v in range(hypergraph.num_vertices):
        graph.add_node(v, weight=hypergraph.vertex_weight(v), kind="cell")
    for e in range(hypergraph.num_nets):
        net_node = f"net{e}"
        graph.add_node(net_node, weight=0.0, kind="net")
        for v in hypergraph.pins_of(e):
            graph.add_edge(net_node, v, weight=hypergraph.net_weight(e))
    return graph


def to_networkx(hypergraph: Hypergraph) -> nx.Graph:
    """Clique expansion as a NetworkX graph with area/weight attributes."""
    import networkx as nx

    graph = nx.Graph()
    for v in range(hypergraph.num_vertices):
        graph.add_node(v, weight=hypergraph.vertex_weight(v))
    for (u, v), w in clique_expansion(hypergraph).items():
        graph.add_edge(u, v, weight=w)
    return graph

"""Hypergraph substrate: data structure, construction, I/O, statistics.

This package provides the vertex- and hyperedge-weighted hypergraph model
used throughout the library.  A hypergraph ``H = (V, E)`` is stored in a
compressed (CSR-style) form with both directions of the incidence relation
materialized, so that FM-style inner loops can traverse "nets of a vertex"
and "pins of a net" with zero per-query allocation.

Public entry points
-------------------
``Hypergraph``
    The core immutable data structure.
``HypergraphBuilder``
    Incremental construction with name handling and pin de-duplication.
``read_hgr`` / ``write_hgr``
    hMetis ``.hgr`` text format; malformed input raises
    ``HgrFormatError``, a ``ValueError`` naming the file line.
``read_netd`` / ``write_netd``
    ISPD98 ``.netD`` + ``.are`` netlist format (as used by the IBM
    benchmark suite the paper reports on).
``hypergraph_stats``
    Instance statistics matching Section 2.1 of the paper (sparsity,
    degree and net-size distributions, area spread).
"""

from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.builder import HypergraphBuilder
from repro.hypergraph.io_hmetis import HgrFormatError, read_hgr, write_hgr
from repro.hypergraph.io_netd import read_netd, write_netd
from repro.hypergraph.io_fix import read_fix, write_fix
from repro.hypergraph.io_solution import read_solution, write_solution
from repro.hypergraph.rent import RentFit, external_nets, rent_analysis
from repro.hypergraph.stats import HypergraphStats, hypergraph_stats
from repro.hypergraph.validate import validate_hypergraph
from repro.hypergraph.conversion import (
    clique_expansion,
    star_expansion,
    to_networkx,
)

__all__ = [
    "HgrFormatError",
    "Hypergraph",
    "HypergraphBuilder",
    "read_hgr",
    "write_hgr",
    "read_fix",
    "read_netd",
    "read_solution",
    "write_fix",
    "write_netd",
    "write_solution",
    "HypergraphStats",
    "RentFit",
    "external_nets",
    "rent_analysis",
    "hypergraph_stats",
    "validate_hypergraph",
    "clique_expansion",
    "star_expansion",
    "to_networkx",
]

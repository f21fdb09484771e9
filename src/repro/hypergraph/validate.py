"""Structural validation of hypergraphs.

The paper stresses that weak testbeds produce wrong conclusions; a first
line of defence is validating every instance before experiments run.
"""

from __future__ import annotations

from typing import List

from repro.hypergraph.hypergraph import Hypergraph, checked_weights


class HypergraphValidationError(ValueError):
    """Raised when a hypergraph fails structural validation."""


def validate_hypergraph(
    hypergraph: Hypergraph,
    allow_isolated_vertices: bool = True,
    allow_small_nets: bool = True,
) -> List[str]:
    """Check internal consistency; return a list of warnings.

    Hard inconsistencies (CSR corruption, dangling pins, negative or
    non-finite weights) raise :class:`HypergraphValidationError`.  Soft
    issues — isolated vertices or sub-2-pin nets when the respective
    ``allow_*`` flag is True — are returned as human-readable warnings.
    """
    warnings: List[str] = []
    net_ptr, net_pins, vtx_ptr, vtx_nets = hypergraph.raw_csr

    if len(net_ptr) != hypergraph.num_nets + 1:
        raise HypergraphValidationError("net_ptr length mismatch")
    if len(vtx_ptr) != hypergraph.num_vertices + 1:
        raise HypergraphValidationError("vtx_ptr length mismatch")
    if net_ptr[0] != 0 or net_ptr[-1] != len(net_pins):
        raise HypergraphValidationError("net_ptr endpoints corrupt")
    if vtx_ptr[0] != 0 or vtx_ptr[-1] != len(vtx_nets):
        raise HypergraphValidationError("vtx_ptr endpoints corrupt")
    if len(net_pins) != len(vtx_nets):
        raise HypergraphValidationError("pin count differs between directions")

    for e in range(hypergraph.num_nets):
        if net_ptr[e] > net_ptr[e + 1]:
            raise HypergraphValidationError(f"net_ptr not monotone at {e}")
        pins = hypergraph.pins_of(e)
        if len(set(pins)) != len(pins):
            raise HypergraphValidationError(f"net {e} has duplicate pins")
        for v in pins:
            if not 0 <= v < hypergraph.num_vertices:
                raise HypergraphValidationError(f"net {e} pin {v} out of range")
        if len(pins) < 2:
            if not allow_small_nets:
                raise HypergraphValidationError(f"net {e} has {len(pins)} pins")
            warnings.append(f"net {e} has only {len(pins)} pin(s)")

    # Cross-check the transposed incidence.
    for v in range(hypergraph.num_vertices):
        for e in hypergraph.nets_of(v):
            if v not in hypergraph.pins_of(e):
                raise HypergraphValidationError(
                    f"vertex {v} lists net {e} but net lacks the pin"
                )
        if hypergraph.degree(v) == 0:
            if not allow_isolated_vertices:
                raise HypergraphValidationError(f"vertex {v} is isolated")
            warnings.append(f"vertex {v} is isolated")

    try:
        checked_weights(hypergraph.vertex_weight_array,
                        hypergraph.num_vertices, "vertex")
        checked_weights(hypergraph.net_weight_array,
                        hypergraph.num_nets, "net")
    except ValueError as exc:
        raise HypergraphValidationError(str(exc)) from exc

    return warnings

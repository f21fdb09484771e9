"""Spectral bisection baseline (Fiedler vector + balanced sweep cut).

Spectral methods (Wei-Cheng ratio cut, Chan-Schlag-Zien scaled cost, both
cited by the paper) order vertices by the second-smallest Laplacian
eigenvector of the clique-expanded graph and choose a split point along
that ordering.  Here the split point is swept to the best *legal* cut
under the paper's area-balance convention, giving a deterministic,
non-move-based comparator for the evaluation exhibits.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from repro.core.balance import BalanceConstraint
from repro.core.partitioner import PartitionResult
from repro.hypergraph.conversion import clique_expansion
from repro.hypergraph.hypergraph import Hypergraph


class SpectralPartitioner:
    """Fiedler-vector bisection with a balance-legal sweep cut.

    Deterministic (the ``seed`` argument only perturbs the eigensolver
    start vector, giving multistart variety without changing quality
    materially).
    """

    def __init__(self, tolerance: float = 0.02) -> None:
        self.tolerance = tolerance
        self.name = "Spectral (Fiedler sweep)"

    def partition(
        self,
        hypergraph: Hypergraph,
        seed: int = 0,
        fixed_parts: Optional[Sequence[Optional[int]]] = None,
    ) -> PartitionResult:
        """Compute the Fiedler ordering and the best legal sweep split."""
        if fixed_parts is not None and any(p is not None for p in fixed_parts):
            raise NotImplementedError(
                "spectral baseline does not support fixed vertices"
            )
        start_time = time.perf_counter()
        n = hypergraph.num_vertices
        order = self._fiedler_order(hypergraph, seed)
        balance = BalanceConstraint(hypergraph.total_vertex_weight, self.tolerance)

        # Sweep: prefix of the ordering goes to part 0.  Track the cut
        # incrementally with per-net pin counts.
        pins0 = [0] * hypergraph.num_nets
        sizes = [hypergraph.net_size(e) for e in hypergraph.nets()]
        cut = 0.0
        weight0 = 0.0
        best_cut = float("inf")
        best_k = -1
        position = [0] * n
        for k, v in enumerate(order):
            position[v] = 1
            weight0 += hypergraph.vertex_weight(v)
            for e in hypergraph.nets_of(v):
                before = pins0[e]
                pins0[e] = before + 1
                if sizes[e] >= 2:
                    if before == 0:
                        cut += hypergraph.net_weight(e)
                    if pins0[e] == sizes[e]:
                        cut -= hypergraph.net_weight(e)
            if balance.lower_bound <= weight0 <= balance.upper_bound:
                if cut < best_cut:
                    best_cut = cut
                    best_k = k
        if best_k < 0:
            # No legal sweep point (pathological areas): fall back to the
            # closest-to-balanced point.
            best_k = n // 2 - 1

        assignment = [1] * n
        for v in order[: best_k + 1]:
            assignment[v] = 0
        cut_final = hypergraph.cut_size(assignment)
        weights = hypergraph.part_weights(assignment)
        return PartitionResult(
            assignment=assignment,
            cut=cut_final,
            part_weights=weights,
            legal=balance.is_legal(weights),
            runtime_seconds=time.perf_counter() - start_time,
        )

    @staticmethod
    def _fiedler_order(hypergraph: Hypergraph, seed: int) -> List[int]:
        """Vertex ordering by the Fiedler vector of the clique expansion."""
        # Imported here so that ``import repro.baselines`` loads no scipy.
        import scipy.sparse
        import scipy.sparse.linalg

        n = hypergraph.num_vertices
        edges = clique_expansion(hypergraph)
        if not edges:
            return list(range(n))
        rows, cols, vals = [], [], []
        for (u, v), w in edges.items():
            rows += [u, v]
            cols += [v, u]
            vals += [-w, -w]
        adj = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        degree = -np.asarray(adj.sum(axis=1)).ravel()
        laplacian = adj + scipy.sparse.diags(degree)
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(n)
        try:
            _, vectors = scipy.sparse.linalg.eigsh(
                laplacian, k=2, sigma=-1e-3, which="LM", v0=v0
            )
            fiedler = vectors[:, 1]
        except Exception:
            # Shift-invert can fail on tiny/degenerate instances; dense
            # fallback is fine there.
            dense = laplacian.toarray()
            _, vecs = np.linalg.eigh(dense)
            fiedler = vecs[:, 1] if n > 1 else np.zeros(n)
        return sorted(range(n), key=lambda v: (fiedler[v], v))

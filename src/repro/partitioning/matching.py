"""Heavy-edge matching for the coarsening phase.

Multilevel partitioners (Karypis & Kumar [15, 16]) coarsen by repeatedly
collapsing a matching of the graph.  *Heavy-edge matching* visits vertices
in random order and matches each unmatched vertex with its unmatched
neighbor of maximum edge weight, which concentrates weight inside coarse
vertices and keeps the coarse cut representative of the fine cut.
"""

from __future__ import annotations

import numpy as np

from repro.partitioning.wgraph import WGraph

__all__ = ["heavy_edge_matching"]


def heavy_edge_matching(wgraph: WGraph, rng: np.random.Generator) -> np.ndarray:
    """Return ``match`` where ``match[v]`` is ``v``'s partner (or ``v``).

    Visits vertices in random order; an unmatched vertex grabs its heaviest
    unmatched neighbor.  Unmatchable vertices stay matched to themselves.
    """
    n = wgraph.num_vertices
    order = rng.permutation(n).tolist()
    indptr, indices, eweights, _ = wgraph.tolists()
    match = [-1] * n
    for v in order:
        if match[v] >= 0:
            continue
        best = -1
        best_weight = -1
        for j in range(indptr[v], indptr[v + 1]):
            u = indices[j]
            if match[u] >= 0 or u == v:
                continue
            w = eweights[j]
            if w > best_weight:
                best_weight = w
                best = u
        if best >= 0:
            match[v] = best
            match[best] = v
        else:
            match[v] = v
    return np.array(match, dtype=np.int64)

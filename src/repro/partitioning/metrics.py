"""Partition-quality metrics.

The paper's objective is to minimize the number of cross-partition edges
subject to balanced partition sizes (Section 2), and it reports quality as
the *inner edge ratio* ``ier = ie / |E|`` (Table 5).
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitioningError
from repro.graph.digraph import Graph
from repro.partitioning.wgraph import WGraph

__all__ = [
    "edge_cut",
    "weighted_cut",
    "inner_edge_ratio",
    "balance",
    "partition_sizes",
    "validate_assignment",
]


def validate_assignment(parts: np.ndarray, num_vertices: int,
                        num_parts: int | None = None) -> np.ndarray:
    """Check an assignment array and return it as int64."""
    parts = np.asarray(parts, dtype=np.int64)
    if parts.shape != (num_vertices,):
        raise PartitioningError(
            f"assignment must have shape ({num_vertices},), got {parts.shape}"
        )
    if parts.size and parts.min() < 0:
        raise PartitioningError("negative partition id")
    if num_parts is not None and parts.size and parts.max() >= num_parts:
        raise PartitioningError("partition id exceeds num_parts")
    return parts


def edge_cut(graph: Graph, parts: np.ndarray) -> int:
    """Number of directed edges whose endpoints lie in different parts."""
    parts = validate_assignment(parts, graph.num_vertices)
    src = graph.edge_sources()
    dst = graph.out_indices
    return int(np.count_nonzero(parts[src] != parts[dst]))


def weighted_cut(wgraph: WGraph, parts: np.ndarray) -> int:
    """Total weight of cut undirected edges in a :class:`WGraph`."""
    parts = validate_assignment(parts, wgraph.num_vertices)
    cut = parts[wgraph.edge_sources()] != parts[wgraph.indices]
    return int(wgraph.eweights[cut].sum() // 2)


def inner_edge_ratio(graph: Graph, parts: np.ndarray) -> float:
    """``ier = inner_edges / |E|`` as defined in Appendix F."""
    if graph.num_edges == 0:
        return 1.0
    return 1.0 - edge_cut(graph, parts) / graph.num_edges


def partition_sizes(parts: np.ndarray, num_parts: int,
                    weights: np.ndarray | None = None) -> np.ndarray:
    """Vertex count (or total weight) per partition."""
    parts = np.asarray(parts, dtype=np.int64)
    if weights is None:
        return np.bincount(parts, minlength=num_parts).astype(np.int64)
    return np.bincount(parts, weights=weights, minlength=num_parts).astype(np.int64)


def balance(parts: np.ndarray, num_parts: int,
            weights: np.ndarray | None = None) -> float:
    """Load imbalance: ``max_part_weight / ideal_part_weight`` (>= 1.0)."""
    sizes = partition_sizes(parts, num_parts, weights)
    total = sizes.sum()
    if total == 0:
        return 1.0
    ideal = total / num_parts
    return float(sizes.max() / ideal)

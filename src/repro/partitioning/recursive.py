"""Recursive multilevel bisection into ``P = 2**L`` partitions.

Surfer partitions by recursive bisection (Section 4.1): the process forms a
balanced binary tree — the *partition sketch* — whose leaves are the final
partitions.  Partition ids encode the bisection path: the bit at depth
``l`` (MSB first) records which side the vertex fell on at level ``l``, so
siblings in the sketch differ in exactly their lowest id bit.  The recorded
per-node cuts feed the sketch analysis and the bandwidth-aware placement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import PartitioningError
from repro.partitioning.bisect import (
    BisectionOptions,
    multilevel_bisection,
)
from repro.partitioning.wgraph import WGraph

__all__ = ["RecursivePartition", "recursive_bisection", "num_levels_for_parts"]


def num_levels_for_parts(num_parts: int) -> int:
    """``L`` such that ``2**L == num_parts``; errors if not a power of two."""
    if num_parts <= 0 or num_parts & (num_parts - 1):
        raise PartitioningError("num_parts must be a positive power of two")
    return num_parts.bit_length() - 1


@dataclass
class RecursivePartition:
    """Result of recursive bisection.

    ``parts[v]`` is the partition id of vertex ``v`` with bit-path encoding;
    ``node_cuts[(level, prefix)]`` is the weighted cut of the bisection that
    split sketch node ``prefix`` at ``level`` (root is ``(0, 0)``);
    ``node_sizes[(level, prefix)]`` the vertex weight of that sketch node.
    """

    parts: np.ndarray
    num_parts: int
    node_cuts: dict[tuple[int, int], int] = field(default_factory=dict)
    node_sizes: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def num_levels(self) -> int:
        return num_levels_for_parts(self.num_parts)


def recursive_bisection(
    wgraph: WGraph,
    num_parts: int,
    seed: int = 0,
    options: BisectionOptions | None = None,
    kway_tolerance: float | None = 0.05,
) -> RecursivePartition:
    """Partition ``wgraph`` into ``num_parts = 2**L`` parts recursively.

    Bisection tolerances compound across levels, so a final k-way balance
    refinement (``kway_tolerance``; None disables) migrates boundary
    vertices off overweight leaves, as Metis does.  ``node_cuts`` record
    the pre-refinement bisections.
    """
    levels = num_levels_for_parts(num_parts)
    rng = np.random.default_rng(seed)
    n = wgraph.num_vertices
    parts = np.zeros(n, dtype=np.int64)
    result = RecursivePartition(parts=parts, num_parts=num_parts)
    result.node_sizes[(0, 0)] = wgraph.total_vertex_weight
    if levels == 0:
        return result
    _bisect_node(
        wgraph, np.arange(n, dtype=np.int64), 0, 0, levels, rng, options,
        result,
    )
    if kway_tolerance is not None and num_parts > 1:
        from repro.partitioning.kway import kway_refine_balance

        result.parts[:] = kway_refine_balance(
            wgraph, result.parts, num_parts, tolerance=kway_tolerance
        )
    return result


def _bisect_node(
    root: WGraph,
    vertices: np.ndarray,
    level: int,
    prefix: int,
    total_levels: int,
    rng: np.random.Generator,
    options: BisectionOptions | None,
    result: RecursivePartition,
) -> None:
    """Recursively bisect the induced subgraph on ``vertices``."""
    sub = _induced_wgraph(root, vertices)
    bisection = multilevel_bisection(sub, rng, options)
    result.node_cuts[(level, prefix)] = bisection.cut

    side = bisection.side
    left = vertices[side == 0]
    right = vertices[side == 1]
    shift = total_levels - 1 - level
    result.parts[right] |= np.int64(1) << shift

    for child_prefix, child_vertices in ((prefix * 2, left),
                                         (prefix * 2 + 1, right)):
        weight = int(root.vweights[child_vertices].sum())
        result.node_sizes[(level + 1, child_prefix)] = weight
        if level + 1 < total_levels:
            _bisect_node(root, child_vertices, level + 1, child_prefix,
                         total_levels, rng, options, result)


def _induced_wgraph(root: WGraph, vertices: np.ndarray) -> WGraph:
    """Induced weighted subgraph on ``vertices`` with local ids."""
    local = -np.ones(root.num_vertices, dtype=np.int64)
    local[vertices] = np.arange(vertices.size)
    lsrc, arcs = root.rows_of(vertices)
    ldst = local[root.indices[arcs]]
    keep = ldst >= 0
    lsrc, ldst, lw = lsrc[keep], ldst[keep], root.eweights[arcs[keep]]
    # Rows come out grouped by source; within a row they are in neighbour
    # order already when the root's rows are (every WGraph constructor
    # sorts them) and ``vertices`` ascends, so the sort is for hand-built
    # graphs only.
    key = lsrc * np.int64(vertices.size) + ldst
    if (key[1:] < key[:-1]).any():
        order = np.argsort(key, kind="stable")
        ldst, lw = ldst[order], lw[order]
    indptr = np.zeros(vertices.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(lsrc, minlength=vertices.size), out=indptr[1:])
    return WGraph(indptr, ldst, lw, root.vweights[vertices])

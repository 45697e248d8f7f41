"""Graph coarsening: contract a matching into a smaller weighted graph.

Matched pairs become a single coarse vertex whose weight is the sum of the
pair's weights; parallel coarse edges are merged with summed weights and
intra-pair edges vanish.  The mapping fine->coarse is returned so partitions
of the coarse graph can be projected back during uncoarsening.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitioningError
from repro.partitioning.wgraph import WGraph

__all__ = ["contract_matching", "CoarseningLevel", "coarsen_until"]


class CoarseningLevel:
    """One level of the coarsening hierarchy."""

    __slots__ = ("fine", "coarse", "fine_to_coarse")

    def __init__(self, fine: WGraph, coarse: WGraph, fine_to_coarse: np.ndarray):
        self.fine = fine
        self.coarse = coarse
        self.fine_to_coarse = fine_to_coarse

    def project(self, coarse_parts: np.ndarray) -> np.ndarray:
        """Project a coarse assignment back onto the fine graph."""
        return np.asarray(coarse_parts, dtype=np.int64)[self.fine_to_coarse]


def contract_matching(
    wgraph: WGraph, match: np.ndarray
) -> tuple[WGraph, np.ndarray]:
    """Contract ``match`` and return ``(coarse_graph, fine_to_coarse)``."""
    n = wgraph.num_vertices
    match = np.asarray(match, dtype=np.int64)
    ids = np.arange(n, dtype=np.int64)
    in_range = match.shape == (n,) and bool(((match >= 0) & (match < n)).all())
    if not in_range or not np.array_equal(match[match], ids):
        raise PartitioningError(
            "match must be an involution over the vertices "
            "(match[match[v]] == v for every v)"
        )
    # a pair is numbered when its smaller member is reached in id order
    leader = np.minimum(ids, match)
    is_leader = leader == ids
    fine_to_coarse = (np.cumsum(is_leader) - 1)[leader]
    nc = int(np.count_nonzero(is_leader))

    partner_weight = np.where(match == ids, 0, wgraph.vweights[match])
    vweights = (wgraph.vweights + partner_weight)[is_leader]

    csrc = np.repeat(fine_to_coarse, np.diff(wgraph.indptr))
    cdst = fine_to_coarse[wgraph.indices]
    key = csrc * np.int64(nc) + cdst
    key[csrc == cdst] = -1  # intra-pair edges vanish: one group, sorted first
    # reduceat sums int64 weights, exact in any order, so the order among
    # equal keys cannot reach the result: no stable sort needed
    order = np.argsort(key)
    key = key[order]
    # -2 is below every key, so position 0 always starts a group
    starts = np.flatnonzero(np.diff(key, prepend=-2))
    merged_w = np.add.reduceat(wgraph.eweights[order], starts)
    first = order[starts]
    if key.size and key[0] < 0:
        first, merged_w = first[1:], merged_w[1:]
    msrc, mdst = csrc[first], cdst[first]

    indptr = np.zeros(nc + 1, dtype=np.int64)
    np.cumsum(np.bincount(msrc, minlength=nc), out=indptr[1:])
    coarse = WGraph(indptr, mdst, merged_w, vweights)
    return coarse, fine_to_coarse


def coarsen_until(
    wgraph: WGraph,
    target_vertices: int,
    rng: np.random.Generator,
) -> list[CoarseningLevel]:
    """Coarsen repeatedly until ``target_vertices`` or progress stalls.

    Stops when a level shrinks the vertex count by less than 10 %
    (matching would be mostly singletons) or after 40 contractions.
    Returns the hierarchy finest-first.
    """
    from repro.partitioning.matching import heavy_edge_matching

    levels: list[CoarseningLevel] = []
    current = wgraph
    for _ in range(40):
        if current.num_vertices <= target_vertices:
            break
        match = heavy_edge_matching(current, rng)
        coarse, mapping = contract_matching(current, match)
        if coarse.num_vertices >= current.num_vertices * 0.9:
            break
        levels.append(CoarseningLevel(current, coarse, mapping))
        current = coarse
    return levels

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

    csrc = fine_to_coarse[wgraph.edge_sources()]
    cdst = fine_to_coarse[wgraph.indices]
    keep = csrc != cdst  # drop intra-pair edges
    csrc, cdst, cw = csrc[keep], cdst[keep], wgraph.eweights[keep]
    if csrc.size:
        key = csrc * np.int64(nc) + cdst
        order = np.argsort(key, kind="stable")
        key, cw = key[order], cw[order]
        boundaries = np.flatnonzero(np.diff(key)) + 1
        starts = np.concatenate([[0], boundaries])
        merged_key = key[starts]
        merged_w = np.add.reduceat(cw, starts)
        msrc = (merged_key // nc).astype(np.int64)
        mdst = (merged_key % nc).astype(np.int64)
    else:
        msrc = mdst = merged_w = np.zeros(0, dtype=np.int64)

    indptr = np.zeros(nc + 1, dtype=np.int64)
    np.cumsum(np.bincount(msrc, minlength=nc), out=indptr[1:])
    coarse = WGraph(indptr, mdst, merged_w, vweights)
    return coarse, fine_to_coarse


def coarsen_until(
    wgraph: WGraph,
    target_vertices: int,
    rng: np.random.Generator,
    min_shrink: float = 0.9,
    max_levels: int = 40,
) -> list[CoarseningLevel]:
    """Coarsen repeatedly until ``target_vertices`` or progress stalls.

    Stops when a level shrinks the vertex count by less than
    ``1 - min_shrink`` (matching would be mostly singletons) or after
    ``max_levels`` contractions.  Returns the hierarchy finest-first.
    """
    from repro.partitioning.matching import heavy_edge_matching

    levels: list[CoarseningLevel] = []
    current = wgraph
    for _ in range(max_levels):
        if current.num_vertices <= target_vertices:
            break
        match = heavy_edge_matching(current, rng)
        coarse, mapping = contract_matching(current, match)
        if coarse.num_vertices >= current.num_vertices * min_shrink:
            break
        levels.append(CoarseningLevel(current, coarse, mapping))
        current = coarse
    return levels

"""K-way balance refinement after recursive bisection.

Recursive bisection balances each split within a tolerance, but the
tolerance compounds across levels: with ``eps = 0.05`` and six levels the
heaviest leaf can reach ``1.05**6 ≈ 1.34×`` the ideal weight — enough to
make the machine holding it the job's straggler.  Metis fixes this with a
k-way refinement pass; we do the same: greedily migrate boundary vertices
from overweight partitions to underweight *neighboring* partitions,
choosing moves that hurt the edge cut least (often improving it).
"""

from __future__ import annotations

import numpy as np

from repro.partitioning.metrics import validate_assignment
from repro.partitioning.wgraph import WGraph

__all__ = ["kway_refine_balance"]


def kway_refine_balance(
    wgraph: WGraph,
    parts: np.ndarray,
    num_parts: int,
    tolerance: float = 0.05,
) -> np.ndarray:
    """Rebalance ``parts`` to within ``tolerance`` of the ideal weight.

    Mutates and returns a copy of ``parts``.  Only vertices with an edge
    into the target partition are moved (keeps partitions connected-ish
    and the cut damage bounded); each move picks the (vertex, target) pair
    with the best cut gain among the heaviest partition's boundary.
    """
    n = wgraph.num_vertices
    parts = validate_assignment(parts, n, num_parts).copy()
    if n == 0 or num_parts <= 1:
        return parts
    weights = np.bincount(parts, weights=wgraph.vweights,
                          minlength=num_parts)
    target = weights.sum() / num_parts
    ceiling = (1.0 + tolerance) * target

    affinity = None  # built at the first move: a balanced input needs none
    for _ in range(8 * n):
        heavy = int(np.argmax(weights))
        if weights[heavy] <= ceiling:
            break
        if affinity is None:
            affinity = _affinity_table(wgraph, parts, num_parts)
        move = _best_move(wgraph, parts, affinity, weights, heavy, target)
        if move is None:
            # no migratable boundary vertex; give up on this partition
            break
        vertex, dest = move
        weights[heavy] -= wgraph.vweights[vertex]
        weights[dest] += wgraph.vweights[vertex]
        _apply_move(wgraph, parts, affinity, vertex, dest)
    return parts


def _affinity_table(
    wgraph: WGraph, parts: np.ndarray, num_parts: int
) -> np.ndarray:
    """``affinity[v, q]``, the edge weight from ``v`` into partition ``q``.

    float64, like the scalar sums it replaces: integers far below 2^53,
    so exact.  Weights are positive, so ``affinity[v, q] > 0`` exactly
    when ``v`` has an arc into ``q``.  The table takes ``8 * n *
    num_parts`` bytes (2 MiB for 16 K vertices at 16 parts, 4 GiB for 1 M
    vertices at 512).
    """
    n = wgraph.num_vertices
    cell = wgraph.edge_sources() * num_parts + parts[wgraph.indices]
    affinity = np.bincount(cell, weights=wgraph.eweights,
                           minlength=n * num_parts)
    # bincount answers an empty input in int64 even with weights
    return affinity.astype(np.float64, copy=False).reshape(n, num_parts)


def _apply_move(
    wgraph: WGraph,
    parts: np.ndarray,
    affinity: np.ndarray,
    vertex: int,
    dest: int,
) -> None:
    """Move ``vertex`` to ``dest``, updating ``affinity`` over its row."""
    num_parts = affinity.shape[1]
    lo, hi = wgraph.indptr[vertex], wgraph.indptr[vertex + 1]
    row = wgraph.indices[lo:hi] * num_parts
    w = wgraph.eweights[lo:hi]
    # ufunc.at: a hand-built row may list a neighbour twice
    np.subtract.at(affinity.reshape(-1), row + parts[vertex], w)
    np.add.at(affinity.reshape(-1), row + dest, w)
    parts[vertex] = dest


def _best_move(
    wgraph: WGraph,
    parts: np.ndarray,
    affinity: np.ndarray,
    weights: np.ndarray,
    heavy: int,
    target: float,
) -> tuple[int, int] | None:
    """Best (vertex, destination) migration out of partition ``heavy``.

    ``affinity`` is ``_affinity_table`` of ``parts``.
    ``heavy`` must weigh more than ``target``.  Scores every (member,
    neighbouring partition) pair at once; among equal scores the winner is
    the pair a scan would meet first (DESIGN.md Section 11): smallest
    member id, then the partition that appears first in that member's
    adjacency row.
    """
    members = np.flatnonzero(parts == heavy)
    member_weight = wgraph.vweights[members].astype(np.float64)
    # a member heavier than 1.5x the excess would overshoot below the ideal
    fits = member_weight <= 1.5 * (weights[heavy] - target)
    members, member_weight = members[fits], member_weight[fits]
    if members.size == 0:
        return None

    member_affinity = affinity[members]
    allowed = member_affinity > 0  # an arc into that partition
    allowed[:, heavy] = False
    # not if the destination would become the new straggler
    allowed &= (weights[None, :] + member_weight[:, None]
                <= (weights[heavy] - member_weight)[:, None])

    # gain: cut improvement if positive; same float64 operations as the scan
    score = member_affinity - member_affinity[:, [heavy]]
    score -= (0.001 * weights / max(target, 1.0))[None, :]
    score[~allowed] = -np.inf
    # the first maximum in row-major order: smallest member id first
    row, col = divmod(int(np.argmax(score)), score.shape[1])
    best = score[row, col]
    if best == -np.inf:
        return None
    vertex = int(members[row])
    tied = np.flatnonzero(score[row] == best)
    if tied.size > 1:
        seen = parts[wgraph.neighbors(vertex)]
        tied = seen[np.isin(seen, tied)]
    return vertex, int(tied[0])

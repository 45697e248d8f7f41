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
    max_moves: int | None = None,
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
    if max_moves is None:
        max_moves = 8 * n

    for _ in range(max_moves):
        heavy = int(np.argmax(weights))
        if weights[heavy] <= ceiling:
            break
        move = _best_move(wgraph, parts, weights, heavy, target)
        if move is None:
            # no migratable boundary vertex; give up on this partition
            break
        vertex, dest = move
        weights[heavy] -= wgraph.vweights[vertex]
        weights[dest] += wgraph.vweights[vertex]
        parts[vertex] = dest
    return parts


def _best_move(
    wgraph: WGraph,
    parts: np.ndarray,
    weights: np.ndarray,
    heavy: int,
    target: float,
) -> tuple[int, int] | None:
    """Best (vertex, destination) migration out of partition ``heavy``.

    ``heavy`` must weigh more than ``target``.  Scores every (member,
    neighbouring partition) pair at once; among equal scores the winner is
    the pair a scan would meet first (DESIGN.md Section 11): smallest
    member id, then the partition that appears first in that member's
    adjacency row.
    """
    num_parts = weights.size
    members = np.flatnonzero(parts == heavy)
    member_weight = wgraph.vweights[members].astype(np.float64)
    # a member heavier than 1.5x the excess would overshoot below the ideal
    fits = member_weight <= 1.5 * (weights[heavy] - target)
    members, member_weight = members[fits], member_weight[fits]

    # affinity[i, q]: edge weight from members[i] into partition q
    owner, arcs = wgraph.rows_of(members)
    arc_part = parts[wgraph.indices[arcs]]
    cell = owner * num_parts + arc_part
    size = members.size * num_parts
    affinity = np.bincount(cell, weights=wgraph.eweights[arcs],
                           minlength=size).reshape(members.size, num_parts)
    adjacent = np.bincount(cell, minlength=size).reshape(affinity.shape) > 0
    adjacent[:, heavy] = False
    # not if the destination would become the new straggler
    after_move = weights[None, :] + member_weight[:, None]
    adjacent &= after_move <= (weights[heavy] - member_weight)[:, None]
    if not adjacent.any():
        return None

    gain = affinity - affinity[:, [heavy]]  # cut improvement if positive
    score = gain - (0.001 * weights / max(target, 1.0))[None, :]
    score[~adjacent] = -np.inf
    best = score.max()
    row = int(np.argmax((score == best).any(axis=1)))
    tied = np.flatnonzero(score[row] == best)
    if tied.size > 1:
        seen = arc_part[owner == row]
        tied = seen[np.isin(seen, tied)]
    return int(members[row]), int(tied[0])

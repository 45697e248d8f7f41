"""Fiduccia–Mattheyses boundary refinement.

After each uncoarsening projection the bisection is locally improved with FM
passes: vertices are moved one at a time to the other side in order of gain
(cut-weight reduction), each vertex at most once per pass, and the pass is
rolled back to the best prefix seen.  Balance is enforced with a tolerance
``epsilon`` on the heavier side.  This is the "local refinement" step the
paper's Appendix A.2 describes (dotted -> solid cut in Figure 8).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.partitioning.wgraph import AdjacencyLists, WGraph

__all__ = ["fm_refine", "compute_gains"]


def _gains_and_cut(wgraph: WGraph, side: np.ndarray) -> tuple[np.ndarray, int]:
    """Per-vertex move gains and the weighted cut of ``side``, in one pass."""
    cut_arc = side[wgraph.edge_sources()] != side[wgraph.indices]
    signed = np.where(cut_arc, wgraph.eweights, -wgraph.eweights)
    # row sums as differences of the running total: exact int64, and an
    # empty row (isolated vertex) comes out 0
    running = np.concatenate(([0], np.cumsum(signed)))
    gain = running[wgraph.indptr[1:]] - running[wgraph.indptr[:-1]]
    return gain, int(wgraph.eweights[cut_arc].sum() // 2)


def compute_gains(wgraph: WGraph, side: np.ndarray) -> np.ndarray:
    """Gain of moving each vertex to the opposite side.

    ``gain[v] = external_weight(v) - internal_weight(v)``; positive gains
    reduce the cut.
    """
    return _gains_and_cut(wgraph, np.asarray(side))[0]


def fm_refine(
    wgraph: WGraph,
    side: np.ndarray,
    epsilon: float = 0.05,
    max_passes: int = 8,
) -> np.ndarray:
    """Refine a bisection in place-copy; returns the improved assignment.

    ``epsilon`` bounds the imbalance: each side must keep weight at least
    ``(0.5 - epsilon) * total``.  Passes stop when one yields no improvement.
    """
    side = np.asarray(side, dtype=np.int64).copy()
    n = wgraph.num_vertices
    if n <= 2:
        return side
    min_side_weight = int((0.5 - epsilon) * wgraph.total_vertex_weight)
    adjacency = wgraph.tolists()  # shared by the passes, dropped on return
    for _ in range(max_passes):
        if not _fm_pass(wgraph, adjacency, side, min_side_weight):
            break
    return side


def _fm_pass(
    wgraph: WGraph,
    adjacency: AdjacencyLists,
    side: np.ndarray,
    min_side_weight: int,
) -> bool:
    """One FM pass; mutates ``side``; returns True if the cut improved.

    ``adjacency`` is ``wgraph.tolists()``.  The move order is the contract
    (DESIGN.md Section 11): always the unlocked vertex of maximum gain,
    smallest id among equals; a vertex whose move would break the balance
    is locked where it stands.
    """
    indptr, indices, eweights, vweights = adjacency
    gains, start_cut = _gains_and_cut(wgraph, side)
    gain = gains.tolist()
    where = side.tolist()
    side_weight = [int(wgraph.vweights[side == s].sum()) for s in (0, 1)]
    locked = [False] * len(gain)

    heap = [(-g, v) for v, g in enumerate(gain)]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush

    best_cut = current_cut = start_cut
    # weight of cut edges whose two ends are both locked: those edges stay
    # cut for the rest of the pass, so no later prefix can get below it
    locked_cut = 0
    moves: list[int] = []
    best_prefix = 0

    while heap:
        neg_gain, v = heappop(heap)
        if locked[v] or -neg_gain != gain[v]:
            continue
        locked[v] = True
        s = where[v]
        vw = vweights[v]
        if side_weight[s] - vw < min_side_weight:
            continue  # moving v would violate balance: it sits this pass out
        t = 1 - s
        where[v] = t
        side_weight[s] -= vw
        side_weight[t] += vw
        current_cut += neg_gain
        moves.append(v)
        for j in range(indptr[v], indptr[v + 1]):
            u = indices[j]
            if locked[u]:
                if where[u] != t:
                    locked_cut += eweights[j]
                continue
            if where[u] == t:
                g = gain[u] - 2 * eweights[j]  # u's edge to v became internal
            else:
                g = gain[u] + 2 * eweights[j]  # u's edge to v became external
            gain[u] = g
            heappush(heap, (-g, u))
        if current_cut < best_cut:
            best_cut = current_cut
            best_prefix = len(moves)
        elif locked_cut >= best_cut:
            break  # every later prefix has cut >= locked_cut >= best_cut

    # the moves past the best prefix only ever touched `where`
    kept = moves[:best_prefix]
    side[kept] = 1 - side[kept]
    return best_cut < start_cut

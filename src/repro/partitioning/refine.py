"""Fiduccia–Mattheyses boundary refinement.

After each uncoarsening projection the bisection is locally improved with FM
passes: vertices are moved one at a time to the other side in order of gain
(cut-weight reduction), each vertex at most once per pass, and the pass is
rolled back to the best prefix seen.  As in Karypis and Kumar's multilevel FM,
a pass stops ``FM_TAIL`` moves past it.  Balance is enforced with a tolerance
``epsilon`` on the heavier side.  This is the "local refinement" step the
paper's Appendix A.2 describes (dotted -> solid cut in Figure 8).
"""

from __future__ import annotations

import heapq
import math
from numbers import Real
from typing import NamedTuple

import numpy as np

from repro.errors import PartitioningError
from repro.partitioning.wgraph import WGraph

__all__ = ["fm_refine", "check_epsilon"]

# a pass ends this many non-improving moves after its best prefix
FM_TAIL = 100


def _gains_and_cut(wgraph: WGraph, side: np.ndarray) -> tuple[np.ndarray, int]:
    """Per-vertex move gains and the weighted cut of ``side``, in one pass."""
    cut_arc = np.repeat(side, np.diff(wgraph.indptr)) != side[wgraph.indices]
    signed = np.where(cut_arc, wgraph.eweights, -wgraph.eweights)
    # row sums as differences of the running total: exact int64, and an
    # empty row (isolated vertex) comes out 0
    running = np.concatenate(([0], np.cumsum(signed)))
    gain = running[wgraph.indptr[1:]] - running[wgraph.indptr[:-1]]
    # running[-1] = cut arcs' weight - uncut arcs' weight
    return gain, (int(running[-1]) + int(wgraph.eweights.sum())) // 4


def check_epsilon(epsilon: float) -> None:
    """Raise ``PartitioningError`` unless ``0 <= epsilon < 0.5`` (finite).

    At ``epsilon >= 0.5`` the floor ``(0.5 - epsilon) * total`` is zero or
    negative, so refinement may empty a side; NaN would compare false
    everywhere and silently disable the balance check.
    """
    if not (isinstance(epsilon, Real) and math.isfinite(epsilon)
            and 0 <= epsilon < 0.5):
        raise PartitioningError(
            f"epsilon must be finite with 0 <= epsilon < 0.5, got {epsilon!r}")


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
    check_epsilon(epsilon)
    side = np.asarray(side, dtype=np.int64).copy()
    n = wgraph.num_vertices
    if n <= 2:
        return side
    min_side_weight = int((0.5 - epsilon) * wgraph.total_vertex_weight)
    rows = _key_rows(wgraph)  # shared by the passes, dropped on return
    for _ in range(max_passes):
        if not _fm_pass(wgraph, rows, side, min_side_weight):
            break
    return side


class _KeyRows(NamedTuple):
    """The adjacency an FM pass runs over, with edge weights in key units.

    A heap key is ``(-gain << shift) | v``; ``shift = (n - 1).bit_length()``
    leaves room for every vertex id below the gain, so plain-int order is
    (max gain, min id) order.  ``dkey[j]`` is ``2 * eweights[j] << shift``,
    the key change of a neighbour when arc ``j``'s edge flips between cut
    and uncut, always a Python int.  ``wide`` is True when a key might not
    fit in int64; ``dkey`` and a pass's keys are then built as Python ints
    instead of with array ops.
    """

    indptr: list[int]
    indices: list[int]
    dkey: list[int]
    vweights: list[int]
    shift: int
    wide: bool


def _key_rows(wgraph: WGraph) -> _KeyRows:
    """:class:`_KeyRows` of ``wgraph``."""
    shift = (wgraph.num_vertices - 1).bit_length()
    eweights = wgraph.eweights
    # |gain(v)| never exceeds v's weighted degree <= max w * max degree
    bound = (int(eweights.max(initial=0))
             * int(np.diff(wgraph.indptr).max(initial=0)))
    wide = ((2 * bound + 1) << shift).bit_length() > 62
    if wide:
        dkey = [w << (shift + 1) for w in eweights.tolist()]
    else:
        dkey = (eweights << (shift + 1)).tolist()
    return _KeyRows(wgraph.indptr.tolist(), wgraph.indices.tolist(), dkey,
                    wgraph.vweights.tolist(), shift, wide)


def _fm_pass(
    wgraph: WGraph,
    rows: _KeyRows,
    side: np.ndarray,
    min_side_weight: int,
) -> bool:
    """One FM pass; mutates ``side``; returns True if the cut improved.

    ``rows`` is ``_key_rows(wgraph)``.  The move order is the contract
    (DESIGN.md Section 11): always the unlocked vertex of maximum gain,
    smallest id among equals; a vertex whose move would break the balance
    is locked where it stands.

    ``key[v]`` is the truth (``None`` once ``v`` is locked) and the heap
    holds plain-int keys, some stale.  A key that falls (gain rises) is
    pushed; one that rises (gain falls) is not: v's older, smaller entry
    pops first, and is then requeued at ``key[v]``.  So the heap always
    holds an entry <= ``key[v]`` for every unlocked ``v``, and the first
    entry that pops equal to its vertex's key is the minimum key.
    """
    indptr, indices, dkey, vweights, shift, wide = rows
    gains, start_cut = _gains_and_cut(wgraph, side)
    if wide:
        key = [(-g << shift) | v for v, g in enumerate(gains.tolist())]
    else:
        key = ((-gains << shift) | np.arange(gains.size)).tolist()
    # 0/1: unlocked on that side; 2/3: locked on side (state - 2)
    state = side.tolist()
    side_weight = [int(wgraph.vweights[side == s].sum()) for s in (0, 1)]
    mask = (1 << shift) - 1

    heap = key.copy()
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush

    best_cut = current_cut = start_cut
    # weight of cut edges whose two ends are both locked: those edges stay
    # cut for the rest of the pass, so no later prefix can get below it.
    # Kept in dkey units, against best_cut in the same units.
    locked_cut = 0
    best_bound = best_cut << (shift + 1)
    moves: list[int] = []
    record = moves.append
    best_prefix = 0

    while heap:
        k = heappop(heap)
        v = k & mask
        kv = key[v]
        if k != kv:
            if kv is not None:
                heappush(heap, kv)  # v's gain fell since k was pushed
            continue
        key[v] = None
        s = state[v]
        vw = vweights[v]
        if side_weight[s] - vw < min_side_weight:
            state[v] = s + 2  # moving v would violate balance: it sits out
            continue
        t = 1 - s
        state[v] = t + 2
        side_weight[s] -= vw
        side_weight[t] += vw
        current_cut += k >> shift
        record(v)
        a = indptr[v]
        b = indptr[v + 1]
        locked_s = s + 2
        for u, dk in zip(indices[a:b], dkey[a:b]):
            su = state[u]
            if su == s:
                ku = key[u] - dk  # u's edge to v became external
                key[u] = ku
                heappush(heap, ku)
            elif su == t:
                key[u] += dk  # u's edge to v became internal: lazy
            elif su == locked_s:
                locked_cut += dk
        if current_cut < best_cut:
            best_cut = current_cut
            best_bound = best_cut << (shift + 1)
            best_prefix = len(moves)
        elif locked_cut >= best_bound:
            break  # every later prefix has cut >= locked_cut >= best_cut
        elif len(moves) - best_prefix >= FM_TAIL:
            break

    # the moves past the best prefix only ever touched the pass's lists
    kept = moves[:best_prefix]
    side[kept] = 1 - side[kept]
    return best_cut < start_cut

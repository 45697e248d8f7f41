"""Greedy Graph Growing Partitioning (GGGP) initial bisection.

GGGP (Karypis & Kumar [15]) grows one side of the bisection from a seed
vertex, always absorbing the frontier vertex whose move decreases the cut
the most, until that side holds half the total vertex weight.  It runs on
the coarsest graph of the multilevel hierarchy, where it is cheap, and the
result is refined during uncoarsening.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.partitioning.metrics import weighted_cut
from repro.partitioning.wgraph import AdjacencyLists, WGraph

__all__ = ["gggp_bisection", "random_bisection"]


def _grow_from_seed(
    adjacency: AdjacencyLists, seed: int, half_weight: int
) -> np.ndarray:
    """Grow side 0 from ``seed`` until it reaches ``half_weight``.

    ``adjacency`` is ``wgraph.tolists()``.  Always absorbs the frontier
    vertex of maximum gain, smallest id among equals.
    """
    indptr, indices, eweights, vweights = adjacency
    n = len(vweights)
    side = [1] * n  # 1 = ungrown side
    # gain[v] = reduction in cut if v moves into side 0
    gain = [0] * n
    heap: list[tuple[int, int]] = []
    heappop, heappush = heapq.heappop, heapq.heappush

    def absorb(v: int) -> None:
        side[v] = 0
        for j in range(indptr[v], indptr[v + 1]):
            u = indices[j]
            if side[u] == 1:
                gain[u] += 2 * eweights[j]
                heappush(heap, (-gain[u], u))

    absorb(seed)
    grown_weight = vweights[seed]
    while grown_weight < half_weight and heap:
        neg_gain, v = heappop(heap)
        if side[v] == 0 or -neg_gain != gain[v]:
            continue  # stale entry
        absorb(v)
        grown_weight += vweights[v]

    # If growth stalled (disconnected graph), absorb arbitrary vertices.
    if grown_weight < half_weight:
        for v in range(n):
            if grown_weight >= half_weight:
                break
            if side[v] == 1:
                side[v] = 0
                grown_weight += vweights[v]
    return np.array(side, dtype=np.int64)


def gggp_bisection(
    wgraph: WGraph, rng: np.random.Generator, num_trials: int = 4
) -> np.ndarray:
    """Bisect ``wgraph``; returns 0/1 assignment per vertex.

    Runs ``num_trials`` growths from random seeds and keeps the lowest-cut
    result, as Metis does on the coarsest graph.
    """
    n = wgraph.num_vertices
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    half_weight = (wgraph.total_vertex_weight + 1) // 2
    best: np.ndarray | None = None
    best_cut = -1
    adjacency = wgraph.tolists()
    for _ in range(max(1, num_trials)):
        seed = int(rng.integers(n))
        side = _grow_from_seed(adjacency, seed, half_weight)
        cut = weighted_cut(wgraph, side)
        if best is None or cut < best_cut:
            best, best_cut = side, cut
    assert best is not None
    return best


def random_bisection(wgraph: WGraph, rng: np.random.Generator) -> np.ndarray:
    """Random balanced bisection (ablation baseline for GGGP)."""
    n = wgraph.num_vertices
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = rng.permutation(n)
    side = np.ones(n, dtype=np.int64)
    half_weight = (wgraph.total_vertex_weight + 1) // 2
    acc = 0
    for v in order:
        if acc >= half_weight:
            break
        side[v] = 0
        acc += int(wgraph.vweights[v])
    return side

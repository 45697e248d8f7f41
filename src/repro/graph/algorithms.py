"""Reference graph algorithms.

These serve two roles: (a) building blocks for the partitioner and the
cascaded-propagation machinery (BFS levels, diameters, components), and
(b) ground-truth oracles the test suite compares the distributed engines
against (e.g. single-machine PageRank vs. propagation-based NR).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable

import numpy as np

from repro.errors import GraphError
from repro.graph.digraph import Graph

__all__ = [
    "bfs_levels",
    "multi_source_bfs",
    "weakly_connected_components",
    "estimate_diameter",
    "pagerank",
    "degree_histogram",
    "count_triangles",
    "two_hop_neighbors",
    "dijkstra",
]


def bfs_levels(graph: Graph, source: int, reverse: bool = False) -> np.ndarray:
    """BFS hop distance from ``source``; unreachable vertices get ``-1``.

    With ``reverse=True`` the traversal follows in-edges.
    """
    if not 0 <= source < graph.num_vertices:
        raise GraphError("BFS source out of range")
    return multi_source_bfs(graph, [source], reverse=reverse)


def multi_source_bfs(
    graph: Graph, sources, reverse: bool = False
) -> np.ndarray:
    """Hop distance from the nearest source; ``-1`` where unreachable."""
    dist = -np.ones(graph.num_vertices, dtype=np.int64)
    queue: deque[int] = deque()
    for s in sources:
        s = int(s)
        if not 0 <= s < graph.num_vertices:
            raise GraphError("BFS source out of range")
        if dist[s] < 0:
            dist[s] = 0
            queue.append(s)
    neighbors = graph.in_neighbors if reverse else graph.out_neighbors
    while queue:
        v = queue.popleft()
        dv = dist[v]
        for u in neighbors(v):
            if dist[u] < 0:
                dist[u] = dv + 1
                queue.append(int(u))
    return dist


def weakly_connected_components(graph: Graph) -> np.ndarray:
    """Component label per vertex, labels numbered ``0..k-1`` by discovery."""
    label = -np.ones(graph.num_vertices, dtype=np.int64)
    current = 0
    for start in range(graph.num_vertices):
        if label[start] >= 0:
            continue
        queue = deque([start])
        label[start] = current
        while queue:
            v = queue.popleft()
            for u in graph.out_neighbors(v):
                if label[u] < 0:
                    label[u] = current
                    queue.append(int(u))
            for u in graph.in_neighbors(v):
                if label[u] < 0:
                    label[u] = current
                    queue.append(int(u))
        current += 1
    return label


def estimate_diameter(
    graph: Graph, num_probes: int = 4, seed: int = 0,
) -> int:
    """Estimate the (undirected) diameter by double-sweep BFS from
    random probes.

    Returns the largest finite eccentricity found (a lower bound on the true
    diameter, exact on trees).  Used to size cascaded-propagation phases
    (Section 5.2 uses per-partition diameters).
    """
    n = graph.num_vertices
    if n == 0:
        return 0
    rng = np.random.default_rng(seed)
    best = 0
    for _ in range(max(1, num_probes)):
        start = int(rng.integers(n))
        dist = _sweep(graph, start)
        far = int(np.argmax(dist))
        if dist[far] <= 0:
            continue
        dist2 = _sweep(graph, far)
        best = max(best, int(dist2.max()))
    return best


def _sweep(graph: Graph, source: int) -> np.ndarray:
    """Hop distance from ``source`` over edges in either direction."""
    dist = -np.ones(graph.num_vertices, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        dv = dist[v]
        for u in graph.out_neighbors(v):
            if dist[u] < 0:
                dist[u] = dv + 1
                queue.append(int(u))
        for u in graph.in_neighbors(v):
            if dist[u] < 0:
                dist[u] = dv + 1
                queue.append(int(u))
    return dist


def pagerank(
    graph: Graph,
    damping: float = 0.85,
    num_iterations: int = 20,
    dangling: str = "self",
) -> np.ndarray:
    """Single-machine PageRank oracle matching the paper's NR formula.

    ``PR(v) = (1-d)/N + d * sum(PR(t)/C(t))`` over in-neighbors ``t``
    (Section 3.1).  ``dangling='self'`` keeps rank at zero-out-degree
    vertices (the paper's formula, which does not redistribute it);
    ``dangling='uniform'`` spreads it evenly, the classic correction.
    """
    if dangling not in ("self", "uniform"):
        raise GraphError("dangling must be 'self' or 'uniform'")
    n = graph.num_vertices
    if n == 0:
        return np.zeros(0)
    out_deg = graph.out_degrees().astype(np.float64)
    src = graph.edge_sources()
    dst = graph.out_indices
    rank = np.full(n, 1.0 / n)
    safe_deg = np.where(out_deg > 0, out_deg, 1.0)
    for _ in range(num_iterations):
        contrib = rank / safe_deg
        incoming = np.zeros(n)
        np.add.at(incoming, dst, contrib[src])
        new_rank = (1.0 - damping) / n + damping * incoming
        if dangling == "uniform":
            lost = damping * rank[out_deg == 0].sum() / n
            new_rank += lost
        rank = new_rank
    return rank


def degree_histogram(graph: Graph, direction: str = "out") -> dict[int, int]:
    """Histogram ``degree -> vertex count`` (the VDD oracle)."""
    if direction == "out":
        degrees = graph.out_degrees()
    elif direction == "in":
        degrees = graph.in_degrees()
    else:
        raise GraphError("direction must be 'out' or 'in'")
    values, counts = np.unique(degrees, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def count_triangles(graph: Graph) -> int:
    """Count undirected triangles (the TC oracle).

    A triangle is three vertices with an edge (in either direction) between
    every pair, matching the paper's definition for TC.

    Vectorized forward-adjacency intersection: keep only edges ``v < u``
    (each row stays destination-sorted), then for every forward edge
    ``(v, u)`` count the members of ``N⁺(v)`` also present in ``N⁺(u)``
    via one batched binary search over the combined sorted key
    ``row * n + dst``.  Since ``N⁺(u)`` only holds ``w > u``, each
    triangle ``v < u < w`` is counted exactly once, at its smallest
    vertex — the same orientation the reference implementation uses.
    """
    indptr, indices, _ = graph.to_undirected()
    n = graph.num_vertices
    if indices.size == 0:
        return 0
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    fwd = indices > rows
    fsrc, fdst = rows[fwd], indices[fwd]
    if fsrc.size == 0:
        return 0
    fdeg = np.bincount(fsrc, minlength=n)
    findptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(fdeg, out=findptr[1:])
    # the forward adjacency as one sorted key array (rows ascending,
    # destinations ascending within each row)
    keys = fsrc * np.int64(n) + fdst
    # candidates: for forward edge j = (v, u), every w in N+(v)
    cand_counts = fdeg[fsrc]
    total_cand = int(cand_counts.sum())
    if total_cand == 0:
        return 0
    block_starts = np.concatenate(([0], np.cumsum(cand_counts)[:-1]))
    gather = (np.arange(total_cand, dtype=np.int64)
              + np.repeat(findptr[fsrc] - block_starts, cand_counts))
    w = fdst[gather]
    u_rep = np.repeat(fdst, cand_counts)
    query = u_rep * np.int64(n) + w
    pos = np.searchsorted(keys, query)
    hit = (pos < keys.size) & (keys[np.minimum(pos, keys.size - 1)] == query)
    return int(hit.sum())


def dijkstra(
    graph: Graph, source: int,
    weight: Callable[[int, int], int],
) -> np.ndarray:
    """Single-source shortest path distances (the SSSP oracle).

    ``weight(u, v)`` must return a positive integer edge weight.
    Unreachable vertices get ``-1``, matching :func:`bfs_levels`.
    """
    if not 0 <= source < graph.num_vertices:
        raise GraphError("dijkstra source out of range")
    dist = -np.ones(graph.num_vertices, dtype=np.int64)
    heap: list[tuple[int, int]] = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if dist[u] >= 0:
            continue  # already settled with a shorter distance
        dist[u] = d
        for v in graph.out_neighbors(u):
            v = int(v)
            if dist[v] < 0:
                heapq.heappush(heap, (d + int(weight(u, v)), v))
    return dist


def two_hop_neighbors(graph: Graph, vertex: int) -> set[int]:
    """Exact two-hop friend list of ``vertex`` (the TFL oracle).

    Matches TFL's push formulation (Appendix D): each selected vertex
    pushes its out-neighbor list to each of its out-neighbors, so
    ``vertex`` collects the union of the neighbor lists of its
    *in*-neighbors — every ``w`` with some ``u`` such that ``u -> vertex``
    and ``u -> w`` (the vertex itself may appear via a mutual friend).
    """
    result: set[int] = set()
    for u in graph.in_neighbors(vertex):
        result.update(int(w) for w in graph.out_neighbors(int(u)))
    return result

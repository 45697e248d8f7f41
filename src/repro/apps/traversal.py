"""Traversal applications on the sparse-frontier propagation mode.

Four workloads from the distributed-graph-algorithms survey, each
maintaining an explicit active set (``uses_frontier = True``) so the
engine's frontier mode scans only the vertices that changed last
iteration:

* **BFS** — level-synchronous breadth-first search from one source;
* **SSSP** — Bellman–Ford shortest paths over deterministic integer
  pseudo-weights (positive, derived by a seedless mix of the edge's
  endpoint ids so every engine and path sees identical weights);
* **KCORE** — k-core decomposition by iterated h-index refinement
  (Montresor et al.): every vertex repeatedly lowers its coreness
  estimate to the h-index of its neighbors' estimates; deploy on
  ``graph.symmetrized()``;
* **DPR** — delta-PageRank: only vertices whose rank changed by more
  than the tolerance propagate their delta, so the convergent tail
  ships a vanishing fraction of dense-NR's messages.

All four follow the PR 2 discipline: the scalar ``transfer``/``combine``
path is the oracle and the ``*_array`` fast path is bit-identical to it
(checked by tests/test_frontier_traversal.py).  ``select`` always agrees
with the ``frontier()`` mask — the frontier contract — so frontier and
dense runs emit identical messages.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.apps.base import VertexState
from repro.propagation.api import PropagationApp

__all__ = [
    "BreadthFirstSearchPropagation",
    "ShortestPathsPropagation",
    "KCoreDecompositionPropagation",
    "DeltaPageRankPropagation",
    "edge_weight",
    "edge_weight_array",
    "h_index",
]


# -- deterministic pseudo-weights for SSSP ------------------------------
_W_MULT = np.uint64(0x9E3779B97F4A7C15)
_W_MIX = np.uint64(0xC2B2AE3D27D4EB4F)
_W_SHIFT = np.uint64(33)
_W_RANGE = np.uint64(15)


def edge_weight_array(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Deterministic positive integer weight per edge, in ``1..16``.

    A seedless multiplicative mix of the endpoint ids in wrapping
    ``uint64`` arithmetic — no RNG, no hash salt, identical on every
    engine, path and process.
    """
    h = (src.astype(np.uint64) + np.uint64(1)) * _W_MULT
    h = h + (dst.astype(np.uint64) + np.uint64(1)) * _W_MIX
    h = h ^ (h >> _W_SHIFT)
    return (h & _W_RANGE).astype(np.int64) + 1


def edge_weight(u: int, v: int) -> int:
    """Scalar twin of :func:`edge_weight_array` (bit-identical by
    construction: it *is* the array version on singleton inputs)."""
    return int(edge_weight_array(
        np.array([u], dtype=np.int64), np.array([v], dtype=np.int64))[0])


def h_index(values: Any) -> int:
    """Largest ``h`` such that ``h`` of the values are ``>= h``."""
    arr = np.sort(np.asarray(values, dtype=np.int64))[::-1]
    h = 0
    for i in range(arr.size):
        if int(arr[i]) >= i + 1:
            h = i + 1
        else:
            break
    return h


def _frontier_state(pgraph: Any, values: np.ndarray,
                    active: np.ndarray) -> VertexState:
    state = VertexState(pgraph=pgraph, values=values)
    state.extra["active"] = active
    state.extra["changed"] = int(active.sum())
    return state


class BreadthFirstSearchPropagation(PropagationApp):
    """Level-synchronous BFS: hop distance from ``source``, -1 unreached.

    The frontier is the set of vertices whose distance improved last
    iteration; each frontier vertex offers ``dist + 1`` to its
    out-neighbors, and a vertex adopts the smallest offer that improves
    on its current distance.
    """

    name = "BFS"
    is_associative = True
    uses_frontier = True
    merge_ufunc = np.minimum

    def __init__(self, source: int = 0) -> None:
        self.source = source

    def setup(self, pgraph: Any) -> VertexState:
        n = pgraph.num_vertices
        dist = -np.ones(n, dtype=np.int64)
        active = np.zeros(n, dtype=bool)
        if n:
            dist[self.source] = 0
            active[self.source] = True
        return _frontier_state(pgraph, dist, active)

    def frontier(self, state: Any) -> np.ndarray:
        return state.extra["active"]

    def select(self, u: int, state: Any) -> bool:
        return bool(state.extra["active"][u])

    def select_array(self, vertices: np.ndarray,
                     state: Any) -> np.ndarray:
        return state.extra["active"][vertices]

    def transfer(self, u: int, v: int, state: Any) -> int:
        return int(state.values[u]) + 1

    def transfer_array(self, src: np.ndarray, dst: np.ndarray,
                       state: Any) -> np.ndarray:
        return state.values[src] + 1

    def combine(self, v: int, values: list, state: Any) -> int:
        return min(values)

    def combine_array(self, vertices: np.ndarray, folded: np.ndarray,
                      counts: np.ndarray, state: Any) -> np.ndarray:
        return folded  # no combine_all_vertices: every bag is non-empty

    def merge(self, a: int, b: int) -> int:
        return a if a <= b else b

    def update(self, state: Any, combined: dict) -> None:
        dist = state.values
        active = np.zeros(dist.shape[0], dtype=bool)
        changed = 0
        for v, d in combined.items():
            if dist[v] < 0 or d < dist[v]:
                dist[v] = d
                active[v] = True
                changed += 1
        state.extra["active"] = active
        state.extra["changed"] = changed

    def update_array(self, state: Any, vertices: np.ndarray,
                     values: np.ndarray) -> None:
        dist = state.values
        old = dist[vertices]
        better = (old < 0) | (values < old)
        improved = vertices[better]
        dist[improved] = values[better]
        active = np.zeros(dist.shape[0], dtype=bool)
        active[improved] = True
        state.extra["active"] = active
        state.extra["changed"] = int(improved.size)

    def converged(self, state: Any) -> bool:
        return state.extra["changed"] == 0

    def finalize(self, state: Any) -> np.ndarray:
        return state.values.copy()


class ShortestPathsPropagation(BreadthFirstSearchPropagation):
    """Bellman–Ford SSSP over the deterministic pseudo-weights.

    Identical relaxation scheme to BFS with per-edge weights instead of
    the constant 1; converges once no distance improves (positive
    weights bound the rounds by the longest shortest-path hop count).
    """

    name = "SSSP"

    def transfer(self, u: int, v: int, state: Any) -> int:
        return int(state.values[u]) + edge_weight(u, v)

    def transfer_array(self, src: np.ndarray, dst: np.ndarray,
                       state: Any) -> np.ndarray:
        return state.values[src] + edge_weight_array(src, dst)


class KCoreDecompositionPropagation(PropagationApp):
    """K-core decomposition by iterated h-index refinement.

    Deploy on ``graph.symmetrized()``.  Every vertex starts at its
    (undirected) degree and repeatedly lowers its estimate to the
    h-index of its neighbors' current estimates — the fixed point is the
    coreness (Montresor et al., *Distributed k-Core Decomposition*).
    ``combine`` recomputes the estimate from the neighbors' values in
    ``state`` and ignores the message payloads, so it is trivially
    order-insensitive; the messages only mark *which* vertices must
    recompute.
    """

    name = "KCORE"
    is_associative = True
    uses_frontier = True
    merge_ufunc = np.minimum

    def setup(self, pgraph: Any) -> VertexState:
        est = pgraph.graph.out_degrees().astype(np.int64).copy()
        active = np.ones(pgraph.num_vertices, dtype=bool)
        return _frontier_state(pgraph, est, active)

    def frontier(self, state: Any) -> np.ndarray:
        return state.extra["active"]

    def select(self, u: int, state: Any) -> bool:
        return bool(state.extra["active"][u])

    def select_array(self, vertices: np.ndarray,
                     state: Any) -> np.ndarray:
        return state.extra["active"][vertices]

    def transfer(self, u: int, v: int, state: Any) -> int:
        return int(state.values[u])

    def transfer_array(self, src: np.ndarray, dst: np.ndarray,
                       state: Any) -> np.ndarray:
        return state.values[src]

    def combine(self, v: int, values: list, state: Any) -> int:
        est = state.values
        neighbor_est = est[state.graph.out_neighbors(v)]
        return min(int(est[v]), h_index(neighbor_est))

    def merge(self, a: int, b: int) -> int:
        return a if a <= b else b

    def update(self, state: Any, combined: dict) -> None:
        est = state.values
        active = np.zeros(est.shape[0], dtype=bool)
        changed = 0
        for v, e in combined.items():
            if e < est[v]:
                est[v] = e
                active[v] = True
                changed += 1
        state.extra["active"] = active
        state.extra["changed"] = changed

    def converged(self, state: Any) -> bool:
        return state.extra["changed"] == 0

    def finalize(self, state: Any) -> np.ndarray:
        return state.values.copy()


class DeltaPageRankPropagation(PropagationApp):
    """Delta-PageRank: propagate rank *changes*, not whole ranks.

    Every vertex accumulates ``rank = sum of arrived deltas`` starting
    from the uniform base ``(1-d)/n``; a vertex stays in the frontier
    only while its last delta exceeds ``tolerance``.  The fixed point is
    the power-series PageRank with the paper's ``dangling='self'``
    semantics (no redistribution), so the :func:`repro.graph.algorithms.
    pagerank` oracle matches to within the tolerance.  Dense NR ships
    every edge every iteration; the delta formulation ships only the
    shrinking frontier's edges — the convergent-tail saving
    ``repro experiment delta_pr`` checks and gates.
    """

    name = "DPR"
    is_associative = True
    uses_frontier = True
    merge_ufunc = np.add

    def __init__(self, damping: float = 0.85,
                 tolerance: float = 1e-6) -> None:
        self.damping = damping
        self.tolerance = tolerance

    def setup(self, pgraph: Any) -> VertexState:
        n = pgraph.num_vertices
        base = (1.0 - self.damping) / n if n else 0.0
        rank = np.full(n, base)
        state = VertexState(pgraph=pgraph, values=rank)
        state.extra["delta"] = np.full(n, base)
        state.extra["out_deg"] = (
            pgraph.graph.out_degrees().astype(np.float64))
        active = np.abs(state.extra["delta"]) > self.tolerance
        state.extra["active"] = active
        state.extra["changed"] = int(active.sum())
        return state

    def frontier(self, state: Any) -> np.ndarray:
        return state.extra["active"]

    def select(self, u: int, state: Any) -> bool:
        return bool(state.extra["active"][u])

    def select_array(self, vertices: np.ndarray,
                     state: Any) -> np.ndarray:
        return state.extra["active"][vertices]

    def transfer(self, u: int, v: int, state: Any) -> float:
        return (self.damping * float(state.extra["delta"][u])
                / float(state.extra["out_deg"][u]))

    def transfer_array(self, src: np.ndarray, dst: np.ndarray,
                       state: Any) -> np.ndarray:
        # same IEEE operation order as the scalar path: (d * delta) / deg
        return ((self.damping * state.extra["delta"][src])
                / state.extra["out_deg"][src])

    def combine(self, v: int, values: list, state: Any) -> float:
        acc = 0.0
        for value in values:
            acc = acc + value
        return acc

    def combine_array(self, vertices: np.ndarray, folded: np.ndarray,
                      counts: np.ndarray, state: Any) -> np.ndarray:
        return folded  # no combine_all_vertices: every bag is non-empty

    def merge(self, a: float, b: float) -> float:
        return a + b

    def update(self, state: Any, combined: dict) -> None:
        rank = state.values
        delta = state.extra["delta"]
        delta[:] = 0.0
        active = np.zeros(rank.shape[0], dtype=bool)
        changed = 0
        for v, d in combined.items():
            rank[v] += d
            delta[v] = d
            if abs(d) > self.tolerance:
                active[v] = True
                changed += 1
        state.extra["active"] = active
        state.extra["changed"] = changed

    def update_array(self, state: Any, vertices: np.ndarray,
                     values: np.ndarray) -> None:
        state.values[vertices] += values
        delta = state.extra["delta"]
        delta[:] = 0.0
        delta[vertices] = values
        hot = vertices[np.abs(values) > self.tolerance]
        active = np.zeros(delta.shape[0], dtype=bool)
        active[hot] = True
        state.extra["active"] = active
        state.extra["changed"] = int(hot.size)

    def converged(self, state: Any) -> bool:
        return state.extra["changed"] == 0

    def finalize(self, state: Any) -> np.ndarray:
        return state.values.copy()

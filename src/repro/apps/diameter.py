"""HADI-style diameter estimation with Flajolet–Martin sketches.

The paper cites HADI [12] — "fast diameter estimation and mining in
massive graphs with Hadoop" — as the canonical batch graph job of its
era.  This extension app reproduces HADI's algorithm on Surfer's
propagation primitive:

* each vertex starts with ``K`` Flajolet–Martin bitmasks seeded by
  hashing its id;
* every iteration each vertex ORs in its in-neighbors' masks, so after
  ``h`` iterations vertex ``v``'s masks sketch the set of vertices that
  reach ``v`` within ``h`` hops;
* the *neighborhood function* ``N(h)`` — the total number of reachable
  pairs within ``h`` hops — is estimated from the masks; the effective
  diameter is the smallest ``h`` with ``N(h) >= 0.9 * N(inf)``.

OR is associative, so local combination kicks in; convergence (no mask
changed) ends the iteration — both Surfer features in one app.  Deploy on
``graph.symmetrized()`` for the undirected diameter.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import VertexState
from repro.propagation.api import PropagationApp

__all__ = ["DiameterEstimationPropagation", "fm_estimate",
           "neighborhood_function_exact", "effective_diameter"]

#: magic constant of the Flajolet-Martin estimator
_FM_PHI = 0.77351
_MASK_BITS = 32


def _fm_seed_masks(num_vertices: int, num_masks: int,
                   seed: int) -> np.ndarray:
    """One FM bitmask per (vertex, copy): a single geometric bit set."""
    rng = np.random.default_rng(seed)
    # P(bit = b) = 2^-(b+1)
    bits = rng.geometric(0.5, size=(num_vertices, num_masks)) - 1
    bits = np.minimum(bits, _MASK_BITS - 1)
    return (np.int64(1) << bits.astype(np.int64))


def fm_estimate(masks) -> float:
    """Estimated set cardinality from ``K`` FM bitmasks."""
    masks = np.asarray(masks, dtype=np.int64).reshape(-1)
    lowest_zero = []
    for mask in masks:
        b = 0
        while mask & (np.int64(1) << np.int64(b)):
            b += 1
        lowest_zero.append(b)
    return float(2.0 ** np.mean(lowest_zero)) / _FM_PHI


def neighborhood_function_exact(graph, max_hops: int) -> list[int]:
    """Oracle: exact ``N(h)`` by BFS from every vertex (small graphs)."""
    from repro.graph.algorithms import bfs_levels

    totals = [0] * (max_hops + 1)
    for source in range(graph.num_vertices):
        dist = bfs_levels(graph, source)
        for h in range(max_hops + 1):
            totals[h] += int(np.count_nonzero((dist >= 0) & (dist <= h)))
    return totals


def effective_diameter(n_of_h: list[float]) -> int:
    """Smallest ``h`` whose ``N(h)`` reaches 90 % of the plateau."""
    if not n_of_h:
        return 0
    target = 0.9 * n_of_h[-1]
    for h, value in enumerate(n_of_h):
        if value >= target:
            return h
    return len(n_of_h) - 1


class DiameterEstimationPropagation(PropagationApp):
    """HADI on propagation: FM-mask OR-ing with convergence detection."""

    name = "DIAM"
    is_associative = True
    combine_all_vertices = False

    def __init__(self, num_masks: int = 8, seed: int = 17):
        self.num_masks = num_masks
        self.seed = seed

    def setup(self, pgraph) -> VertexState:
        masks = _fm_seed_masks(pgraph.num_vertices, self.num_masks,
                               self.seed)
        state = VertexState(pgraph=pgraph, values=masks)
        state.extra["changed"] = pgraph.num_vertices
        state.extra["n_of_h"] = [self._estimate_total(masks)]
        return state

    def _estimate_total(self, masks: np.ndarray) -> float:
        return float(sum(fm_estimate(masks[v])
                         for v in range(masks.shape[0])))

    def transfer(self, u, v, state):
        return tuple(int(m) for m in state.values[u])

    def combine(self, v, values, state):
        merged = np.array(state.values[v], dtype=np.int64)
        for masks in values:
            merged |= np.array(masks, dtype=np.int64)
        return tuple(int(m) for m in merged)

    def merge(self, a, b):
        return tuple(x | y for x, y in zip(a, b))

    def value_nbytes(self, value):
        return 8.0 * len(value)

    def update(self, state, combined):
        changed = 0
        for v, masks in combined.items():
            new = np.array(masks, dtype=np.int64)
            if not np.array_equal(new, state.values[v]):
                state.values[v] = new
                changed += 1
        state.extra["changed"] = changed
        state.extra["n_of_h"].append(self._estimate_total(state.values))

    def converged(self, state) -> bool:
        return state.extra["changed"] == 0

    def finalize(self, state):
        n_of_h = state.extra["n_of_h"]
        return {
            "neighborhood_function": n_of_h,
            "effective_diameter": effective_diameter(n_of_h),
        }

"""TC — triangle counting (Appendix D) in both primitives.

A triangle is three vertices pairwise connected (either direction).  Each
selected vertex ships its undirected neighbor list along its out-edges;
the receiver intersects the arrived list with its own.  Each triangle is
discovered once per connected vertex pair — exactly three times — so the
global count is the sum of pair discoveries divided by three.  Receiving
both directions of a mutual edge would double-count a pair, so the
receiver only counts a source it cannot itself reach, or the smaller id on
mutual edges.

With ``select_ratio < 1`` the count covers triangles whose *shipping pair*
is selected (the paper samples 10 % of vertices).  Tests use ratio 1.0 and
compare against the exact oracle.

A self loop pairs a vertex with itself, which is no side of a triangle:
it counts nothing.  The UDFs stay scalar (``transfer`` answers ``None``
for unsampled targets), but the state is arrays: the undirected neighbor
lists are the CSR rows of ``Graph.to_undirected`` — ascending, self
loops dropped — and the mutual-edge test is a binary search of the
out-row.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import VertexState, sample_mask
from repro.fold import Ragged
from repro.mapreduce.api import MapReduceApp
from repro.propagation.api import PropagationApp

__all__ = ["TriangleCountingPropagation", "TriangleCountingMapReduce"]


def _tc_state(pgraph, select_ratio: float, seed: int) -> VertexState:
    state = VertexState(pgraph=pgraph, values={})
    indptr, indices, _ = pgraph.graph.to_undirected()
    state.extra["rows"] = Ragged(indptr, indices)
    state.extra["selected"] = sample_mask(
        pgraph.num_vertices, select_ratio, seed
    )
    return state


def _count_pair(v: int, u: int, u_list, state) -> int:
    """Triangles discovered at ``v`` from ``u``'s neighbor list.

    Counts only when the pair ``{u, v}`` is examined at this endpoint:
    always when ``v`` cannot reach ``u`` itself (one-way edge), and at the
    larger endpoint on mutual edges; never for a self loop.
    """
    if u == v:
        return 0  # a self loop is no pair
    if v < u:
        out = state.graph.out_neighbors(v)
        at = int(np.searchsorted(out, u))
        if at < out.size and out[at] == u:
            return 0  # mutual edge: the larger endpoint examines this pair
    # u's edge to v puts u in v's row, so the row is not empty; neither
    # row holds its own vertex, so the common ids are the third corners
    row = state.extra["rows"][v]
    ids = np.asarray(u_list, dtype=np.int64)
    at = np.minimum(np.searchsorted(row, ids), row.size - 1)
    return int(np.count_nonzero(row[at] == ids))


class TriangleCountingPropagation(PropagationApp):
    """Propagation-based triangle counting (Algorithm 3)."""

    name = "TC"
    is_associative = False

    def __init__(self, select_ratio: float = 1.0, seed: int = 11):
        self.select_ratio = select_ratio
        self.seed = seed

    def setup(self, pgraph) -> VertexState:
        return _tc_state(pgraph, self.select_ratio, self.seed)

    def select(self, u, state):
        return bool(state.extra["selected"][u])

    def transfer(self, u, v, state):
        if not state.extra["selected"][v]:
            return None
        return (u, tuple(state.extra["rows"][u].tolist()))

    def combine(self, v, values, state):
        count = 0
        seen: set[int] = set()
        for u, u_list in values:
            if u in seen:
                continue
            seen.add(u)
            count += _count_pair(v, u, u_list, state)
        return count or None

    def value_nbytes(self, value):
        __, u_list = value
        return 8.0 * (1 + len(u_list))

    def update(self, state, combined):
        state.values.update(combined)

    def finalize(self, state):
        return sum(state.values.values()) // 3


class TriangleCountingMapReduce(MapReduceApp):
    """MapReduce-based triangle counting.

    ``map`` emits each selected source's neighbor list keyed by every
    selected out-neighbor; ``reduce`` intersects per destination.
    """

    name = "TC"

    def __init__(self, select_ratio: float = 1.0, seed: int = 11):
        self.select_ratio = select_ratio
        self.seed = seed

    def setup(self, pgraph) -> VertexState:
        return _tc_state(pgraph, self.select_ratio, self.seed)

    def map(self, partition, pgraph, state, emit):
        selected = state.extra["selected"]
        rows = state.extra["rows"]
        src, dst = pgraph.partition_edges(partition)
        keep = selected[src] & selected[dst]
        for u, v in zip(src[keep].tolist(), dst[keep].tolist()):
            u_list = tuple(rows[u].tolist())
            emit(v, (u, u_list))

    def reduce(self, key, values, state, emit):
        count = 0
        seen: set[int] = set()
        for u, u_list in values:
            if u in seen:
                continue
            seen.add(u)
            count += _count_pair(key, u, u_list, state)
        if count:
            emit(key, count)

    def value_nbytes(self, value):
        __, u_list = value
        return 8.0 * (1 + len(u_list))

    def output_nbytes(self, key, value):
        return 16.0  # (vertex, count) record

    def update(self, state, outputs):
        state.values.update(outputs)

    def finalize(self, state):
        return sum(state.values.values()) // 3

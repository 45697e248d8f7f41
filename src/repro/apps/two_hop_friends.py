"""TFL — two-hop friend lists (Appendix D) in both primitives.

Each selected vertex pushes its out-neighbor list to each of its
out-neighbors; a vertex's two-hop friend list is the deduplicated union of
the lists it receives, i.e. the people its in-neighbors point to.  The
result is a :class:`~repro.graph.digraph.Graph` whose row ``v`` lists
``v``'s two-hop friends ascending; the per-vertex oracle is
:func:`repro.graph.algorithms.two_hop_neighbors`.

Neighbor lists make the intermediate data enormous — the paper's TFL is
its most network-intensive workload (2.9 TB at O1, Table 3) and the one
local combination helps most, since lists destined for the same remote
vertex deduplicate before crossing the network.

Both primitives also run columnar, the lists as one
:class:`~repro.fold.Ragged` column: propagation ships each source's
distinct out-neighbors (its frozenset) and unites them with ``merge_ufunc
= np.union1d``; MapReduce's ``map_array`` emits each source's raw row,
duplicates kept on a multigraph, as the scalar ``map`` does, and
``reduce_array`` unites them.  Every message holds the edge's own target,
so its scalar size ``8 · max(1, len)`` is the ragged ``8 · len``.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import (
    VertexState,
    assign_row_dict,
    assign_rows,
    no_rows,
    rows_graph,
    sample_mask,
)
from repro.fold import Ragged, distinct_rows
from repro.mapreduce.api import MapReduceApp
from repro.propagation.api import PropagationApp

__all__ = ["TwoHopFriendsPropagation", "TwoHopFriendsMapReduce"]


def _tfl_state(pgraph, select_ratio: float, seed: int) -> VertexState:
    state = VertexState(pgraph=pgraph, values=no_rows())
    state.extra["selected"] = sample_mask(
        pgraph.num_vertices, select_ratio, seed
    )
    return state


class TwoHopFriendsPropagation(PropagationApp):
    """Propagation-based two-hop friend lists."""

    name = "TFL"
    is_associative = True
    merge_ufunc = staticmethod(np.union1d)

    def __init__(self, select_ratio: float = 1.0, seed: int = 13):
        self.select_ratio = select_ratio
        self.seed = seed

    def setup(self, pgraph) -> VertexState:
        state = _tfl_state(pgraph, self.select_ratio, self.seed)
        # each selected vertex's distinct out-neighbors, one row per vertex
        src, dst = pgraph.graph.out_edges_of(
            np.flatnonzero(state.extra["selected"]))
        state.extra["friends"] = distinct_rows(src, dst, pgraph.num_vertices)
        return state

    def select(self, u, state):
        return bool(state.extra["selected"][u])

    def select_array(self, vertices, state):
        return state.extra["selected"][vertices]

    def transfer(self, u, v, state):
        return frozenset(int(w) for w in state.graph.out_neighbors(u))

    def transfer_array(self, src, dst, state):
        return state.extra["friends"].take(src)

    def combine(self, v, values, state):
        return frozenset().union(*values) if values else None

    def combine_array(self, vertices, folded, counts, state):
        return folded  # every vertex here received a list: the union

    def merge(self, a, b):
        return a | b

    def value_nbytes(self, value):
        return 8.0 * max(1, len(value))

    def result_nbytes(self, v, value):
        return 12.0 + 8.0 * len(value)

    def update(self, state, combined):
        assign_row_dict(state, combined)

    def update_array(self, state, vertices, values):
        assign_rows(state, vertices, values)

    def finalize(self, state):
        return rows_graph(state)


class TwoHopFriendsMapReduce(MapReduceApp):
    """MapReduce-based two-hop friend lists."""

    name = "TFL"

    def __init__(self, select_ratio: float = 1.0, seed: int = 13):
        self.select_ratio = select_ratio
        self.seed = seed

    def setup(self, pgraph) -> VertexState:
        return _tfl_state(pgraph, self.select_ratio, self.seed)

    def map(self, partition, pgraph, state, emit):
        selected = state.extra["selected"]
        graph = pgraph.graph
        for u in pgraph.partition_vertices[partition]:
            u = int(u)
            if not selected[u]:
                continue
            friends = tuple(int(w) for w in graph.out_neighbors(u))
            for v in friends:
                emit(v, friends)

    def map_array(self, partition, pgraph, state):
        verts = pgraph.partition_vertices[partition]
        sources = verts[state.extra["selected"][verts]]
        _, dst = pgraph.partition_out_edges(partition, sources)
        indptr = pgraph.graph.out_indptr
        # one row per source (its raw out-row), repeated once per out-edge
        rows = Ragged.from_lengths(indptr[sources + 1] - indptr[sources],
                                   dst.astype(np.int64, copy=False))
        return rows.flat, rows.take(rows.row_ids())

    def reduce(self, key, values, state, emit):
        emit(key, frozenset(w for friends in values for w in friends))

    def reduce_array(self, keys, gid, values, state):
        return keys, distinct_rows(gid[values.row_ids()], values.flat,
                                   keys.size)

    def value_nbytes(self, value):
        return 8.0 * max(1, len(value))

    def output_nbytes(self, key, value):
        return 12.0 + 8.0 * len(value)

    def update(self, state, outputs):
        assign_row_dict(state, outputs)

    def update_array(self, state, keys, values):
        assign_rows(state, keys, values)

    def finalize(self, state):
        return rows_graph(state)

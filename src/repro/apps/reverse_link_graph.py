"""RLG — reverse link graph (Appendix D) in both primitives.

Reverses every edge and stores the reversed graph as adjacency lists:
vertex ``v`` collects the distinct sources of its incoming edges.  On a
graph without parallel edges that is
:meth:`repro.graph.digraph.Graph.reverse`, which the tests use as the
oracle; RLG dedups, so parallel edges collapse and the two differ — on
``[(0, 1), (0, 1), (1, 2), (2, 0)]`` RLG keeps one edge ``1 -> 0`` where
``reverse()`` keeps two.

Both primitives also run columnar, the lists as one
:class:`~repro.fold.Ragged` column: one-id rows out of ``transfer_array``
joined in arrival order by ``merge_ufunc = np.concatenate`` (the scalar
``a + b`` on tuples), then sorted and deduplicated once per vertex in
``combine_array`` / ``reduce_array``.  Either path keeps the lists in
the state as ``(vertices, rows)`` columns.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import (
    VertexState,
    assign_row_dict,
    assign_rows,
    no_rows,
    rows_graph,
)
from repro.fold import Ragged, distinct_rows
from repro.mapreduce.api import MapReduceApp
from repro.propagation.api import PropagationApp

__all__ = ["ReverseLinkGraphPropagation", "ReverseLinkGraphMapReduce"]


class ReverseLinkGraphPropagation(PropagationApp):
    """Propagation-based edge reversal."""

    name = "RLG"
    is_associative = True
    merge_ufunc = staticmethod(np.concatenate)

    def setup(self, pgraph) -> VertexState:
        return VertexState(pgraph=pgraph, values=no_rows())

    def transfer(self, u, v, state):
        return (u,)

    def transfer_array(self, src, dst, state):
        return Ragged(np.arange(src.size + 1, dtype=np.int64),
                      src.astype(np.int64))

    def combine(self, v, values, state):
        return tuple(sorted(set(u for vs in values for u in vs)))

    def combine_array(self, vertices, folded, counts, state):
        return distinct_rows(folded.row_ids(), folded.flat, folded.size)

    def merge(self, a, b):
        return a + b

    def value_nbytes(self, value):
        return 8.0 * len(value)

    def result_nbytes(self, v, value):
        return 12.0 + 8.0 * len(value)

    def update(self, state, combined):
        assign_row_dict(state, combined)

    def update_array(self, state, vertices, values):
        assign_rows(state, vertices, values)

    def finalize(self, state):
        return rows_graph(state)


class ReverseLinkGraphMapReduce(MapReduceApp):
    """MapReduce-based edge reversal with per-partition dedup."""

    name = "RLG"

    def setup(self, pgraph) -> VertexState:
        return VertexState(pgraph=pgraph, values=no_rows())

    def map(self, partition, pgraph, state, emit):
        src, dst = pgraph.partition_edges(partition)
        for u, v in zip(src, dst):
            emit(int(v), int(u))

    def map_array(self, partition, pgraph, state):
        src, dst = pgraph.partition_edges(partition)
        return (dst.astype(np.int64, copy=False),
                src.astype(np.int64, copy=False))

    def reduce(self, key, values, state, emit):
        emit(key, tuple(sorted(set(values))))

    def reduce_array(self, keys, gid, values, state):
        # tuple(sorted(set(bag))) for every group in one sort
        return keys, distinct_rows(gid, values, keys.size)

    def output_nbytes(self, key, value):
        return 12.0 + 8.0 * len(value)

    def update(self, state, outputs):
        assign_row_dict(state, outputs)

    def update_array(self, state, keys, values):
        assign_rows(state, keys, values)

    def finalize(self, state):
        return rows_graph(state)

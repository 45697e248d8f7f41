"""RLG — reverse link graph (Appendix D) in both primitives.

Reverses every edge and stores the reversed graph as adjacency lists:
vertex ``v`` collects the sources of all its incoming edges.  Equivalent
to :meth:`repro.graph.digraph.Graph.reverse`, which the tests use as the
oracle.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import VertexState
from repro.graph.digraph import Graph
from repro.mapreduce.api import MapReduceApp
from repro.propagation.api import PropagationApp

__all__ = ["ReverseLinkGraphPropagation", "ReverseLinkGraphMapReduce",
           "reversed_graph_from_lists"]


def reversed_graph_from_lists(lists: dict, num_vertices: int) -> Graph:
    """Assemble the reversed :class:`Graph` from per-vertex source lists."""
    edges = [
        (v, u) for v, sources in lists.items() for u in sources
    ]
    return Graph.from_edges(edges, num_vertices=num_vertices, dedup=True)


class ReverseLinkGraphPropagation(PropagationApp):
    """Propagation-based edge reversal."""

    name = "RLG"
    is_associative = True

    def setup(self, pgraph) -> VertexState:
        return VertexState(pgraph=pgraph, values={})

    def transfer(self, u, v, state):
        return (u,)

    def combine(self, v, values, state):
        return tuple(sorted(set(u for vs in values for u in vs)))

    def merge(self, a, b):
        return a + b

    def value_nbytes(self, value):
        return 8.0 * len(value)

    def result_nbytes(self, v, value):
        return 12.0 + 8.0 * len(value)

    def update(self, state, combined):
        state.values.update(combined)

    def finalize(self, state):
        return reversed_graph_from_lists(
            state.values, state.num_vertices
        )


class ReverseLinkGraphMapReduce(MapReduceApp):
    """MapReduce-based edge reversal with per-partition dedup."""

    name = "RLG"

    def setup(self, pgraph) -> VertexState:
        return VertexState(pgraph=pgraph, values={})

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
        # no combiner possible here (bags don't fold to one value), but
        # the dedup+sort reduce vectorizes: one lexsort over (key, src)
        # then a per-group slice — tuple(sorted(set(bag))) exactly.
        order = np.lexsort((values, gid))
        sv = values[order]
        sg = gid[order]
        keep = np.empty(sv.size, dtype=bool)
        keep[:1] = True
        keep[1:] = (sv[1:] != sv[:-1]) | (sg[1:] != sg[:-1])
        dv = sv[keep]
        dg = sg[keep]
        cuts = np.flatnonzero(dg[1:] != dg[:-1]) + 1
        gbounds = np.concatenate(([0], cuts, [dg.size])).tolist()
        vlist = dv.tolist()
        return keys, [tuple(vlist[gbounds[i]:gbounds[i + 1]])
                      for i in range(keys.size)]

    def output_nbytes(self, key, value):
        return 12.0 + 8.0 * len(value)

    def update(self, state, outputs):
        state.values.update(outputs)

    def finalize(self, state):
        return reversed_graph_from_lists(
            state.values, state.num_vertices
        )

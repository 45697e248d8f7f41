"""NR — network ranking (PageRank) in both primitives (Appendix D).

The paper's formula:
``PR(v) = (1-d)/N + d * (PR(t1)/C(t1) + ... + PR(tm)/C(tm))``
over in-neighbors ``t_i``, with damping ``d`` and no dangling-rank
redistribution.  Both implementations below reproduce
:func:`repro.graph.algorithms.pagerank` bit-for-float.

The propagation UDFs (Algorithm 1) are a handful of lines; the MapReduce
map (Algorithm 2) must hand-roll the per-partition partial-rank hash table
— the programmability gap Table 4 counts.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import VertexState
from repro.mapreduce.api import MapReduceApp
from repro.propagation.api import PropagationApp

__all__ = ["NetworkRankingPropagation", "NetworkRankingMapReduce"]


def _rank_state(pgraph) -> VertexState:
    n = pgraph.num_vertices
    state = VertexState(
        pgraph=pgraph,
        values=np.full(n, 1.0 / n) if n else np.zeros(0),
    )
    state.extra["out_deg"] = pgraph.graph.out_degrees()
    return state


class NetworkRankingPropagation(PropagationApp):
    """Propagation-based PageRank (Algorithm 1)."""

    name = "NR"
    is_associative = True
    combine_all_vertices = True
    merge_ufunc = np.add

    def __init__(self, damping: float = 0.85):
        self.damping = damping

    def setup(self, pgraph) -> VertexState:
        state = _rank_state(pgraph)
        # teleport term is iteration-invariant; combine() runs per vertex
        state.extra["teleport"] = (
            (1.0 - self.damping) / pgraph.num_vertices
            if pgraph.num_vertices else 0.0
        )
        return state

    def transfer(self, u, v, state):
        return self.damping * state.values[u] / state.extra["out_deg"][u]

    def transfer_array(self, src, dst, state):
        return self.damping * state.values[src] / state.extra["out_deg"][src]

    def combine(self, v, values, state):
        return state.extra["teleport"] + sum(values)

    def combine_array(self, vertices, folded, counts, state):
        return state.extra["teleport"] + np.where(counts > 0, folded, 0.0)

    def merge(self, a, b):
        return a + b

    def finalize(self, state):
        return state.values


class NetworkRankingMapReduce(MapReduceApp):
    """MapReduce-based PageRank (Algorithm 2).

    ``map`` scans a graph partition once, accumulating partial ranks in a
    hash table (the paper's in-map data reduction), then emits one pair
    per distinct destination.  Zero-contributions are emitted for the
    partition's own vertices so every vertex reaches ``reduce`` and
    receives its teleport term.

    With ``in_map_combining=False`` the map emits one raw pair per edge
    (plus a zero per partition vertex) and leaves the data reduction to
    the engine's map-side combiner — the Hadoop formulation Algorithm 2
    improves on; the combined shuffle is bit-identical to the in-map
    hash-table output, which makes the combiner's shuffle reduction
    directly measurable.

    ``map_array``'s table keys are held on the partition's destination
    index (:meth:`~repro.core.partitioned.PartitionedGraph.table_keys`):
    the distinct destinations ascending, then the own vertices no edge
    reaches, so a round only computes the deltas and folds them with one
    ``bincount`` over ``dst - lo``.
    """

    name = "NR"
    writeback_to_partitions = True
    combine_ufunc = np.add

    def __init__(self, damping: float = 0.85,
                 in_map_combining: bool = True):
        self.damping = damping
        self.in_map_combining = in_map_combining

    def setup(self, pgraph) -> VertexState:
        return _rank_state(pgraph)

    def map(self, partition, pgraph, state, emit):
        src, dst = pgraph.partition_edges(partition)
        out_deg = state.extra["out_deg"]
        if not self.in_map_combining:
            for u, v in zip(src, dst):
                emit(int(v), self.damping * state.values[u] / out_deg[u])
            for u in pgraph.partition_vertices[partition]:
                emit(int(u), 0.0)
            return
        rtable: dict[int, float] = {}
        for u, v in zip(src, dst):
            delta = self.damping * state.values[u] / out_deg[u]
            rtable[int(v)] = rtable.get(int(v), 0.0) + delta
        # the distinct destinations ascending, then the partition's own
        # vertices no edge reaches: ``map_array``'s table order
        for v in sorted(rtable):
            emit(v, rtable[v])
        for u in pgraph.partition_vertices[partition]:
            u = int(u)
            if u not in rtable:
                emit(u, 0.0)

    def map_array(self, partition, pgraph, state):
        own = pgraph.partition_vertices[partition]
        deg = state.extra["out_deg"][own]
        # damping * rank / out-degree once per source, repeated over its
        # out-edges in scan order (ascending source): the per-edge
        # expression element for element; a source without out-edges
        # is repeated zero times and never divided
        share = np.divide(self.damping * state.values[own], deg,
                          out=np.zeros(own.size), where=deg > 0)
        deltas = np.repeat(share, deg)
        dst = pgraph.partition_dests(partition)
        if not self.in_map_combining:
            keys = np.concatenate((dst.astype(np.int64, copy=False),
                                   own.astype(np.int64, copy=False)))
            values = np.concatenate((deltas, np.zeros(own.size)))
            return keys, values
        # 0.0 + d1 + d2 + ... per destination in scan order (bincount
        # accumulates in input order: the scalar table's chain), taken
        # at the occupied slots; 0.0 for the own vertices no edge reaches
        keys, distinct = pgraph.table_keys(partition)
        partial = np.zeros(keys.size)
        if distinct:
            lo, hi = int(keys[0]), int(keys[distinct - 1])
            np.take(np.bincount(dst - lo if lo else dst, weights=deltas,
                                minlength=hi - lo + 1),
                    keys[:distinct] - lo if lo else keys[:distinct],
                    out=partial[:distinct], mode="clip")
        return keys, partial

    def reduce(self, key, values, state, emit):
        rank = (1.0 - self.damping) / state.num_vertices + sum(values)
        emit(key, rank)

    def reduce_array(self, keys, gid, values, state):
        # bincount accumulates in arrival order: 0.0 + v1 + v2 + ...,
        # matching the scalar sum() fold bit for bit
        totals = np.bincount(gid, weights=values, minlength=keys.size)
        return keys, (1.0 - self.damping) / state.num_vertices + totals

    def combine(self, key, values, state):
        return sum(values)

    def finalize(self, state):
        return state.values

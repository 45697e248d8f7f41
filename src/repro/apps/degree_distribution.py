"""VDD — vertex degree distribution (Appendix D) in both primitives.

VDD is a vertex-oriented task: it needs no edge traversal, just a global
group-by on degree.  The propagation version demonstrates the *virtual
vertex* mechanism (Section 3.3): each vertex emits ``(degree, 1)`` to the
virtual vertex whose id is the degree value; the virtual vertex sums.
Because routing is a hash of the degree, graph locality is irrelevant —
which is why the paper sees no benefit from bandwidth-aware placement on
VDD and parity with MapReduce (Figure 7).
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import VertexState
from repro.mapreduce.api import MapReduceApp
from repro.propagation.api import PropagationApp

__all__ = ["DegreeDistributionPropagation", "DegreeDistributionMapReduce"]


def _vdd_state(pgraph) -> VertexState:
    state = VertexState(pgraph=pgraph, values={})
    state.extra["out_deg"] = pgraph.graph.out_degrees()
    return state


class DegreeDistributionPropagation(PropagationApp):
    """Propagation-emulated VDD via virtual vertices."""

    name = "VDD"
    is_associative = True
    uses_virtual_vertices = True

    def setup(self, pgraph) -> VertexState:
        return _vdd_state(pgraph)

    def virtual_transfer(self, u, state):
        yield int(state.extra["out_deg"][u]), 1

    def virtual_combine(self, key, values, state):
        return sum(values)

    def merge(self, a, b):
        return a + b

    def update(self, state, combined):
        state.values.update(combined)

    def finalize(self, state):
        return dict(state.values)


class DegreeDistributionMapReduce(MapReduceApp):
    """MapReduce VDD with per-partition combining."""

    name = "VDD"
    combine_ufunc = np.add

    def setup(self, pgraph) -> VertexState:
        return _vdd_state(pgraph)

    def map(self, partition, pgraph, state, emit):
        table: dict[int, int] = {}
        out_deg = state.extra["out_deg"]
        for u in pgraph.partition_vertices[partition]:
            d = int(out_deg[u])
            table[d] = table.get(d, 0) + 1
        for degree, count in table.items():
            emit(degree, count)

    def map_array(self, partition, pgraph, state):
        out_deg = state.extra["out_deg"]
        degs = out_deg[pgraph.partition_vertices[partition]]
        uniq, counts = np.unique(degs, return_counts=True)
        return uniq.astype(np.int64, copy=False), counts

    def reduce(self, key, values, state, emit):
        emit(key, sum(values))

    def reduce_array(self, keys, gid, values, state):
        # exact int64 totals, as the scalar sum() of int counts
        totals = np.zeros(keys.size, dtype=values.dtype)
        np.add.at(totals, gid, values)
        return keys, totals

    def combine(self, key, values, state):
        return sum(values)

    def update(self, state, outputs):
        state.values.update(outputs)

    def finalize(self, state):
        return dict(state.values)

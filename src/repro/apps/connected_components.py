"""CC — connected components via label propagation (extension app).

Weakly connected components is the other canonical batch graph job of the
Pregel/PEGASUS era (the paper cites PEGASUS, whose GIM-V showcase is
exactly this).  Each vertex holds a component label (initially its own
id); every iteration it broadcasts its label along *both* edge directions
and keeps the minimum it has seen.  The iteration converges when no label
changes — the natural demonstration of Surfer's multi-iteration /
convergence API.

Implemented in both primitives like the paper's six applications; the
oracle is :func:`repro.graph.algorithms.weakly_connected_components`.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import VertexState
from repro.mapreduce.api import MapReduceApp
from repro.propagation.api import PropagationApp

__all__ = ["ConnectedComponentsPropagation", "ConnectedComponentsMapReduce",
           "canonical_labels"]


def canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Renumber component labels to 0..k-1 in order of first appearance."""
    mapping: dict[int, int] = {}
    out = np.zeros_like(labels)
    for i, label in enumerate(labels):
        key = int(label)
        if key not in mapping:
            mapping[key] = len(mapping)
        out[i] = mapping[key]
    return out


def _cc_state(pgraph) -> VertexState:
    n = pgraph.num_vertices
    state = VertexState(pgraph=pgraph,
                        values=np.arange(n, dtype=np.int64))
    state.extra["changed"] = n  # everything "changed" before iteration 1
    return state


class ConnectedComponentsPropagation(PropagationApp):
    """Classic min-label push.

    Labels must be able to flow against edge direction, so deploy this on
    ``graph.symmetrized()`` — the natural input for an undirected
    notion of connectivity.
    """

    name = "CC"
    is_associative = True
    combine_all_vertices = True
    merge_ufunc = np.minimum

    def setup(self, pgraph) -> VertexState:
        return _cc_state(pgraph)

    def transfer(self, u, v, state):
        return int(state.values[u])

    def transfer_array(self, src, dst, state):
        return state.values[src]

    def combine(self, v, values, state):
        return int(min([state.values[v], *values]))

    def combine_array(self, vertices, folded, counts, state):
        own = state.values[vertices]
        return np.where(counts > 0, np.minimum(own, folded), own)

    def merge(self, a, b):
        return a if a < b else b

    def update(self, state, combined):
        changed = 0
        for v, label in combined.items():
            if state.values[v] != label:
                state.values[v] = label
                changed += 1
        state.extra["changed"] = changed

    def update_array(self, state, vertices, values):
        moved = state.values[vertices] != values
        state.values[vertices[moved]] = values[moved]
        state.extra["changed"] = int(moved.sum())

    def converged(self, state) -> bool:
        """True once an iteration changed no label."""
        return state.extra["changed"] == 0

    def finalize(self, state):
        return canonical_labels(state.values)


class ConnectedComponentsMapReduce(MapReduceApp):
    """The MapReduce counterpart: emit pair-minimum labels both ways."""

    name = "CC"
    writeback_to_partitions = True

    def setup(self, pgraph) -> VertexState:
        return _cc_state(pgraph)

    def map(self, partition, pgraph, state, emit):
        table: dict[int, int] = {}
        src, dst = pgraph.partition_edges(partition)
        for u, v in zip(src, dst):
            low = int(min(state.values[u], state.values[v]))
            for w in (int(u), int(v)):
                if low < table.get(w, w + 10**18):
                    table[w] = low
        for v, label in table.items():
            emit(v, label)

    def reduce(self, key, values, state, emit):
        emit(key, int(min([state.values[key], *values])))

    def update(self, state, outputs):
        changed = 0
        for v, label in outputs.items():
            if state.values[v] != label:
                state.values[v] = label
                changed += 1
        state.extra["changed"] = changed

    def converged(self, state) -> bool:
        return state.extra["changed"] == 0

    def finalize(self, state):
        return canonical_labels(state.values)

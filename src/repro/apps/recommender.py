"""RS — recommender system (Appendix D) in both primitives.

A product adoption cascade: adopters recommend the product to all their
friends each iteration; a recommended person accepts with probability
``p``.  Acceptance coins are a deterministic per-(vertex, iteration) hash
so every engine, optimization level and primitive produces the identical
adoption set.

Both primitives also run columnar.  :func:`accepts_array` is the coin
over a vertex column, exactly: only the hash's low 32 bits decide, so
``v · 2654435761`` may wrap in ``uint64``.  Propagation's
``combine_array`` answers ``(values, present)``: a vertex that neither
adopted nor won its coin gets no output, as when ``combine`` returns
``None``.  MapReduce's ``map_array`` emits what ``map`` does — each
partition's distinct recommended targets ascending (flag 1), then its
adopters (flag 2) — and ``reduce_array`` keeps ``carry | coin``.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import VertexState, sample_mask
from repro.mapreduce.api import MapReduceApp
from repro.propagation.api import PropagationApp

__all__ = ["RecommenderPropagation", "RecommenderMapReduce", "accepts",
           "accepts_array"]


def accepts(v: int, iteration: int, probability: float, seed: int) -> bool:
    """Deterministic acceptance coin for vertex ``v`` at ``iteration``."""
    h = ((v * 2654435761) ^ (iteration * 40503) ^ seed) & 0xFFFFFFFF
    return h < probability * 0x100000000


def accepts_array(vertices: np.ndarray, iteration: int, probability: float,
                  seed: int) -> np.ndarray:
    """:func:`accepts` for every vertex of a column, bit for bit: the
    product wraps in ``uint64`` (its low 32 bits are exact) and
    ``iteration`` and ``seed``, any Python ints, fold to 32 bits as
    ``& 0xFFFFFFFF`` folds them."""
    mix = np.uint64(((iteration * 40503) ^ seed) & 0xFFFFFFFF)
    h = (vertices.astype(np.uint64) * np.uint64(2654435761)) ^ mix
    return (h & np.uint64(0xFFFFFFFF)) < probability * 0x100000000


def _coins(app, vertices: np.ndarray, state: VertexState) -> np.ndarray:
    return accepts_array(vertices, state.extra["iteration"],
                         app.probability, app.seed)


def _adopt(state: VertexState, vertices: np.ndarray,
           adopted: np.ndarray) -> None:
    state.values[vertices] = adopted
    state.extra["iteration"] += 1


def _rs_state(pgraph, initial_ratio: float, seed: int) -> VertexState:
    state = VertexState(
        pgraph=pgraph,
        values=sample_mask(pgraph.num_vertices, initial_ratio, seed).copy(),
    )
    state.extra["iteration"] = 0
    return state


class RecommenderPropagation(PropagationApp):
    """Propagation-based recommendation cascade."""

    name = "RS"
    is_associative = True
    merge_ufunc = np.logical_or

    def __init__(self, probability: float = 0.3, initial_ratio: float = 0.05,
                 seed: int = 7):
        self.probability = probability
        self.initial_ratio = initial_ratio
        self.seed = seed

    def setup(self, pgraph) -> VertexState:
        return _rs_state(pgraph, self.initial_ratio, self.seed)

    def select(self, u, state):
        return bool(state.values[u])

    def select_array(self, vertices, state):
        return state.values[vertices]

    def transfer(self, u, v, state):
        return True

    def transfer_array(self, src, dst, state):
        return np.ones(src.size, dtype=bool)

    def combine(self, v, values, state):
        if state.values[v]:
            return True
        coin = accepts(v, state.extra["iteration"], self.probability,
                       self.seed)
        return True if (values and coin) else None

    def combine_array(self, vertices, folded, counts, state):
        present = state.values[vertices] | (
            (counts > 0) & _coins(self, vertices, state))
        return np.ones(vertices.size, dtype=bool), present

    def merge(self, a, b):
        return a or b

    def value_nbytes(self, value):
        return 1.0

    def update(self, state, combined):
        for v, adopted in combined.items():
            state.values[v] = adopted
        state.extra["iteration"] += 1

    def update_array(self, state, vertices, values):
        _adopt(state, vertices, values)

    def finalize(self, state):
        return state.values


class RecommenderMapReduce(MapReduceApp):
    """MapReduce-based recommendation cascade.

    ``map`` scans the partition, deduplicates recommendations per target
    in a hash table, emits one flag per recommended vertex plus a carry
    record for current adopters; ``reduce`` applies the acceptance coin.
    """

    name = "RS"
    writeback_to_partitions = True

    def __init__(self, probability: float = 0.3, initial_ratio: float = 0.05,
                 seed: int = 7):
        self.probability = probability
        self.initial_ratio = initial_ratio
        self.seed = seed

    def setup(self, pgraph) -> VertexState:
        return _rs_state(pgraph, self.initial_ratio, self.seed)

    def map(self, partition, pgraph, state, emit):
        recommended: set[int] = set()
        src, dst = pgraph.partition_edges(partition)
        for u, v in zip(src, dst):
            if state.values[u]:
                recommended.add(int(v))
        for v in sorted(recommended):
            emit(v, 1)
        for u in pgraph.partition_vertices[partition]:
            if state.values[u]:
                emit(int(u), 2)  # carry: already an adopter

    def map_array(self, partition, pgraph, state):
        src, dst = pgraph.partition_edges(partition)
        targets = np.unique(dst[state.values[src]])
        verts = pgraph.partition_vertices[partition]
        carry = verts[state.values[verts]]
        keys = np.concatenate((targets, carry)).astype(np.int64)
        flags = np.repeat(np.array([1, 2], dtype=np.int64),
                          [targets.size, carry.size])
        return keys, flags

    def reduce(self, key, values, state, emit):
        if 2 in values:
            emit(key, True)
        elif accepts(key, state.extra["iteration"], self.probability,
                     self.seed):
            emit(key, True)

    def reduce_array(self, keys, gid, values, state):
        adopt = _coins(self, keys, state)
        adopt[gid[values == 2]] = True  # carry
        return keys[adopt], np.ones(int(adopt.sum()), dtype=bool)

    def value_nbytes(self, value):
        return 1.0

    def update(self, state, outputs):
        for v, adopted in outputs.items():
            state.values[v] = adopted
        state.extra["iteration"] += 1

    def update_array(self, state, keys, values):
        _adopt(state, keys, values)

    def finalize(self, state):
        return state.values

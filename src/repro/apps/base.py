"""Shared state containers and helpers for the applications."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.partitioned import PartitionedGraph
from repro.fold import Ragged
from repro.graph.digraph import Graph, csr_from_keys, edge_keys

__all__ = ["VertexState", "sample_mask", "no_rows", "assign_rows",
           "assign_row_dict", "rows_graph"]


@dataclass
class VertexState:
    """Generic per-vertex state: a values container plus app extras."""

    pgraph: PartitionedGraph
    values: Any
    extra: dict = field(default_factory=dict)

    @property
    def graph(self):
        return self.pgraph.graph

    @property
    def num_vertices(self) -> int:
        return self.pgraph.num_vertices


def sample_mask(num_vertices: int, ratio: float, seed: int = 0) -> np.ndarray:
    """Deterministic vertex sample of approximately ``ratio`` fraction.

    TC and TFL run on a 10 % vertex sample in the paper; the mask is a
    seeded hash so every engine and optimization level sees the same
    subset.  Any int is a seed: it is taken mod 2**64, so every seed in
    ``[0, 2**64)`` is itself.
    """
    if ratio >= 1.0:
        return np.ones(num_vertices, dtype=bool)
    if ratio <= 0.0:
        return np.zeros(num_vertices, dtype=bool)
    ids = np.arange(num_vertices, dtype=np.uint64)
    hashed = ((ids + np.uint64(seed % 2**64)) * np.uint64(2654435761)
              ) & np.uint64(0xFFFFFFFF)
    return hashed < np.uint64(int(ratio * 0xFFFFFFFF))


def no_rows() -> tuple[np.ndarray, Ragged]:
    """Per-vertex id lists as ``(vertices, rows)`` columns, none yet."""
    return (np.zeros(0, dtype=np.int64),
            Ragged(np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)))


def assign_rows(state: VertexState, vertices: np.ndarray,
                rows: Ragged) -> None:
    """``state.values[v] = row`` for id lists kept as ``(vertices, rows)``
    columns (RLG, TFL): a vertex assigned again keeps only its latest
    row, as ``dict.update`` would.  ``vertices`` are unique."""
    old, old_rows = state.values
    if old.size:
        keep = ~np.isin(old, vertices)
        vertices = np.concatenate((old[keep], vertices))
        rows = np.concatenate((old_rows[keep], rows))
    state.values = (vertices, rows)


def assign_row_dict(state: VertexState, combined: dict) -> None:
    """:func:`assign_rows` of a scalar path's ``{vertex: id list}``."""
    assign_rows(state,
                np.fromiter(combined, dtype=np.int64, count=len(combined)),
                Ragged.from_rows(combined.values()))


def rows_graph(state: VertexState) -> Graph:
    """The :class:`Graph` whose row ``v`` is ``v``'s id list in the
    ``(vertices, rows)`` columns (RLG's sources, TFL's two-hop friends);
    a vertex without a list has an empty row."""
    vertices, rows = state.values
    n = state.num_vertices
    flat, row_of = rows.flat, rows.row_ids()
    if np.all((flat[1:] > flat[:-1]) | (row_of[1:] != row_of[:-1])):
        # the array paths' rows, each already ascending and distinct:
        # the CSR is the rows in vertex order, no sort of the ids
        indptr = np.zeros(n + 1, dtype=np.int64)
        indptr[vertices + 1] = rows.lengths()
        np.cumsum(indptr, out=indptr)
        return Graph(indptr, rows.take(np.argsort(vertices)).flat)
    keys = edge_keys(vertices[row_of], flat, n)
    return Graph(*csr_from_keys(keys, n, n, dedup=True))

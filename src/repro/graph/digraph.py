"""Directed graph in compressed-sparse-row (CSR) form.

This is the core in-memory representation used throughout the reproduction.
Surfer stores graphs as adjacency lists ``<ID, d, neighbors>`` (Section 3 of
the paper); CSR is the natural columnar equivalent: one ``int64`` index array
per direction plus an offsets array.  Graphs are immutable once built, which
lets partitioners, engines and the simulator share them freely.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import GraphError

__all__ = ["Graph", "pair_keys", "edge_keys", "csr_from_keys",
           "balanced_offsets", "covers_range"]

# Pairs per block when ingesting a lazy edge iterable: bounds the
# transient Python-object overhead to O(chunk) instead of O(m).
_INGEST_CHUNK = 1 << 16


def _edges_to_array(edges: Iterable[tuple[int, int]] | np.ndarray) -> np.ndarray:
    """Materialize an edge iterable as one array, in fixed-size chunks.

    A plain ``np.asarray(list(edges))`` holds every pair as a Python
    tuple simultaneously — roughly 10x the final array's footprint.
    Converting ``_INGEST_CHUNK`` pairs at a time keeps the per-pair
    object overhead bounded while producing the identical array.
    """
    if isinstance(edges, np.ndarray):
        return edges
    it = iter(edges)
    blocks: list[np.ndarray] = []
    try:
        while True:
            chunk = list(islice(it, _INGEST_CHUNK))
            if not chunk:
                break
            blocks.append(np.asarray(chunk))
        if not blocks:
            return np.zeros((0, 2), dtype=np.int64)
        if len(blocks) == 1:
            return blocks[0]
        return np.concatenate(blocks)
    except ValueError as exc:
        raise GraphError("edges must be (m, 2) pairs") from exc


def pair_keys(
    rows: np.ndarray, cols: np.ndarray, num_rows: int, num_cols: int
) -> np.ndarray:
    """``row * num_cols + col`` per pair: one ``int64`` that sorts in
    ``(row, col)`` order.  Callers check ``0 <= row < num_rows`` and
    ``0 <= col < num_cols`` first."""
    if int(num_rows) * int(num_cols) >= 2**63:
        raise GraphError(
            f"{num_rows} x {num_cols} pairs do not fit an int64 sort key")
    return rows * np.int64(num_cols) + cols


def edge_keys(
    src: np.ndarray, dst: np.ndarray, num_vertices: int,
    drop_self_loops: bool = False,
) -> np.ndarray:
    """Checked :func:`pair_keys` of aligned ``(src, dst)`` endpoint
    arrays over ``num_vertices`` vertices, self loops left out when
    ``drop_self_loops``.  Every edge ingest — ``Graph.from_edges``, the
    generators' drain, the shard-store drain — validates its endpoints
    here, before any edge is dropped."""
    n = num_vertices
    if src.size:
        if min(src.min(), dst.min()) < 0:
            raise GraphError("vertex ids must be non-negative")
        if max(src.max(), dst.max()) >= n:
            raise GraphError("edge endpoint exceeds num_vertices")
    keys = pair_keys(src, dst, n, n)
    return keys[src != dst] if drop_self_loops else keys


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of ``values``, ascending: one sort, then a
    mask that drops every entry equal to its left neighbour.

    Not ``np.unique``: NumPy 2.4.6 routes a bare 1-D ``np.unique``
    through a hash table (``_unique_hash``) — 0.28 s for 786 k
    ``int64`` keys where this takes 0.008 s for the same array."""
    values = np.sort(values)
    if values.size == 0:
        return values
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _decode_sorted_keys(
    keys: np.ndarray, num_rows: int, num_cols: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of ascending :func:`pair_keys` keys."""
    rows, indices = np.divmod(keys, np.int64(num_cols))
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_rows), out=indptr[1:])
    return indptr, indices


def csr_from_keys(
    keys: np.ndarray, num_rows: int, num_cols: int, dedup: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """The CSR ``(indptr, indices)`` of :func:`pair_keys` keys: rows
    ascending, columns ascending within a row, duplicates dropped when
    ``dedup``.  Every pairs-to-CSR build in the repo — in-memory graphs
    and shard files alike — is this one sort."""
    keys = _sorted_distinct(keys) if dedup else np.sort(keys)
    return _decode_sorted_keys(keys, num_rows, num_cols)


def balanced_offsets(indptr: np.ndarray, count: int) -> np.ndarray:
    """Edge-balanced contiguous boundaries: ``count + 1`` vertex offsets
    cut from the CSR prefix sums ``indptr`` (O(n))."""
    n = indptr.size - 1
    total = int(indptr[-1])
    targets = (np.arange(1, count, dtype=np.int64) * total) // count
    inner = np.searchsorted(indptr[1:], targets, side="left") + 1
    offsets = np.concatenate((
        np.zeros(1, dtype=np.int64),
        np.minimum(inner, n).astype(np.int64),
        np.array([n], dtype=np.int64),
    ))
    return np.maximum.accumulate(offsets)


def covers_range(offsets: np.ndarray, count: int, n: int) -> bool:
    """Whether ``offsets`` are ``count + 1`` non-decreasing boundaries
    covering ``[0, n]`` (shard starts and range plans both must be)."""
    return bool(offsets.size == count + 1 and offsets[0] == 0
                and offsets[-1] == n and not np.any(np.diff(offsets) < 0))


class Graph:
    """An immutable directed graph over vertices ``0 .. n-1``.

    Parameters
    ----------
    out_indptr, out_indices:
        CSR arrays of the out-adjacency.  ``out_indices[out_indptr[v] :
        out_indptr[v + 1]]`` are the out-neighbors of ``v``.

    Use :meth:`from_edges` to construct from an edge list.  The in-adjacency
    is built lazily on first access and cached.
    """

    __slots__ = ("out_indptr", "out_indices", "_in_indptr", "_in_indices")

    def __init__(self, out_indptr: np.ndarray, out_indices: np.ndarray):
        out_indptr = np.asarray(out_indptr, dtype=np.int64)
        out_indices = np.asarray(out_indices, dtype=np.int64)
        if out_indptr.ndim != 1 or out_indices.ndim != 1:
            raise GraphError("CSR arrays must be one-dimensional")
        if out_indptr.size == 0:
            raise GraphError("indptr must have at least one entry")
        if out_indptr[0] != 0 or out_indptr[-1] != out_indices.size:
            raise GraphError("indptr does not cover the indices array")
        if np.any(np.diff(out_indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        n = out_indptr.size - 1
        if out_indices.size and (
            out_indices.min() < 0 or out_indices.max() >= n
        ):
            raise GraphError("edge endpoint out of range")
        self.out_indptr = out_indptr
        self.out_indices = out_indices
        self._in_indptr: np.ndarray | None = None
        self._in_indices: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        num_vertices: int | None = None,
        dedup: bool = False,
        drop_self_loops: bool = False,
    ) -> "Graph":
        """Build a graph from ``(src, dst)`` pairs.

        ``edges`` may be any iterable of pairs or an ``(m, 2)`` array.
        ``num_vertices`` defaults to ``max endpoint + 1``.
        """
        arr = _edges_to_array(edges)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphError("edges must be (m, 2) pairs")
        src = arr[:, 0].astype(np.int64, copy=False)
        dst = arr[:, 1].astype(np.int64, copy=False)
        if num_vertices is None:
            num_vertices = int(max(src.max(initial=-1), dst.max(initial=-1)) + 1)
        n = num_vertices
        keys = edge_keys(src, dst, n, drop_self_loops)
        return cls(*csr_from_keys(keys, n, n, dedup))

    @classmethod
    def empty(cls, num_vertices: int) -> "Graph":
        """A graph with ``num_vertices`` vertices and no edges."""
        return cls(np.zeros(num_vertices + 1, dtype=np.int64),
                   np.zeros(0, dtype=np.int64))

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.out_indptr.size - 1

    @property
    def num_edges(self) -> int:
        return self.out_indices.size

    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"

    # ------------------------------------------------------------------
    # Adjacency access
    # ------------------------------------------------------------------
    def out_neighbors(self, v: int) -> np.ndarray:
        """Out-neighbors of ``v`` (a CSR slice; do not mutate)."""
        return self.out_indices[self.out_indptr[v]: self.out_indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """In-neighbors of ``v`` (a CSR slice; do not mutate)."""
        self._ensure_in_csr()
        assert self._in_indptr is not None and self._in_indices is not None
        return self._in_indices[self._in_indptr[v]: self._in_indptr[v + 1]]

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex as an ``int64`` array."""
        return np.diff(self.out_indptr)

    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex as an ``int64`` array."""
        self._ensure_in_csr()
        assert self._in_indptr is not None
        return np.diff(self._in_indptr)

    def _ensure_in_csr(self) -> None:
        if self._in_indptr is None:
            n = self.num_vertices
            keys = pair_keys(self.out_indices, self.edge_sources(), n, n)
            self._in_indptr, self._in_indices = csr_from_keys(keys, n, n)

    def edge_sources(self) -> np.ndarray:
        """Source vertex of every edge, aligned with ``out_indices``."""
        return np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), self.out_degrees()
        )

    def out_edges_of(
        self, vertices: Sequence[int] | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """All out-edges of ``vertices`` as aligned ``(src, dst)`` arrays.

        Edges appear in scan order — ``vertices`` order, CSR order within
        each vertex — exactly the order a nested ``for u: for v in
        out_neighbors(u)`` loop visits them.  This is the bulk gather the
        vectorized Transfer fast path runs instead of that loop.
        """
        verts = np.asarray(vertices, dtype=np.int64)
        starts = self.out_indptr[verts]
        counts = self.out_indptr[verts + 1] - starts
        m = int(counts.sum())
        if m == 0:
            return (np.zeros(0, dtype=np.int64),
                    np.zeros(0, dtype=np.int64))
        src = np.repeat(verts, counts)
        block_starts = np.concatenate(
            ([0], np.cumsum(counts)[:-1])
        )
        idx = (np.arange(m, dtype=np.int64)
               + np.repeat(starts - block_starts, counts))
        return src, self.out_indices[idx]

    def out_indices_range(self, lo: int, hi: int) -> np.ndarray:
        """Edge slots ``[lo, hi)`` of the CSR destination array.

        The contract shard-backed graphs implement zero-copy from a
        memmapped shard; here it is a plain view.  Callers must treat
        the result as read-only.
        """
        return self.out_indices[lo:hi]

    def edges(self) -> np.ndarray:
        """All edges as an ``(m, 2)`` array in CSR order."""
        return np.stack([self.edge_sources(), self.out_indices], axis=1)

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Yield ``(src, dst)`` tuples in CSR order."""
        indptr, indices = self.out_indptr, self.out_indices
        for v in range(self.num_vertices):
            for j in range(indptr[v], indptr[v + 1]):
                yield v, int(indices[j])

    def has_edge(self, src: int, dst: int) -> bool:
        row = self.out_neighbors(src)
        idx = np.searchsorted(row, dst)
        return bool(idx < row.size and row[idx] == dst)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def reverse(self) -> "Graph":
        """The graph with every edge reversed (the RLG application output)."""
        self._ensure_in_csr()
        assert self._in_indptr is not None and self._in_indices is not None
        return Graph(self._in_indptr.copy(), self._in_indices.copy())

    def symmetrized(self) -> "Graph":
        """The graph with every edge present in both directions.

        Undirected-semantics algorithms (e.g. connected components by
        label propagation) run on this view so information flows against
        the original edge direction too.
        """
        src = self.edge_sources()
        dst = self.out_indices
        both = np.stack(
            [np.concatenate([src, dst]), np.concatenate([dst, src])],
            axis=1,
        )
        return Graph.from_edges(both, num_vertices=self.num_vertices,
                                dedup=True, drop_self_loops=True)

    def to_undirected(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Symmetrized weighted adjacency used by the partitioner.

        Returns ``(indptr, indices, weights)`` where parallel/antiparallel
        edges are merged with summed multiplicity and self loops are dropped.
        """
        src = self.edge_sources()
        dst = self.out_indices
        keep = src != dst
        s = np.concatenate([src[keep], dst[keep]])
        d = np.concatenate([dst[keep], src[keep]])
        n = self.num_vertices
        uniq, counts = np.unique(pair_keys(s, d, n, n), return_counts=True)
        indptr, indices = _decode_sorted_keys(uniq, n, n)
        return indptr, indices, counts.astype(np.int64)

    def subgraph(self, vertices: Sequence[int] | np.ndarray) -> tuple["Graph", np.ndarray]:
        """Induced subgraph on ``vertices``.

        Returns ``(sub, original_ids)`` where ``sub`` uses local ids
        ``0 .. len(vertices)-1`` and ``original_ids[local] = global``.
        """
        verts = np.asarray(vertices, dtype=np.int64)
        if verts.size and not (0 <= verts.min()
                               and verts.max() < self.num_vertices):
            raise GraphError("subgraph vertices must lie in [0, n)")
        if verts.size != _sorted_distinct(verts).size:
            raise GraphError("subgraph vertices must be distinct")
        local = -np.ones(self.num_vertices, dtype=np.int64)
        local[verts] = np.arange(verts.size)
        src = self.edge_sources()
        dst = self.out_indices
        keep = (local[src] >= 0) & (local[dst] >= 0)
        k = verts.size
        keys = pair_keys(local[src[keep]], local[dst[keep]], k, k)
        return Graph(*csr_from_keys(keys, k, k)), verts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (np.array_equal(self.out_indptr, other.out_indptr)
                and np.array_equal(self.out_indices, other.out_indices))

    def __hash__(self) -> int:
        return hash((self.num_vertices, self.num_edges))

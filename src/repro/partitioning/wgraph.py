"""Weighted undirected graph used internally by the multilevel partitioner.

Partitioning operates on a symmetrized, weighted view of the input digraph:
vertex weights count how many original vertices a coarse vertex represents,
edge weights count how many original edges a coarse edge represents.  The
edge cut of any partition of a coarse graph therefore equals the cut of the
projected partition of the original graph, which is the invariant the
multilevel scheme relies on.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitioningError
from repro.graph.digraph import Graph

__all__ = ["WGraph", "AdjacencyLists"]

#: ``(indptr, indices, eweights, vweights)`` as lists of plain ints
AdjacencyLists = tuple[list[int], list[int], list[int], list[int]]


class WGraph:
    """Symmetric weighted CSR graph (no self loops, positive weights).

    ``indices[indptr[v]:indptr[v+1]]`` are the neighbors of ``v`` and
    ``eweights`` the matching edge weights; each undirected edge is stored
    twice (once per endpoint) with equal weight.  Every weight counts
    original edges or vertices, so it is at least 1: ``from_digraph``
    counts them, contraction sums them, induction keeps them and
    ``from_edges`` rejects anything else.
    """

    __slots__ = ("indptr", "indices", "eweights", "vweights")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        eweights: np.ndarray,
        vweights: np.ndarray,
    ):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.eweights = np.asarray(eweights, dtype=np.int64)
        self.vweights = np.asarray(vweights, dtype=np.int64)
        if self.indices.size != self.eweights.size:
            raise PartitioningError("indices and eweights must align")
        if self.indptr.size != self.vweights.size + 1:
            raise PartitioningError("indptr and vweights must align")

    @property
    def num_vertices(self) -> int:
        return self.vweights.size

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (each stored twice internally)."""
        return self.indices.size // 2

    @property
    def total_vertex_weight(self) -> int:
        return int(self.vweights.sum())

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]: self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def edge_sources(self) -> np.ndarray:
        """Source vertex of every stored arc, aligned with ``indices``."""
        return np.repeat(np.arange(self.num_vertices, dtype=np.int64),
                         np.diff(self.indptr))

    def tolists(self) -> AdjacencyLists:
        """``(indptr, indices, eweights, vweights)`` as lists of plain ints.

        The form the partitioner's sequential loops (matching, GGGP growth,
        FM) run over: indexing a list yields an ``int`` at a fraction of the
        cost of boxing a NumPy scalar.  Callers drop the lists when their
        loop ends; between loops the state lives in the arrays.
        """
        return (self.indptr.tolist(), self.indices.tolist(),
                self.eweights.tolist(), self.vweights.tolist())

    def rows_of(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The CSR rows of ``vertices`` as flat ``(owner, arcs)`` arrays.

        ``arcs`` indexes ``indices`` / ``eweights`` row by row in the order
        ``vertices`` lists them (stored order within a row); ``owner[i]`` is
        the position in ``vertices`` of the row arc ``i`` belongs to.
        """
        starts = self.indptr[vertices]
        counts = self.indptr[vertices + 1] - starts
        owner = np.repeat(np.arange(vertices.size, dtype=np.int64), counts)
        first = np.cumsum(counts) - counts  # offset of each row in `arcs`
        arcs = np.arange(owner.size, dtype=np.int64) + (starts - first)[owner]
        return owner, arcs

    @classmethod
    def from_digraph(cls, graph: Graph,
                     balance: str = "edges") -> "WGraph":
        """Symmetrize a digraph; edge weight = #original edges merged.

        ``balance`` picks the vertex weights the partitioner balances:
        ``"edges"`` (default) weights each vertex by ``1 + out_degree`` so
        partitions end up with similar *edge* counts — the paper's stated
        constraint, and what equalizes per-partition work and storage —
        while ``"vertices"`` weights uniformly.
        """
        indptr, indices, weights = graph.to_undirected()
        if balance == "edges":
            vweights = 1 + graph.out_degrees()
        elif balance == "vertices":
            vweights = np.ones(graph.num_vertices, dtype=np.int64)
        else:
            raise PartitioningError("balance must be 'edges' or 'vertices'")
        return cls(indptr, indices, weights, vweights)

    @classmethod
    def from_edges(
        cls,
        edges,
        num_vertices: int,
        eweights=None,
        vweights=None,
    ) -> "WGraph":
        """Build from undirected edge pairs (each given once).

        Raises ``PartitioningError`` on a self loop, an id outside
        ``[0, num_vertices)`` or a weight that is not positive: the class
        keeps no self loops, and weights count original vertices and edges.
        """
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                         dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        w = (np.ones(arr.shape[0], dtype=np.int64) if eweights is None
             else np.asarray(eweights, dtype=np.int64))
        if arr.ndim != 2 or arr.shape[1] != 2 or w.shape != arr.shape[:1]:
            raise PartitioningError(
                "edges must be (u, v) pairs with one weight per pair")
        if ((arr < 0) | (arr >= num_vertices)).any():
            raise PartitioningError(
                f"edge endpoint outside [0, {num_vertices})")
        if (arr[:, 0] == arr[:, 1]).any():
            raise PartitioningError("self loop in edges")
        if (w <= 0).any():
            raise PartitioningError("edge weights must be positive")
        src = np.concatenate([arr[:, 0], arr[:, 1]])
        dst = np.concatenate([arr[:, 1], arr[:, 0]])
        ww = np.concatenate([w, w])
        order = np.lexsort((dst, src))
        src, dst, ww = src[order], dst[order], ww[order]
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=num_vertices), out=indptr[1:])
        vw = (np.ones(num_vertices, dtype=np.int64) if vweights is None
              else np.asarray(vweights, dtype=np.int64))
        if (vw <= 0).any():
            raise PartitioningError("vertex weights must be positive")
        return cls(indptr, dst, ww, vw)

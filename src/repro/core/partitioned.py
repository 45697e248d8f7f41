"""The partitioned graph and its per-partition locality structures.

Along with each partition Surfer keeps (Section 5.1) a hash table of its
*boundary vertices* (touched by at least one cross-partition edge), used
to decide local propagation, and a map ``(v, pid)`` from each destination
of a cross-partition edge to the remote partition holding it, used to
route messages.  Here both are arrays over all vertices: ``boundary_mask``
and the ``parts`` assignment itself.

Appendix B additionally encodes vertex ids so each partition owns a
consecutive id range, making vertex->partition lookup a binary search over
``P`` prefix sums instead of a global table; :class:`VertexEncoding`
implements that scheme.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitioningError
from repro.graph.digraph import Graph
from repro.graph.io import DEGREE_BYTES, VERTEX_ID_BYTES
from repro.partitioning.metrics import validate_assignment

__all__ = ["PartitionedGraph", "VertexEncoding"]


class VertexEncoding:
    """Consecutive-range vertex id encoding (Appendix B).

    The ``j``-th vertex of partition ``i`` gets id
    ``sum(sizes[:i]) + j``; finding a vertex's partition is then a
    ``searchsorted`` over the ``P + 1`` offsets.
    """

    def __init__(self, parts: np.ndarray, num_parts: int):
        parts = np.asarray(parts, dtype=np.int64)
        order = np.argsort(parts, kind="stable")
        self.new_to_old = order
        self.old_to_new = np.empty_like(order)
        self.old_to_new[order] = np.arange(order.size, dtype=np.int64)
        sizes = np.bincount(parts, minlength=num_parts)
        self.offsets = np.zeros(num_parts + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.offsets[1:])

    def encode(self, old_id: int) -> int:
        return int(self.old_to_new[old_id])

    def decode(self, new_id: int) -> int:
        return int(self.new_to_old[new_id])

    def partition_of(self, new_id: int) -> int:
        """Partition owning an *encoded* id, via binary search."""
        p = int(np.searchsorted(self.offsets, new_id, side="right") - 1)
        if not 0 <= new_id < self.offsets[-1]:
            raise PartitioningError(f"encoded id {new_id} out of range")
        return p

    def encode_graph(self, graph: Graph) -> Graph:
        """Relabel a graph into the encoded id space."""
        src = self.old_to_new[graph.edge_sources()]
        dst = self.old_to_new[graph.out_indices]
        return Graph.from_edges(
            np.stack([src, dst], axis=1), num_vertices=graph.num_vertices
        )


class PartitionedGraph:
    """A graph split into ``num_parts`` partitions with locality metadata.

    Works for any ``parts`` on any :class:`~repro.graph.digraph.Graph`,
    shard-backed ones included: the constructor and every accessor reach
    edges one partition at a time, through ``out_indptr``,
    ``out_indices_range`` and ``out_edges_of`` only, so nothing here
    touches a global O(m) edge array.

    A partition whose vertex ids are consecutive (every partition of a
    contiguous-range plan; Appendix B's encoding makes any plan so)
    serves its edges as a zero-copy CSR slice — the whole shard memmap
    when the ranges match a shard store's boundaries — and keeps
    nothing, so peak memory stays O(largest partition + n).  Any other
    partition gathers its rows once and keeps the gather.
    """

    def __init__(self, graph: Graph, parts: np.ndarray, num_parts: int):
        self.graph = graph
        self.parts = validate_assignment(parts, graph.num_vertices, num_parts)
        self.num_parts = num_parts
        enc = self.encoding()
        #: ascending vertex ids of each partition
        self.partition_vertices: list[np.ndarray] = [
            enc.new_to_old[enc.offsets[p]:enc.offsets[p + 1]]
            for p in range(num_parts)
        ]
        self._scan_edge_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

        # One pass per partition, over that partition's edges only.
        n = graph.num_vertices
        cross_sources = np.zeros(n, dtype=bool)
        #: destinations of cross-partition edges — where information
        #: from outside enters a partition
        self.entry_mask = np.zeros(n, dtype=bool)
        self._edge_counts = np.zeros(num_parts, dtype=np.int64)
        #: ``[p, q]`` = cross edges from partition ``p`` to ``q``
        self._traffic = np.zeros((num_parts, num_parts), dtype=np.int64)
        for p in range(num_parts):
            src, dst = self.partition_edges(p)
            self._edge_counts[p] = dst.size
            dst_parts = self.parts[dst]
            cross = dst_parts != p
            if not cross.any():
                continue
            cross_sources[src[cross]] = True
            self.entry_mask[dst[cross]] = True
            self._traffic[p] = np.bincount(dst_parts[cross],
                                           minlength=num_parts)
        #: boundary vertices: touched by any cross-partition edge
        self.boundary_mask = cross_sources | self.entry_mask

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def num_cross_edges(self) -> int:
        return int(self._traffic.sum())

    @property
    def inner_vertex_ratio(self) -> float:
        """Fraction of vertices eligible for local propagation."""
        n = self.num_vertices
        if n == 0:
            return 1.0
        return 1.0 - float(self.boundary_mask.sum()) / n

    @property
    def inner_edge_ratio(self) -> float:
        m = self.graph.num_edges
        if m == 0:
            return 1.0
        return 1.0 - self.num_cross_edges / m

    def partition_of(self, vertex: int) -> int:
        return int(self.parts[vertex])

    def partition_size(self, p: int) -> int:
        return self.partition_vertices[p].size

    def partition_edges(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        """Out-edges whose source lies in partition ``p`` as aligned
        ``(src, dst)`` arrays in scan order — ascending source, CSR
        order within a source.  Callers must treat them as read-only.

        Consecutive ids: ``dst`` is a zero-copy CSR slice and ``src`` an
        O(m_p) expansion of the range's degrees, rebuilt per call.
        Otherwise: one ``out_edges_of`` gather, computed once and cached
        (it is iteration-invariant — graph structure only).
        """
        verts = self.partition_vertices[p]
        if verts.size and verts[-1] - verts[0] + 1 == verts.size:
            indptr = self.graph.out_indptr[verts[0]:verts[-1] + 2]
            return (np.repeat(verts, np.diff(indptr)),
                    self.graph.out_indices_range(int(indptr[0]),
                                                 int(indptr[-1])))
        cached = self._scan_edge_cache.get(p)
        if cached is None:
            cached = self.graph.out_edges_of(verts)
            self._scan_edge_cache[p] = cached
        return cached

    def partition_edge_count(self, p: int) -> int:
        return int(self._edge_counts[p])

    def partition_out_edges(
        self, p: int, vertices: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Scan-order out-edges of (a subset of) partition ``p``.

        ``vertices`` defaults to every vertex of the partition, which is
        :meth:`partition_edges`; the vectorized Transfer passes the
        ``select``-ed subset, gathered in ``vertices`` order.
        """
        if vertices is None:
            return self.partition_edges(p)
        return self.graph.out_edges_of(vertices)

    def partition_bytes(self, p: int) -> int:
        """Adjacency-list bytes of partition ``p`` (its disk footprint)."""
        n_p = self.partition_size(p)
        m_p = self.partition_edge_count(p)
        return n_p * (VERTEX_ID_BYTES + DEGREE_BYTES) + m_p * VERTEX_ID_BYTES

    def cross_partition_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Cross-partition edge counts per partition, ``(outgoing,
        incoming)`` — the placement cost model's network term."""
        return self._traffic.sum(axis=1), self._traffic.sum(axis=0)

    def cross_traffic_counts(self) -> np.ndarray:
        """``T[p, q]`` = cross edges from partition ``p`` to ``q``."""
        return self._traffic.astype(np.float64)

    def encoding(self) -> VertexEncoding:
        """Consecutive-range id encoding for this partitioning."""
        return VertexEncoding(self.parts, self.num_parts)

    def validate(self) -> None:
        """Internal-consistency checks (used by tests)."""
        total = sum(v.size for v in self.partition_vertices)
        if total != self.num_vertices:
            raise PartitioningError("partition vertex lists do not cover V")
        if int(self._edge_counts.sum()) != self.graph.num_edges:
            raise PartitioningError("partition edges do not cover E")


# An alias, not a class: perf/trace.py still patches ``__init__`` under
# this second name and asserts that it resolves.  The benchmark PR that
# drops that target deletes this line with it.
RangePartitionedGraph = PartitionedGraph

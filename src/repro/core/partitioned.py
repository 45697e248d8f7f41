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

from repro.fold import Grouping
from repro.graph.digraph import Graph
from repro.graph.io import DEGREE_BYTES, VERTEX_ID_BYTES
from repro.partitioning.metrics import validate_assignment

__all__ = ["PartitionedGraph", "RoutePlan", "VertexEncoding"]


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
        sizes = np.bincount(parts, minlength=num_parts)
        self.offsets = np.zeros(num_parts + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.offsets[1:])


class RoutePlan:
    """How one partition's message column is routed (Section 5.1).

    The rows are the column's distinct destinations when it folds (then
    ``grouping`` groups it, its groups in route order), else its
    messages (``order`` lists them in route order).  In route order the
    first ``inner`` rows are inner (combined at once), those up to
    ``spill`` the boundary spill, the rest cross by destination
    partition, ascending within one: partition ``q``'s run starts
    ``offsets[q]`` rows after ``spill``.  ``inner_mask`` marks the rows
    that may be inner (None: none).  A held plan
    (:meth:`PartitionedGraph.dest_index`) is narrow and read-only.
    """

    __slots__ = ("grouping", "order", "inner", "spill", "offsets", "keys")

    def __init__(self, grouping: Grouping | None, dest_parts: np.ndarray,
                 inner_mask: np.ndarray | None, p: int,
                 num_parts: int) -> None:
        local = dest_parts == p
        # -2 inner, -1 spill, else the destination partition: one stable
        # argsort of narrow ints (a radix sort) lays the rows out
        key = np.where(local, -1, dest_parts).astype(
            np.min_scalar_type(-num_parts - 2))
        if inner_mask is not None:
            key[local & inner_mask] = -2
        runs = np.bincount(key + 2, minlength=num_parts + 2)
        order = np.argsort(key, kind="stable")
        self.inner, self.spill = int(runs[0]), int(runs[0] + runs[1])
        self.offsets = np.concatenate(([0], np.cumsum(runs[2:])))
        self.grouping = None if grouping is None else grouping.permuted(order)
        self.order = order if grouping is None else None
        self.keys: np.ndarray | None = None


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
    nothing per edge, so peak memory stays O(largest partition + n).
    Any other partition gathers its rows once and keeps the gather.
    Each partition's destination index (:meth:`dest_index`) is built at
    its first use and held: O(distinct destinations) on a consecutive
    partition, plus one narrow per-edge index beside a kept gather.
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
        self._dest_indexes: dict[int, RoutePlan] = {}

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

    def partition_size(self, p: int) -> int:
        return self.partition_vertices[p].size

    def _edge_span(self, p: int) -> np.ndarray | None:
        """The CSR ``indptr`` rows of partition ``p`` when its vertex ids
        are consecutive (its edges one slice), else None."""
        verts = self.partition_vertices[p]
        if verts.size and verts[-1] - verts[0] + 1 == verts.size:
            return self.graph.out_indptr[verts[0]:verts[-1] + 2]
        return None

    def partition_edges(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        """Out-edges whose source lies in partition ``p`` as aligned
        ``(src, dst)`` arrays in scan order — ascending source, CSR
        order within a source.  Callers must treat them as read-only.

        Consecutive ids: ``dst`` is a zero-copy CSR slice and ``src`` an
        O(m_p) expansion of the range's degrees, rebuilt per call.
        Otherwise: one ``out_edges_of`` gather, computed once and cached
        (it is iteration-invariant — graph structure only).
        """
        indptr = self._edge_span(p)
        if indptr is not None:
            return (np.repeat(self.partition_vertices[p], np.diff(indptr)),
                    self.partition_dests(p))
        cached = self._scan_edge_cache.get(p)
        if cached is None:
            cached = self.graph.out_edges_of(self.partition_vertices[p])
            self._scan_edge_cache[p] = cached
        return cached

    def partition_dests(self, p: int) -> np.ndarray:
        """The ``dst`` of :meth:`partition_edges` alone: zero-copy on
        consecutive ids, the cached gather's column otherwise."""
        indptr = self._edge_span(p)
        if indptr is None:
            return self.partition_edges(p)[1]
        return self.graph.out_indices_range(int(indptr[0]), int(indptr[-1]))

    def route_plan(self, grouping: Grouping | None, dest_parts: np.ndarray,
                   inner_mask: np.ndarray | None, p: int) -> RoutePlan:
        """A fresh plan for a column of partition ``p``."""
        return RoutePlan(grouping, dest_parts, inner_mask, p, self.num_parts)

    def dest_index(self, p: int) -> RoutePlan:
        """Partition ``p``'s destination index: the route plan of its
        whole out-edge column (folding, local optimizations on), held
        from the first call on (not thread-safe: build it before a pool
        lane reads it).  Grouped by slot, it keeps nothing per edge — a
        route recomputes ``dst - lo`` — unless the partition keeps its
        gathered edges; then it keeps each edge's row beside them."""
        index = self._dest_indexes.get(p)
        if index is None:
            dst = self.partition_dests(p)
            records = self._edge_span(p) is None
            grouping = Grouping(dst, ranked=records, by_slot=not records)
            uniq = grouping.uniq
            index = self.route_plan(grouping, self.parts[uniq],
                                    ~self.boundary_mask[uniq], p)
            held = index.grouping
            assert held is not None
            held = held.rank() if records else held  # rows in route order
            index.grouping = held.narrow(records, held.uniq.astype(
                np.min_scalar_type(max(self.num_vertices - 1, 0))))
            index.offsets = index.offsets.astype(
                np.min_scalar_type(int(index.offsets[-1])))
            index.offsets.flags.writeable = False
            self._dest_indexes[p] = index
        return index

    def table_keys(self, p: int) -> tuple[np.ndarray, int]:
        """``(keys, d)``: partition ``p``'s ``d`` distinct destinations
        ascending, then its own vertices that no edge of it reaches (NR
        MapReduce's in-map table), held read-only on its destination
        index from the first call on."""
        index = self.dest_index(p)
        assert index.grouping is not None
        if index.keys is None:
            uniq = np.sort(index.grouping.uniq)
            own = self.partition_vertices[p]
            index.keys = np.concatenate(
                (uniq, own[~np.isin(own, uniq)])).astype(uniq.dtype)
            index.keys.flags.writeable = False
        return index.keys, int(index.grouping.uniq.size)

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


# An alias, not a class: perf/trace.py still patches ``__init__`` under
# this second name and asserts that it resolves.  The benchmark PR that
# drops that target deletes this line with it.
RangePartitionedGraph = PartitionedGraph

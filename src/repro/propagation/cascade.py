"""Cascaded multi-iteration propagation (Section 5.2).

A naive multi-iteration run reads the previous iteration's values from disk
and writes the new ones back every iteration.  Cascading exploits vertices
whose ``k``-hop in-context lies entirely inside their partition: for a
vertex in ``V_k``, ``k`` iterations can be evaluated in one scan of the
partition, skipping the intermediate value round-trips.  ``V_inf`` are the
vertices never reached by external information; the phase length is bounded
by the smallest partition diameter ``d_min``.

We compute ``V_k`` exactly (distance from the *entry* vertices — those
with an incoming cross-partition edge — along forward in-partition edges),
run the iterations normally for bit-exact results, and scale each
partition's per-iteration value I/O by the fraction of vertices that still
needs intermediate state, which is precisely the disk-I/O saving the paper
measures (8 % time / 12 % disk at three iterations, for a 7 % ratio of
``V_k``, k >= 2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from dataclasses import dataclass, field

import numpy as np

from repro.graph.algorithms import estimate_diameter

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.partitioned import PartitionedGraph

__all__ = ["CascadeInfo", "compute_cascade_info", "cascade_io_fractions"]


@dataclass
class CascadeInfo:
    """Per-vertex cascade depths and per-partition diameters.

    ``depth[v]`` is the number of iterations vertex ``v`` can run locally
    before external information can reach it: 0 for entry-boundary
    vertices, ``k`` for members of ``V_k``, and ``-1`` (infinity) for
    ``V_inf``.

    ``partition_diameters[p]`` uses the same sentinel: ``-1`` marks a
    partition that no external information ever enters (no entry
    vertices — its vertices are all ``V_inf``) or that is empty.  Such a
    partition imposes no bound on the cascaded phase length, exactly as
    its vertices are unboundedly cascadable in the depth array.
    """

    depth: np.ndarray
    partition_diameters: list[int] = field(default_factory=list)

    def v_k_mask(self, k: int) -> np.ndarray:
        """Vertices in ``V_k`` (can batch ``k`` iterations locally)."""
        return (self.depth < 0) | (self.depth >= k)

    def ratio_v_k(self, k: int = 2) -> float:
        """Fraction of vertices in ``V_k`` — the paper reports 7 % at k=2."""
        if self.depth.size == 0:
            return 0.0
        return float(self.v_k_mask(k).sum()) / self.depth.size

    @property
    def d_min(self) -> int:
        """Smallest partition diameter: the cascaded phase length.

        Partitions that external information never enters carry the
        ``-1`` sentinel and are excluded — they cannot bound the phase
        (their vertices are ``V_inf``, mirroring ``depth < 0`` in
        :meth:`v_k_mask`).  Degenerate ``0`` estimates (single-vertex
        partitions) are excluded for the same reason: a phase length of
        zero is meaningless.
        """
        finite = [d for d in self.partition_diameters if d > 0]
        return min(finite) if finite else 1


def compute_cascade_info(pgraph: PartitionedGraph) -> CascadeInfo:
    """Exact ``V_k`` depths by multi-source BFS from entry vertices.

    Entry vertices of a partition are destinations of incoming
    cross-partition edges; information from outside enters there and
    propagates along forward in-partition edges, reaching a vertex at
    distance ``d`` after ``d`` further iterations.  Unreached vertices form
    ``V_inf``.
    """
    graph = pgraph.graph
    n = graph.num_vertices
    depth = -np.ones(n, dtype=np.int64)
    entries = np.flatnonzero(pgraph.entry_mask)

    from collections import deque

    dist = -np.ones(n, dtype=np.int64)
    queue: deque[int] = deque()
    for v in entries:
        dist[v] = 0
        queue.append(int(v))
    parts = pgraph.parts
    while queue:
        v = queue.popleft()
        dv = dist[v]
        for u in graph.out_neighbors(v):
            u = int(u)
            if parts[u] == parts[v] and dist[u] < 0:
                dist[u] = dv + 1
                queue.append(u)
    # dist < 0: never reached -> V_inf (depth stays -1)
    reached = dist >= 0
    depth[reached] = dist[reached]

    # Partitions without entry vertices are all-V_inf: external
    # information never reaches them, so their internal diameter must
    # not cap d_min (a tiny isolated island would otherwise destroy
    # cascading for every other partition while its own vertices are
    # treated as infinitely cascadable — inconsistent semantics).
    has_entries = np.zeros(pgraph.num_parts, dtype=bool)
    if entries.size:
        has_entries[parts[entries]] = True
    diameters = []
    for p in range(pgraph.num_parts):
        verts = pgraph.partition_vertices[p]
        if verts.size == 0 or not has_entries[p]:
            diameters.append(-1)
            continue
        sub, _ = graph.subgraph(verts)
        diameters.append(estimate_diameter(sub, num_probes=2, seed=p))
    return CascadeInfo(depth=depth, partition_diameters=diameters)


def cascade_io_fractions(
    pgraph: PartitionedGraph, info: CascadeInfo, phase_length: int
) -> np.ndarray:
    """Per-partition fraction of value I/O still needed per iteration.

    Within a phase of ``c`` iterations, a vertex at depth ``>= c`` (or in
    ``V_inf``) needs no intermediate value round-trips: 2 of ``c + 1``
    value touches remain (initial read, final write).  Shallower vertices
    pay full freight.  The returned fraction scales the engine's
    per-iteration value I/O.  Empty partitions (possible after elastic
    resizes or chaos kills) have no values to read or write at all, so
    their fraction is 0.
    """
    c = max(1, phase_length)
    fractions = np.ones(pgraph.num_parts)
    for p in range(pgraph.num_parts):
        verts = pgraph.partition_vertices[p]
        if verts.size == 0:
            fractions[p] = 0.0
            continue
        depths = info.depth[verts]
        cascadable = (depths < 0) | (depths >= c)
        ratio = float(cascadable.sum()) / verts.size
        # cascadable vertices touch values 2/(c+1) as often
        fractions[p] = (1.0 - ratio) + ratio * 2.0 / (c + 1.0)
    return fractions

"""Graph record sizing and edge-list interchange.

The paper stores graphs as records ``<ID, d, neighbors>`` where ``ID`` is the
vertex id, ``d`` its out-degree and ``neighbors`` the ``d`` neighbor ids
(Section 3).  The cluster simulator charges disk and network I/O by that
record size; the on-disk graph itself is the shard store
(:mod:`repro.graph.store`).  Edge lists are the interchange format with
external tools.
"""

from __future__ import annotations

from pathlib import Path
from typing import TextIO

from repro.errors import GraphFormatError
from repro.graph.digraph import Graph

__all__ = [
    "graph_storage_bytes",
    "read_edge_list",
    "write_edge_list",
    "VERTEX_ID_BYTES",
    "DEGREE_BYTES",
    "VALUE_BYTES",
]

# On-disk/on-wire record sizing used by the cost model (Section 4.2 / DESIGN).
VERTEX_ID_BYTES = 8   # vertex ids are int64
DEGREE_BYTES = 4      # degree field
VALUE_BYTES = 8       # one float64 application value


def graph_storage_bytes(graph: Graph) -> int:
    """Total bytes of the adjacency-list encoding of ``graph``."""
    n, m = graph.num_vertices, graph.num_edges
    return n * (VERTEX_ID_BYTES + DEGREE_BYTES) + m * VERTEX_ID_BYTES


def write_edge_list(graph: Graph, dest: TextIO | str | Path,
                    delimiter: str = "\t") -> None:
    """Write ``graph`` as ``src<delimiter>dst`` lines (SNAP-style)."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="ascii") as handle:
            write_edge_list(graph, handle, delimiter)
        return
    for u, v in graph.iter_edges():
        dest.write(f"{u}{delimiter}{v}\n")


def read_edge_list(src: TextIO | str | Path,
                   num_vertices: int | None = None,
                   dedup: bool = True,
                   drop_self_loops: bool = True) -> Graph:
    """Parse a whitespace/comma-separated edge list into a :class:`Graph`.

    Lines starting with ``#`` or ``%`` are comments (SNAP and Matrix
    Market conventions); empty lines are skipped.  Vertex ids must be
    non-negative integers.
    """
    if isinstance(src, (str, Path)):
        with open(src, "r", encoding="ascii") as handle:
            return read_edge_list(handle, num_vertices, dedup,
                                  drop_self_loops)
    edges: list[tuple[int, int]] = []
    for lineno, line in enumerate(src, start=1):
        line = line.strip()
        if not line or line.startswith(("#", "%")):
            continue
        fields = line.replace(",", " ").split()
        if len(fields) < 2:
            raise GraphFormatError(
                f"line {lineno}: expected 'src dst', got {line!r}"
            )
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise GraphFormatError(
                f"line {lineno}: non-integer vertex id"
            ) from exc
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {lineno}: negative vertex id")
        edges.append((u, v))
    return Graph.from_edges(edges, num_vertices=num_vertices,
                            dedup=dedup, drop_self_loops=drop_self_loops)

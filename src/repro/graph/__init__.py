"""Graph substrate: CSR digraphs, generators, serialization, algorithms."""

from repro.graph.digraph import Graph
from repro.graph.generators import (
    composite_social_graph,
    erdos_renyi,
    grid,
    ring,
    rmat,
    small_world,
    star,
)
from repro.graph.io import (
    graph_storage_bytes,
    read_edge_list,
    write_edge_list,
)
from repro.graph.analysis import (
    GraphProfile,
    clustering_coefficient,
    ier_curve,
    profile_graph,
)
from repro.graph.algorithms import (
    bfs_levels,
    count_triangles,
    degree_histogram,
    estimate_diameter,
    multi_source_bfs,
    pagerank,
    two_hop_neighbors,
    weakly_connected_components,
)

__all__ = [
    "Graph",
    "composite_social_graph",
    "erdos_renyi",
    "grid",
    "ring",
    "rmat",
    "small_world",
    "star",
    "graph_storage_bytes",
    "read_edge_list",
    "write_edge_list",
    "GraphProfile",
    "clustering_coefficient",
    "ier_curve",
    "profile_graph",
    "bfs_levels",
    "count_triangles",
    "degree_histogram",
    "estimate_diameter",
    "multi_source_bfs",
    "pagerank",
    "two_hop_neighbors",
    "weakly_connected_components",
]

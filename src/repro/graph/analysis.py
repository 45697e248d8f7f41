"""Graph-profile analysis: the statistics that drive deployment choices.

Before deploying a graph, an operator wants the numbers the paper's
design decisions hinge on: degree skew (VDD hotspots), clustering
(triangle density), community modularity (how much a partitioner can
save), and the partitioning-quality curve (Table 5's ier-vs-P
trade-off).  :func:`profile_graph` collects them; the CLI's ``graphinfo``
command prints them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.digraph import Graph
from repro.graph.algorithms import weakly_connected_components

__all__ = ["GraphProfile", "profile_graph", "degree_statistics",
           "clustering_coefficient", "ier_curve"]


@dataclass
class GraphProfile:
    """Summary statistics of a graph."""

    num_vertices: int
    num_edges: int
    degree_mean: float
    degree_max: int
    degree_gini: float
    reciprocity: float
    clustering: float
    num_components: int
    largest_component_fraction: float
    ier_curve: dict[int, float] = field(default_factory=dict)

    def report(self) -> str:
        lines = [
            f"vertices            : {self.num_vertices:,}",
            f"edges               : {self.num_edges:,}",
            f"out-degree mean/max : {self.degree_mean:.2f} / "
            f"{self.degree_max}",
            f"degree gini         : {self.degree_gini:.3f} "
            "(0 = uniform, 1 = one hub)",
            f"edge reciprocity    : {self.reciprocity:.1%}",
            f"clustering coeff.   : {self.clustering:.4f} (sampled)",
            f"weak components     : {self.num_components} "
            f"(largest holds {self.largest_component_fraction:.1%})",
        ]
        if self.ier_curve:
            parts = "  ".join(f"P={p}: {v:.1%}"
                              for p, v in sorted(self.ier_curve.items()))
            lines.append(f"inner-edge ratio    : {parts}")
        return "\n".join(lines)


def degree_statistics(graph: Graph) -> tuple[float, int, float]:
    """(mean, max, gini) of the out-degree distribution."""
    degrees = graph.out_degrees().astype(np.float64)
    if degrees.size == 0:
        return 0.0, 0, 0.0
    mean = float(degrees.mean())
    peak = int(degrees.max())
    if degrees.sum() == 0:
        return mean, peak, 0.0
    sorted_deg = np.sort(degrees)
    n = sorted_deg.size
    cumulative = np.cumsum(sorted_deg)
    gini = float(
        (n + 1 - 2 * (cumulative / cumulative[-1]).sum()) / n
    )
    return mean, peak, max(0.0, gini)


def clustering_coefficient(graph: Graph, seed: int = 0) -> float:
    """Average local clustering coefficient (undirected view) over a
    sample of 200 vertices."""
    indptr, indices, __ = graph.to_undirected()
    n = graph.num_vertices
    if n == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    vertices = (np.arange(n) if n <= 200
                else rng.choice(n, size=200, replace=False))
    neighbor_sets = {}

    def neighbors_of(v: int) -> set[int]:
        if v not in neighbor_sets:
            neighbor_sets[v] = set(
                int(w) for w in indices[indptr[v]: indptr[v + 1]]
            )
        return neighbor_sets[v]

    total, counted = 0.0, 0
    for v in vertices:
        v = int(v)
        nbrs = sorted(neighbors_of(v))
        k = len(nbrs)
        if k < 2:
            continue
        links = sum(
            1 for i, a in enumerate(nbrs) for b in nbrs[i + 1:]
            if b in neighbors_of(a)
        )
        total += 2.0 * links / (k * (k - 1))
        counted += 1
    return total / counted if counted else 0.0


def reciprocity(graph: Graph) -> float:
    """Fraction of edges whose reverse edge also exists."""
    if graph.num_edges == 0:
        return 0.0
    mutual = sum(1 for u, v in graph.iter_edges() if graph.has_edge(v, u))
    return mutual / graph.num_edges


def ier_curve(graph: Graph, parts_list=(8, 16, 32),
              seed: int = 0) -> dict[int, float]:
    """Inner-edge ratio achieved by the partitioner per partition count."""
    from repro.partitioning.metrics import inner_edge_ratio
    from repro.partitioning.recursive import recursive_bisection
    from repro.partitioning.wgraph import WGraph

    wgraph = WGraph.from_digraph(graph)
    return {
        p: inner_edge_ratio(
            graph, recursive_bisection(wgraph, p, seed=seed).parts
        )
        for p in parts_list
    }


def profile_graph(graph: Graph, parts_list=(8, 16, 32),
                  seed: int = 0, with_ier: bool = True) -> GraphProfile:
    """Compute the full deployment profile of ``graph``."""
    mean, peak, gini = degree_statistics(graph)
    labels = weakly_connected_components(graph)
    counts = np.bincount(labels) if labels.size else np.zeros(0)
    return GraphProfile(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        degree_mean=mean,
        degree_max=peak,
        degree_gini=gini,
        reciprocity=reciprocity(graph),
        clustering=clustering_coefficient(graph, seed=seed),
        num_components=int(counts.size),
        largest_component_fraction=(
            float(counts.max() / graph.num_vertices)
            if graph.num_vertices else 0.0
        ),
        ier_curve=(ier_curve(graph, parts_list, seed) if with_ier else {}),
    )

"""Synthetic graph generators.

The paper evaluates Surfer on the MSN social network and on synthetic graphs
built by "generating multiple small graphs with small-world characteristics
using an existing generator [R-MAT], and next randomly changing a ratio
``p_r`` of edges to connect these small graphs into a large graph"
(Appendix F).  This module provides:

* :func:`rmat` — the R-MAT recursive generator of Chakrabarti et al. [2],
  which produces the power-law, community-structured graphs the paper's
  generator is based on;
* :func:`small_world` — a directed Watts–Strogatz ring;
* :func:`composite_social_graph` — the paper's recipe: many small-world /
  R-MAT communities glued together by rewiring a fraction ``p_r`` of edges;
* :func:`erdos_renyi` and :func:`ring` / :func:`grid` as structureless and
  fully regular baselines for tests and ablations.

Every generator takes a ``seed`` and is deterministic given it.  The
R-MAT, small-world and web-feeder edge sequences are defined in
:mod:`repro.graph.stream`; the functions here drain those streams into a
:class:`Graph` (and so take an ``int`` seed, validated by the stream).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.digraph import Graph, csr_from_keys, edge_keys
from repro.graph.stream import (
    EdgeStream,
    stream_rmat,
    stream_small_world,
    stream_web_feeder,
)

__all__ = [
    "as_generator",
    "rmat",
    "small_world",
    "composite_social_graph",
    "erdos_renyi",
    "ring",
    "grid",
    "star",
    "web_feeder_graph",
]


def as_generator(seed: int | np.random.Generator) -> np.random.Generator:
    """One seeded Generator for every generator in this module.

    An ``int`` seeds a fresh ``default_rng`` — bit-identical across
    processes and to the historical ``seed=<int>`` outputs.  Passing a
    ``Generator`` threads one RNG through several generator calls (each
    call advances it), which keeps a multi-graph experiment on a single
    seed while every individual draw stays reproducible.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _materialize(stream: EdgeStream) -> Graph:
    """Drain ``stream`` into an in-memory graph, self loops and duplicate
    edges dropped.

    Each chunk goes straight to its sort keys, so the drain holds one
    ``int64`` per raw edge, never an ``(m, 2)`` endpoint array.
    """
    n = stream.num_vertices
    keys = np.empty(stream.num_edges, dtype=np.int64)
    hi = 0
    for src, dst in stream.chunks():
        chunk = edge_keys(src, dst, n, drop_self_loops=True)
        keys[hi:hi + chunk.size] = chunk
        hi += chunk.size
    return Graph(*csr_from_keys(keys[:hi], n, n, dedup=True))


def rmat(
    scale: int,
    edge_factor: int = 8,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
) -> Graph:
    """R-MAT graph with ``2**scale`` vertices and ``edge_factor * n`` edges.

    Each edge picks one quadrant of the adjacency matrix per bit with
    probabilities ``(a, b, c, d)``, ``d = 1 - a - b - c``; this yields the
    skewed degree distributions and block community structure of real social
    networks.  Self loops and duplicates are dropped.
    """
    return _materialize(stream_rmat(scale, edge_factor, a, b, c, seed=seed))


def small_world(
    num_vertices: int, k: int = 4, rewire_p: float = 0.05, seed: int = 0,
) -> Graph:
    """Directed Watts–Strogatz small-world graph.

    Each vertex points to its ``k`` clockwise ring successors; each edge is
    rewired to a uniform random destination with probability ``rewire_p``.
    """
    return _materialize(
        stream_small_world(num_vertices, k, rewire_p, seed=seed))


#: share of :func:`composite_social_graph`'s rewired edges that pick a
#: near community rather than a uniform one
REWIRE_LOCALITY = 0.7


def composite_social_graph(
    num_communities: int = 16,
    community_size: int = 256,
    k: int = 6,
    p_r: float = 0.05,
    seed: int | np.random.Generator = 0,
    community_model: str = "rmat",
) -> Graph:
    """The paper's synthetic-graph recipe (Appendix F), scaled down.

    Generates ``num_communities`` communities of ``community_size``
    vertices each with the R-MAT generator the paper cites [2] (power-law
    degrees; ``community_model="small-world"`` substitutes a
    Watts–Strogatz ring), then rewires a ratio ``p_r`` of all edges to
    destinations in *other* communities, gluing the communities into one
    large graph.  ``p_r`` defaults to the paper's 5 %; ``k`` is the
    average out-degree within a community.

    A rewired destination's community is, with probability
    :data:`REWIRE_LOCALITY`, a geometric hop distance away on the
    community ring (near communities preferred — the hierarchical,
    friends-of-friends locality real social networks such as MSN show at
    every scale), otherwise uniform.
    """
    if num_communities <= 0 or community_size <= 0:
        raise GraphError("community counts must be positive")
    if not 0 <= p_r <= 1:
        raise GraphError("p_r must lie in [0, 1]")
    if community_model not in ("rmat", "small-world"):
        raise GraphError("community_model must be 'rmat' or 'small-world'")
    rng = as_generator(seed)
    n = num_communities * community_size
    all_src: list[np.ndarray] = []
    all_dst: list[np.ndarray] = []
    for i in range(num_communities):
        community_seed = int(rng.integers(2**31))
        if community_model == "rmat":
            scale = max(1, int(np.ceil(np.log2(community_size))))
            sub = rmat(scale, edge_factor=k, seed=community_seed)
            if sub.num_vertices > community_size:
                sub, _ = sub.subgraph(np.arange(community_size))
        else:
            sub = small_world(community_size, k=k, rewire_p=0.05,
                              seed=community_seed)
        base = i * community_size
        all_src.append(sub.edge_sources() + base)
        all_dst.append(sub.out_indices + base)
    src = np.concatenate(all_src)
    dst = np.concatenate(all_dst).copy()
    if p_r > 0 and src.size:
        rewire = np.flatnonzero(rng.random(src.size) < p_r)
        num = rewire.size
        src_comm = src[rewire] // community_size
        # geometric ring offset for local rewires, uniform otherwise
        local_mask = rng.random(num) < REWIRE_LOCALITY
        offsets = rng.geometric(0.5, size=num)
        signs = rng.choice([-1, 1], size=num)
        near = (src_comm + signs * offsets) % num_communities
        uniform = rng.integers(0, num_communities, size=num)
        dst_comm = np.where(local_mask, near, uniform)
        dst[rewire] = (dst_comm * community_size
                       + rng.integers(0, community_size, size=num))
    return Graph.from_edges(
        np.stack([src, dst], axis=1), num_vertices=n, dedup=True,
        drop_self_loops=True,
    )


def erdos_renyi(num_vertices: int, num_edges: int,
                seed: int | np.random.Generator = 0) -> Graph:
    """Uniform random directed graph with ~``num_edges`` distinct edges."""
    if num_vertices <= 0:
        raise GraphError("num_vertices must be positive")
    rng = as_generator(seed)
    src = rng.integers(0, num_vertices, size=num_edges)
    dst = rng.integers(0, num_vertices, size=num_edges)
    return Graph.from_edges(
        np.stack([src, dst], axis=1),
        num_vertices=num_vertices,
        dedup=True,
        drop_self_loops=True,
    )


def ring(num_vertices: int) -> Graph:
    """Directed cycle ``0 -> 1 -> ... -> n-1 -> 0``."""
    if num_vertices <= 0:
        raise GraphError("num_vertices must be positive")
    src = np.arange(num_vertices, dtype=np.int64)
    dst = (src + 1) % num_vertices
    return Graph.from_edges(np.stack([src, dst], axis=1),
                            num_vertices=num_vertices)


def grid(rows: int, cols: int) -> Graph:
    """Bidirected 2-D grid; handy for partitioners (clean bisections)."""
    if rows <= 0 or cols <= 0:
        raise GraphError("grid dimensions must be positive")
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    pairs = []
    right = np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1)
    down = np.stack([ids[:-1, :].ravel(), ids[1:, :].ravel()], axis=1)
    for fwd in (right, down):
        pairs.append(fwd)
        pairs.append(fwd[:, ::-1])
    edges = np.concatenate(pairs) if pairs else np.zeros((0, 2), dtype=np.int64)
    return Graph.from_edges(edges, num_vertices=rows * cols, dedup=True)


def web_feeder_graph(
    core: int,
    feeders: int,
    chords_per_vertex: int = 3,
    feeder_degree: int = 2,
    seed: int = 0,
) -> Graph:
    """A web-crawl-like graph: a linked core plus no-inlink feeders.

    Vertices ``0..core-1`` form a strongly connected core (a ring plus
    ``chords_per_vertex`` random chords each); vertices ``core..`` are
    *feeders* with ``feeder_degree`` out-edges into the core and **no
    in-edges** — the "freshly crawled page nobody links to yet" shape.
    Under delta-based propagation the feeders fall out of the frontier
    after one iteration, so the convergent tail touches only the core:
    the workload the sparse-frontier benchmarks exercise.
    """
    return _materialize(stream_web_feeder(
        core, feeders, chords_per_vertex, feeder_degree, seed=seed))


def star(num_leaves: int, out: bool = True) -> Graph:
    """Star graph: hub 0 with ``num_leaves`` leaves (out- or in-edges)."""
    if num_leaves < 0:
        raise GraphError("num_leaves must be non-negative")
    leaves = np.arange(1, num_leaves + 1, dtype=np.int64)
    hub = np.zeros(num_leaves, dtype=np.int64)
    src, dst = (hub, leaves) if out else (leaves, hub)
    return Graph.from_edges(np.stack([src, dst], axis=1),
                            num_vertices=num_leaves + 1)

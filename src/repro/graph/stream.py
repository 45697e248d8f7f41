"""Streaming edge emitters: the R-MAT, small-world and web-feeder models.

Each model's edge sequence is defined here, once, as an
:class:`EdgeStream` that emits it in bounded chunks.  A 10M+-edge graph
is drained once into the sharded store
(:mod:`repro.graph.store`) with peak memory O(chunk), never O(m); the
in-memory :func:`~repro.graph.generators.rmat`,
:func:`~repro.graph.generators.small_world` and
:func:`~repro.graph.generators.web_feeder_graph` drain the same streams
into a :class:`~repro.graph.digraph.Graph`, so a graph built either way
is the same graph.

The emitted sequence must not depend on the chunk size (asserted by
tests/test_graph_stream.py).  That rests on three properties of numpy's
``PCG64`` bit stream:

* ``default_rng(seed)`` draws the same stream as
  ``Generator(PCG64(seed))``;
* ``PCG64.advance(k)`` followed by ``.random(c)`` yields positions
  ``[k, k + c)`` of one large ``.random`` call (``random`` consumes
  exactly one 64-bit draw per double), so R-MAT's per-bit blocks can be
  re-entered at any offset;
* chunked sequential ``.integers`` / ``.random`` calls on one generator
  concatenate identically to a single large call, so the sequential
  tails (small-world rewiring, web chords and feeders) stream without
  re-seeding.

A stream yields the **raw** emitted edges; self-loop dropping and
deduplication happen where the CSR is built (``Graph.from_edges`` or
the shard-store build), with identical semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.errors import GraphError

__all__ = [
    "EdgeStream",
    "DEFAULT_CHUNK_EDGES",
    "stream_rmat",
    "stream_small_world",
    "stream_web_feeder",
]

DEFAULT_CHUNK_EDGES = 1 << 18  # 256K edges ~ 4 MiB per endpoint array


@dataclass(frozen=True)
class EdgeStream:
    """A bounded-memory edge sequence.

    ``num_edges`` counts the *raw* emitted edges (before self-loop
    dropping and dedup).  ``chunks()`` returns an iterator of aligned
    ``(src, dst)`` ``int64`` array pairs, to be consumed in order — the
    sequential generators thread RNG state chunk to chunk.  A builder
    (the shard store, the in-memory generators) calls it once, so a
    one-shot source is a valid stream; the streams defined in this
    module are also re-iterable — every ``chunks()`` call replays the
    same sequence.
    """

    num_vertices: int
    num_edges: int
    chunk_size: int
    _factory: Callable[[], Iterator[tuple[np.ndarray, np.ndarray]]] = field(
        repr=False)

    def chunks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        return self._factory()


def _require_int_seed(seed: int | np.random.Generator) -> int:
    if isinstance(seed, np.random.Generator):
        raise GraphError(
            "streaming generators need an int seed (positional RNG access)")
    if int(seed) < 0:
        raise GraphError(f"seed must be non-negative, got {seed}")
    return int(seed)


def _random_block(seed: int, offset: int, count: int) -> np.ndarray:
    """Positions ``[offset, offset + count)`` of ``default_rng(seed)``'s
    ``.random`` stream, without drawing the prefix."""
    bits = np.random.PCG64(seed)
    bits.advance(offset)
    return np.random.Generator(bits).random(count)


def _check_chunk_size(chunk_size: int) -> int:
    chunk_size = int(chunk_size)
    if chunk_size <= 0:
        raise GraphError("chunk_size must be positive")
    return chunk_size


def _check_count(name: str, value: int) -> int:
    if not (value >= 0 and float(value).is_integer()):
        raise GraphError(f"{name} must be a non-negative integer, "
                         f"got {value!r}")
    return int(value)


# ----------------------------------------------------------------------
# R-MAT
# ----------------------------------------------------------------------
def stream_rmat(
    scale: int,
    edge_factor: int = 8,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    chunk_size: int = DEFAULT_CHUNK_EDGES,
) -> EdgeStream:
    """R-MAT edges: ``2**scale`` vertices, ``edge_factor * n`` raw edges.

    Each edge picks one quadrant of the adjacency matrix per bit with
    probabilities ``(a, b, c, d)``, ``d = 1 - a - b - c``.  Per bit the
    model draws two length-``m`` ``random`` blocks from one stream; edge
    ``i``'s draws therefore sit at fixed stream positions ``2*bit*m + i``
    and ``(2*bit + 1)*m + i``, so any edge range can be regenerated
    independently via ``PCG64.advance``.

    Bit ``bit`` of edge ``i`` (most significant first) is defined by
    its two draws ``r1``, ``r2``: the source goes right when
    ``r1 < c + d``, and the destination goes right when ``r2 < p_left
    = b / (a + b)`` after a left source, or ``r2 < p_right = d / (c +
    d)`` after a right one (a zero denominator gives a zero
    probability).  :func:`_rmat_edges` computes exactly that.  With
    ``p_lo, p_hi = min, max(p_left, p_right)`` and ``hi_side`` the
    source side whose probability is ``p_hi``, the destination bit is
    ``(r2 < p_lo) | ((r2 < p_hi) & (right == hi_side))``: where
    ``r2 < p_lo`` both thresholds hold, where ``p_lo <= r2 < p_hi``
    only ``p_hi``'s does, and past ``p_hi`` neither — so every edge
    compares the same double against the same double as the
    per-edge-threshold form, and the bits are the same bits.
    """
    if scale < 0:
        raise GraphError("scale must be non-negative")
    edge_factor = _check_count("edge_factor", edge_factor)
    if not all(math.isfinite(p) for p in (a, b, c)):
        raise GraphError("R-MAT probabilities must be finite")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise GraphError("R-MAT probabilities must be non-negative")
    seed = _require_int_seed(seed)
    chunk_size = _check_chunk_size(chunk_size)
    n = 1 << scale
    m = edge_factor * n
    p_left = b / (a + b) if (a + b) > 0 else 0.0
    p_right = d / (c + d) if (c + d) > 0 else 0.0

    def emit() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for lo in range(0, m, chunk_size):
            yield _rmat_edges(seed, scale, m, c + d, p_left, p_right,
                              lo, min(chunk_size, m - lo))

    return EdgeStream(n, m, chunk_size, emit)


def _rmat_edges(seed: int, scale: int, m: int, p_src_right: float,
                p_left: float, p_right: float, lo: int,
                count: int) -> tuple[np.ndarray, np.ndarray]:
    """Edges ``[lo, lo + count)`` of :func:`stream_rmat`'s sequence.

    A function of the edge range alone, not of how the stream is
    chunked.  Each bit is shifted into a ``uint8`` accumulator per
    endpoint (doubling is the one-bit shift), and the accumulators fold
    into the ``int64`` ids every eight bits and at the last bit.
    """
    p_lo, p_hi = min(p_left, p_right), max(p_left, p_right)
    hi_side = p_right > p_left
    src = np.zeros(count, dtype=np.int64)
    dst = np.zeros(count, dtype=np.int64)
    acc_src = np.zeros(count, dtype=np.uint8)
    acc_dst = np.zeros(count, dtype=np.uint8)
    right = np.empty(count, dtype=bool)
    below_lo = np.empty(count, dtype=bool)
    band = np.empty(count, dtype=bool)
    for bit in range(scale):
        r1 = _random_block(seed, (2 * bit) * m + lo, count)
        r2 = _random_block(seed, (2 * bit + 1) * m + lo, count)
        np.less(r1, p_src_right, out=right)
        np.less(r2, p_lo, out=below_lo)
        if p_hi > p_lo:
            np.less(r2, p_hi, out=band)
            # & (right == hi_side): ``band > right`` is ``band & ~right``
            (np.logical_and if hi_side else np.greater)(band, right,
                                                         out=band)
            np.logical_or(below_lo, band, out=below_lo)
        np.add(acc_src, acc_src, out=acc_src)
        np.bitwise_or(acc_src, right.view(np.uint8), out=acc_src)
        np.add(acc_dst, acc_dst, out=acc_dst)
        np.bitwise_or(acc_dst, below_lo.view(np.uint8), out=acc_dst)
        if bit % 8 == 7 or bit == scale - 1:
            # eight doublings push a folded byte out of the accumulator
            width = bit % 8 + 1
            for ids, acc in ((src, acc_src), (dst, acc_dst)):
                np.left_shift(ids, width, out=ids)
                np.bitwise_or(ids, acc, out=ids)
    return src, dst


# ----------------------------------------------------------------------
# Watts–Strogatz small world
# ----------------------------------------------------------------------
def stream_small_world(
    num_vertices: int,
    k: int = 4,
    rewire_p: float = 0.05,
    seed: int = 0,
    chunk_size: int = DEFAULT_CHUNK_EDGES,
) -> EdgeStream:
    """Directed Watts–Strogatz ring: ``k`` clockwise successors per
    vertex, each edge rewired to a uniform destination with probability
    ``rewire_p``.

    The rewire mask is ``random`` (positional — re-enterable at any
    offset); the rewired destinations are a single sequential
    ``integers`` run starting after the ``m`` mask draws, threaded
    chunk to chunk through one generator.
    """
    if num_vertices <= 0:
        raise GraphError("num_vertices must be positive")
    if not 0 <= rewire_p <= 1:
        raise GraphError("rewire_p must lie in [0, 1]")
    k = _check_count("k", k)
    seed = _require_int_seed(seed)
    chunk_size = _check_chunk_size(chunk_size)
    n = num_vertices
    k = min(k, max(n - 1, 0))
    m = n * k

    def emit() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        int_bits = np.random.PCG64(seed)
        int_bits.advance(m)  # mask draws occupy stream positions [0, m)
        int_rng = np.random.Generator(int_bits)
        for lo in range(0, m, chunk_size):
            hi = min(lo + chunk_size, m)
            idx = np.arange(lo, hi, dtype=np.int64)
            src = idx // k
            dst = (src + idx % k + 1) % n
            if rewire_p > 0:
                mask = _random_block(seed, lo, hi - lo) < rewire_p
                dst[mask] = int_rng.integers(0, n, size=int(mask.sum()))
            yield src, dst

    return EdgeStream(n, m, chunk_size, emit)


# ----------------------------------------------------------------------
# Web-crawl core + feeders
# ----------------------------------------------------------------------
def stream_web_feeder(
    core: int,
    feeders: int,
    chords_per_vertex: int = 3,
    feeder_degree: int = 2,
    seed: int = 0,
    chunk_size: int = DEFAULT_CHUNK_EDGES,
) -> EdgeStream:
    """Web-crawl shape: a ring-plus-chords core and no-inlink feeders.

    The emitted sequence is ring, chords, feeders, with one sequential
    generator drawing the chord then feeder destinations; chunked
    same-bound ``integers`` calls concatenate identically to two bulk
    calls.
    """
    if core <= 0 or feeders < 0:
        raise GraphError("core must be positive and feeders non-negative")
    chords_per_vertex = _check_count("chords_per_vertex", chords_per_vertex)
    feeder_degree = _check_count("feeder_degree", feeder_degree)
    seed = _require_int_seed(seed)
    chunk_size = _check_chunk_size(chunk_size)
    n = core + feeders
    m_ring = core
    m_chord = core * chords_per_vertex
    m_feed = feeders * feeder_degree
    m = m_ring + m_chord + m_feed

    def emit() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        rng = np.random.default_rng(seed)
        for lo in range(0, m, chunk_size):
            hi = min(lo + chunk_size, m)
            srcs: list[np.ndarray] = []
            dsts: list[np.ndarray] = []
            # ring segment: positions [0, m_ring)
            a, b = max(lo, 0), min(hi, m_ring)
            if a < b:
                s = np.arange(a, b, dtype=np.int64)
                srcs.append(s)
                dsts.append((s + 1) % core)
            # chord segment: positions [m_ring, m_ring + m_chord)
            a, b = max(lo, m_ring), min(hi, m_ring + m_chord)
            if a < b:
                j = np.arange(a - m_ring, b - m_ring, dtype=np.int64)
                srcs.append(j // chords_per_vertex)
                dsts.append(rng.integers(0, core, size=b - a))
            # feeder segment: positions [m_ring + m_chord, m)
            a, b = max(lo, m_ring + m_chord), min(hi, m)
            if a < b:
                j = np.arange(a - m_ring - m_chord, b - m_ring - m_chord,
                              dtype=np.int64)
                srcs.append(core + j // feeder_degree)
                dsts.append(rng.integers(0, core, size=b - a))
            yield (np.concatenate(srcs).astype(np.int64, copy=False),
                   np.concatenate(dsts).astype(np.int64, copy=False))

    return EdgeStream(n, m, chunk_size, emit)

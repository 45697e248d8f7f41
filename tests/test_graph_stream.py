"""Streaming generators: one edge sequence per model, at any chunk size.

The whole out-of-core story (ISSUE 9) rests on one contract: a graph
built through the shard store is bit-identical to one built in RAM, so
every downstream result (outputs, cost counters) matches exactly.  The
in-memory generators drain the streams in :mod:`repro.graph.stream`, so
"stream == generator" holds by construction; these tests pin what that
leaves open:

* raw-sequence invariance: the concatenated chunk stream is identical
  for every chunk size (the emitters re-derive RNG state per chunk, so
  chunking must be invisible);
* golden bytes: SHA-256 digests of the CSR arrays, recorded at the last
  commit that had a separate in-memory implementation of each model —
  neither the streams nor the CSR build may drift from them;
* re-enterability: the built-in streams' ``chunks()`` returns a fresh,
  identical iterator each time (no builder needs that — the store build
  and the generators drain a stream once — but tests and benchmarks
  replay a stream to cross-check what was built from it);
* edge cases: empty streams, single-chunk streams, argument validation;
* R-MAT's fused kernel against a per-edge reference written from
  :func:`~repro.graph.stream.stream_rmat`'s definition.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.digraph import Graph
from repro.graph.generators import (
    composite_social_graph,
    rmat,
    small_world,
    web_feeder_graph,
)
from repro.graph.stream import (
    EdgeStream,
    _rmat_edges,
    stream_rmat,
    stream_small_world,
    stream_web_feeder,
)
from tests.conftest import stream_from_edges

CHUNK_SIZES = (997, 4096, 1 << 30)


def collect(stream: EdgeStream) -> np.ndarray:
    """The stream's full (m, 2) edge array, in emission order."""
    parts = [np.stack([src, dst], axis=1)
             for src, dst in stream.chunks()]
    if not parts:
        return np.zeros((0, 2), dtype=np.int64)
    return np.concatenate(parts, axis=0)


def graph_of(stream: EdgeStream) -> Graph:
    return Graph.from_edges(collect(stream),
                            num_vertices=stream.num_vertices,
                            dedup=True, drop_self_loops=True)


class TestChunkInvariance:
    """The emitted sequence must not depend on the chunk size."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_rmat(self, seed):
        ref = collect(stream_rmat(10, edge_factor=6, seed=seed,
                                  chunk_size=CHUNK_SIZES[-1]))
        for chunk in CHUNK_SIZES[:-1]:
            got = collect(stream_rmat(10, edge_factor=6, seed=seed,
                                      chunk_size=chunk))
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_small_world(self, seed):
        ref = collect(stream_small_world(1500, k=5, rewire_p=0.2,
                                         seed=seed,
                                         chunk_size=CHUNK_SIZES[-1]))
        for chunk in CHUNK_SIZES[:-1]:
            got = collect(stream_small_world(1500, k=5, rewire_p=0.2,
                                             seed=seed, chunk_size=chunk))
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_web_feeder(self, seed):
        ref = collect(stream_web_feeder(64, 900, seed=seed,
                                        chunk_size=CHUNK_SIZES[-1]))
        for chunk in CHUNK_SIZES[:-1]:
            got = collect(stream_web_feeder(64, 900, seed=seed,
                                            chunk_size=chunk))
            np.testing.assert_array_equal(got, ref)

    def test_chunks_respect_requested_size(self):
        stream = stream_rmat(10, edge_factor=6, seed=0, chunk_size=1000)
        sizes = [src.size for src, _ in stream.chunks()]
        assert all(s == 1000 for s in sizes[:-1])
        assert 0 < sizes[-1] <= 1000
        assert sum(sizes) == stream.num_edges


# sha256(out_indptr bytes + out_indices bytes), little-endian int64,
# recorded at commit ebf1e6f — the last with two implementations per model
GOLDEN = {
    "rmat-0":
        "828e89557f5732d6fb4901987682a13255f281d9b92e3fb5ff64ffbb642b5479",
    "rmat-7":
        "82f94251e10736e03df1ab32aad0d732cb56cf1c68deafc458ee536088e3e7cf",
    "rmat-2010":
        "9bfb0fb6b5219cd4dd30e69bcb2e86cde6c31056a1659b8df7832f39fb51156c",
    "rmat-skew":
        "75f84c9e328e3e66132abc300abb6b9c3af4c2916b6191a7c143e6eafb24b603",
    "small_world-0":
        "7342516d9596a238dadb482c94250f5819fea0cafd2a3dea597a148638395e40",
    "small_world-7":
        "81b17d4ad6ed2470ef29448d06ff0945da642d4257796892bbeecaffd259bcdf",
    "small_world-2010":
        "a7040991af9423332d21ce9e878df8e02895910e7ae39e0e0ff6771a1d73b07f",
    "small_world-clamped":
        "e6bff7613a59d04131ce2b79295b140b2d26c19f156b5ae3df51bbc522f14651",
    "web_feeder-0":
        "252ed99c31205a8b4b47b42dabe6ecf76bb9332e45466739db7f9f1e2ff880fc",
    "web_feeder-7":
        "6426e2e160ba3840174ed7e7ae0fc55da8008cd2ba2c7cee78654353bbc037e6",
    "web_feeder-2010":
        "28ac767d585e2fefa82c51e180cf1aa1c39e49a4d4fc053c3cbb0f6ab78c453d",
    "web_feeder-shape":
        "c1eff86d724eb874bd413ba5291d2e197ebb31d6ee0c98272d98e3fa0a3ccdbb",
    "composite-rmat":
        "a85a4813c8e9720ed5192633dc93edb9359c4f7a739c19dbd6bf98e0fdd29ddb",
    "composite-small-world":
        "8bcba93957731de08866a7d07724bc4bc2feb80b8209c1517d7ffe160928c867",
}


def digest(graph: Graph) -> str:
    sha = hashlib.sha256()
    sha.update(graph.out_indptr.astype("<i8").tobytes())
    sha.update(graph.out_indices.astype("<i8").tobytes())
    return sha.hexdigest()


class TestGeneratorParity:
    """Chunked stream and in-memory generator both hit the golden bytes."""

    @pytest.mark.parametrize("seed", [0, 7, 2010])
    def test_rmat(self, seed):
        streamed = graph_of(stream_rmat(9, edge_factor=8, seed=seed,
                                        chunk_size=777))
        assert digest(streamed) == GOLDEN[f"rmat-{seed}"]
        assert streamed == rmat(9, edge_factor=8, seed=seed)

    def test_rmat_nondefault_skew(self):
        streamed = graph_of(stream_rmat(8, edge_factor=4, a=0.45, b=0.25,
                                        c=0.2, seed=3, chunk_size=100))
        assert digest(streamed) == GOLDEN["rmat-skew"]
        assert streamed == rmat(8, edge_factor=4, a=0.45, b=0.25, c=0.2,
                                seed=3)

    @pytest.mark.parametrize("seed", [0, 7, 2010])
    def test_small_world(self, seed):
        streamed = graph_of(stream_small_world(800, k=6, rewire_p=0.1,
                                               seed=seed, chunk_size=513))
        assert digest(streamed) == GOLDEN[f"small_world-{seed}"]
        assert streamed == small_world(800, k=6, rewire_p=0.1, seed=seed)

    def test_small_world_k_clamped(self):
        streamed = graph_of(stream_small_world(4, k=10, seed=1,
                                               chunk_size=2))
        assert digest(streamed) == GOLDEN["small_world-clamped"]
        assert streamed == small_world(4, k=10, seed=1)

    @pytest.mark.parametrize("seed", [0, 7, 2010])
    def test_web_feeder(self, seed):
        streamed = graph_of(stream_web_feeder(32, 480, seed=seed,
                                              chunk_size=301))
        assert digest(streamed) == GOLDEN[f"web_feeder-{seed}"]
        assert streamed == web_feeder_graph(32, 480, seed=seed)

    def test_web_feeder_nondefault_shape(self):
        streamed = graph_of(stream_web_feeder(
            16, 100, chords_per_vertex=5, feeder_degree=3, seed=9,
            chunk_size=64))
        assert digest(streamed) == GOLDEN["web_feeder-shape"]
        assert streamed == web_feeder_graph(16, 100, chords_per_vertex=5,
                                            feeder_degree=3, seed=9)

    @pytest.mark.parametrize("model", ["rmat", "small-world"])
    def test_composite_social_graph(self, model):
        graph = composite_social_graph(4, 64, seed=2010,
                                       community_model=model)
        assert digest(graph) == GOLDEN[f"composite-{model}"]


class TestStreamBasics:
    def test_chunks_reenterable(self):
        stream = stream_rmat(8, edge_factor=4, seed=5, chunk_size=100)
        np.testing.assert_array_equal(collect(stream), collect(stream))

    def test_metadata(self):
        stream = stream_rmat(8, edge_factor=4, seed=0)
        assert stream.num_vertices == 256
        assert stream.num_edges == 256 * 4
        assert collect(stream).shape == (stream.num_edges, 2)

    def test_generator_seed_rejected(self):
        # streams re-derive RNG state per chunk; a shared Generator
        # would make the sequence depend on consumption order
        rng = np.random.default_rng(0)
        with pytest.raises(GraphError):
            stream_rmat(8, seed=rng)
        with pytest.raises(GraphError):
            stream_small_world(10, seed=rng)
        with pytest.raises(GraphError):
            stream_web_feeder(8, 4, seed=rng)
        # the in-memory generators are those streams, drained
        for build in (lambda: rmat(8, seed=rng),
                      lambda: small_world(10, seed=rng),
                      lambda: web_feeder_graph(8, 4, seed=rng)):
            with pytest.raises(GraphError):
                build()

    def test_from_edges_stream(self):
        edges = np.array([[0, 1], [1, 2], [2, 0], [0, 1]], dtype=np.int64)
        stream = stream_from_edges(edges, num_vertices=3, chunk_size=2)
        np.testing.assert_array_equal(collect(stream), edges)
        assert [s.size for s, _ in stream.chunks()] == [2, 2]

    def test_empty_stream(self):
        stream = stream_from_edges(np.zeros((0, 2), dtype=np.int64),
                                   num_vertices=4)
        assert stream.num_edges == 0
        assert collect(stream).shape == (0, 2)
        g = graph_of(stream)
        assert g.num_vertices == 4
        assert g.num_edges == 0

    @pytest.mark.parametrize("build, what", [
        (lambda: stream_rmat(8, a=float("nan")), "finite"),
        (lambda: stream_rmat(8, b=float("inf")), "R-MAT probabilities"),
        (lambda: stream_rmat(8, edge_factor=-1), "edge_factor"),
        (lambda: stream_rmat(8, edge_factor=1.5), "edge_factor"),
        (lambda: stream_rmat(8, seed=-3), "seed"),
        (lambda: stream_small_world(10, k=-2), "k"),
        (lambda: stream_small_world(10, seed=-1), "seed"),
        (lambda: stream_web_feeder(8, 4, chords_per_vertex=-1),
         "chords_per_vertex"),
        (lambda: stream_web_feeder(8, 4, feeder_degree=-2), "feeder_degree"),
        (lambda: stream_web_feeder(8, 4, seed=-7), "seed"),
    ])
    def test_bad_arguments_rejected(self, build, what):
        with pytest.raises(GraphError, match=what):
            build()


# ----------------------------------------------------------------------
# R-MAT's kernel against its definition
# ----------------------------------------------------------------------
# (a, b, c): p_right < p_left, p_right > p_left, p_right == p_left,
# a + b == 0 and c + d == 0
RMAT_PROBS = [(0.57, 0.19, 0.19), (0.4, 0.1, 0.1), (0.25, 0.25, 0.25),
              (0.0, 0.0, 0.5), (0.5, 0.5, 0.0)]


@st.composite
def rmat_probs(draw):
    """One of :data:`RMAT_PROBS`, or any valid ``(a, b, c)``."""
    if draw(st.booleans()):
        return draw(st.sampled_from(RMAT_PROBS))
    a = draw(st.floats(0.0, 1.0))
    b = draw(st.floats(0.0, 1.0 - a))
    c = draw(st.floats(0.0, max(0.0, 1.0 - a - b)))
    assume(1.0 - a - b - c >= 0)
    return a, b, c


def draws_at(seed, positions):
    """``default_rng(seed).random``'s values at stream ``positions``."""
    if not positions:
        return []
    if max(positions) < 1 << 16:
        return np.random.default_rng(seed).random(
            max(positions) + 1)[positions].tolist()
    values = []
    for pos in positions:
        bits = np.random.PCG64(seed)
        bits.advance(pos)
        values.append(np.random.Generator(bits).random())
    return values


def reference_rmat(scale, m, probs, seed, lo, count):
    """Edges ``[lo, lo + count)`` one at a time, as ``stream_rmat``'s
    docstring defines them: bit ``bit`` (most significant first) of
    edge ``i`` reads draws ``2*bit*m + i`` and ``(2*bit + 1)*m + i``;
    the source goes right when ``r1 < c + d``, the destination when
    ``r2`` is below ``b / (a + b)`` after a left source and
    ``d / (c + d)`` after a right one (0 for a zero denominator)."""
    a, b, c = probs
    d = 1.0 - a - b - c
    p_left = b / (a + b) if a + b > 0 else 0.0
    p_right = d / (c + d) if c + d > 0 else 0.0
    edges = []
    for i in range(lo, lo + count):
        positions = [(2 * bit + half) * m + i
                     for bit in range(scale) for half in (0, 1)]
        drawn = draws_at(seed, positions)
        src = dst = 0
        for bit in range(scale):
            r1, r2 = drawn[2 * bit], drawn[2 * bit + 1]
            right = r1 < c + d
            down = r2 < (p_right if right else p_left)
            src, dst = 2 * src + right, 2 * dst + down
        edges.append((src, dst))
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


class TestRmatKernel:
    """The fused kernel (bits shifted into byte accumulators, folded
    every eight bits; the destination threshold as two comparisons)
    emits exactly the edges the per-edge definition gives."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10), st.integers(0, 3), rmat_probs(),
           st.integers(0, 2**32), st.integers(0, 2**16))
    @example(8, 2, RMAT_PROBS[0], 0, 6)
    @example(9, 1, RMAT_PROBS[1], 1, 1 << 9)
    def test_stream_at_any_chunk_size(self, scale, edge_factor, probs,
                                      seed, pick):
        m = edge_factor << scale
        chunk = 1 + pick % max(m, 1)  # 1..m
        stream = stream_rmat(scale, edge_factor, *probs, seed=seed,
                             chunk_size=chunk)
        assert [src.size for src, _ in stream.chunks()] == [
            min(chunk, m - lo) for lo in range(0, m, chunk)]
        np.testing.assert_array_equal(
            collect(stream), reference_rmat(scale, m, probs, seed, 0, m))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 20), st.integers(1, 2), rmat_probs(),
           st.integers(0, 2**32), st.integers(0, 2**21),
           st.integers(0, 2**21))
    @example(16, 1, RMAT_PROBS[2], 3, 23, 2**16 - 24)
    @example(20, 2, RMAT_PROBS[3], 4, 9, 2**20 + 5)
    @example(17, 1, RMAT_PROBS[4], 5, 15, 0)
    def test_any_window_at_any_scale(self, scale, edge_factor, probs, seed,
                                     pick_count, pick_lo):
        """A window ``[lo, lo + count)`` anywhere in a stream of up to
        ``2**21`` edges, regenerated on its own."""
        m = edge_factor << scale
        count = 1 + pick_count % min(m, 24)
        lo = pick_lo % (m - count + 1)
        a, b, c = probs
        d = 1.0 - a - b - c
        src, dst = _rmat_edges(seed, scale, m, c + d,
                               b / (a + b) if a + b > 0 else 0.0,
                               d / (c + d) if c + d > 0 else 0.0, lo, count)
        np.testing.assert_array_equal(
            np.stack([src, dst], axis=1),
            reference_rmat(scale, m, probs, seed, lo, count))

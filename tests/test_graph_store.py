"""Shard store: round-trip fidelity and the O(shard) access contract.

``build_shard_store`` must write exactly the graph that
``Graph.from_edges(dedup=True, drop_self_loops=True)`` would build from
the same stream — per-shard dedup equals global dedup because shards
split by source range — and ``ShardBackedGraph`` must serve every
consumer-facing accessor from memmapped shard views without ever
assembling the global indices array (``out_indices`` raises).
"""

from __future__ import annotations

import hashlib
import itertools
from pathlib import Path

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.digraph import Graph
from repro.graph.store import (
    ShardBackedGraph,
    ShardStore,
    build_shard_store,
    open_shard_graph,
)
from repro.graph.stream import EdgeStream, stream_rmat
from tests.conftest import stream_from_edges


def reference_graph(stream) -> Graph:
    parts = [np.stack([s, d], axis=1) for s, d in stream.chunks()]
    edges = (np.concatenate(parts, axis=0) if parts
             else np.zeros((0, 2), dtype=np.int64))
    return Graph.from_edges(edges, num_vertices=stream.num_vertices,
                            dedup=True, drop_self_loops=True)


def directory_digest(path: Path) -> str:
    """SHA-256 over every file of ``path``: names and contents."""
    sha = hashlib.sha256()
    for f in sorted(Path(path).iterdir()):
        sha.update(f.name.encode("ascii") + b"\0")
        sha.update(hashlib.sha256(f.read_bytes()).digest())
    return sha.hexdigest()


@pytest.fixture
def rmat_stream():
    return stream_rmat(9, edge_factor=8, seed=2010, chunk_size=997)


class TestRoundTrip:
    @pytest.mark.parametrize("num_shards", [1, 3, 7])
    def test_equals_in_memory_build(self, tmp_path, rmat_stream,
                                    num_shards):
        store = build_shard_store(rmat_stream, tmp_path / "s", num_shards)
        shard_graph = ShardBackedGraph(store)
        ref = reference_graph(rmat_stream)
        assert shard_graph == ref
        assert ref == shard_graph.to_graph()
        np.testing.assert_array_equal(store.global_indptr(),
                                      ref.out_indptr)

    def test_reopen(self, tmp_path, rmat_stream):
        build_shard_store(rmat_stream, tmp_path / "s", 4)
        reopened = open_shard_graph(tmp_path / "s")
        assert reopened == reference_graph(rmat_stream)
        assert reopened.store.num_shards == 4

    def test_pinned_boundaries_with_empty_shards(self, tmp_path):
        edges = np.array([[0, 1], [0, 2], [9, 0]], dtype=np.int64)
        stream = stream_from_edges(edges, num_vertices=10)
        # shards 1 and 3 own vertex ranges with no edges at all
        starts = [0, 1, 5, 9, 9, 10]
        store = build_shard_store(stream, tmp_path / "s", 5,
                                  vertex_starts=starts)
        assert store.shard_edge_count(1) == 0
        assert store.shard_edge_count(3) == 0
        assert ShardBackedGraph(store) == reference_graph(stream)

    def test_empty_graph(self, tmp_path):
        stream = stream_from_edges(np.zeros((0, 2), dtype=np.int64),
                                   num_vertices=6)
        store = build_shard_store(stream, tmp_path / "s", 3)
        g = ShardBackedGraph(store)
        assert g.num_edges == 0
        assert g == reference_graph(stream)

    def test_dedup_and_self_loops_match_from_edges(self, tmp_path):
        edges = np.array([[1, 0], [1, 0], [2, 2], [0, 1], [2, 1]],
                         dtype=np.int64)
        stream = stream_from_edges(edges, num_vertices=3)
        store = build_shard_store(stream, tmp_path / "s", 2)
        assert store.num_edges == 3  # one dup and one self-loop dropped
        assert ShardBackedGraph(store) == reference_graph(stream)

    @pytest.mark.parametrize("edge, message", [
        ([0, 7], "exceeds num_vertices"),
        ([-1, 0], "non-negative"),
        ([7, 7], "exceeds num_vertices"),  # checked before loops are dropped
    ])
    def test_endpoints_checked_as_from_edges_checks_them(self, tmp_path,
                                                         edge, message):
        edges = np.array([[0, 1], edge], dtype=np.int64)
        with pytest.raises(GraphError, match=message):
            Graph.from_edges(edges, num_vertices=3, drop_self_loops=True)
        with pytest.raises(GraphError, match=message):
            build_shard_store(stream_from_edges(edges, num_vertices=3),
                              tmp_path / "out" / "s", 2)
        assert list((tmp_path / "out").iterdir()) == []

    def test_raw_duplicates_preserved_when_dedup_off(self, tmp_path):
        edges = np.array([[1, 0], [1, 0], [2, 2]], dtype=np.int64)
        stream = stream_from_edges(edges, num_vertices=3)
        store = build_shard_store(stream, tmp_path / "s", 2, dedup=False,
                                  drop_self_loops=False)
        assert store.num_edges == 3
        ref = Graph.from_edges(edges, num_vertices=3)
        np.testing.assert_array_equal(store.global_indptr(),
                                      ref.out_indptr)


# directory_digest of build_shard_store(stream_rmat(11, 8, seed=7), ...),
# recorded at commit 06a4410 — the last with the three-pass, np.unique
# build — keyed (num_shards, pinned vertex_starts, dedup, drop_self_loops)
GOLDEN_PINNED = {
    4: [0, 100, 100, 1500, 2048],  # shard 1 owns no vertex
    # nor do shards 0, 2, 5 and 8
    9: [0, 0, 17, 17, 300, 1024, 1024, 2000, 2048, 2048],
}
GOLDEN_STORES = {
    (1, False, True, True):
        "79308c2dca650f74f8e5b486dc7357ea973092d0ef8678639fa1d6a57b1e6b73",
    (1, False, True, False):
        "3495a3c923ac09901d7cf139639c4533da4595a3d12e3b5d580070f5326eab79",
    (1, False, False, True):
        "a2e0e483486dadd8bf0dcda2e128f611537316fb65d6325126c79b6c2be5103f",
    (1, False, False, False):
        "dc3814cfe0fb47c7621e1225168e8c765e6804dd8d1bc0bdfeb30ce5ea616890",
    (4, False, True, True):
        "811d0b3b061b3c387a38a8db4c4659dae0d3fe93755cbc39dd3a54b9f99150c9",
    (4, False, True, False):
        "70dd4983eb14c3094678185879a2d57d176184b9b282d9d15ed795155c128aa7",
    (4, False, False, True):
        "d93d5233aea2f713e5a9f591ff7d63c583639ee04f6fc9f688a108b978f618ab",
    (4, False, False, False):
        "6a0b9a81700115e874a515fadc79a187fbce5ac0b57972afda979bc7c9bcd379",
    (4, True, True, True):
        "440c8194cc6dc0663ae1496d04b33e182a66c3333c6aaccaa6f1f4a7f978fc0d",
    (4, True, True, False):
        "4278b8ae18db54ce87ea2e093a4bfa7364086160880d55a88f82ea17f1d56484",
    (4, True, False, True):
        "f2756fa3c2110c56c0dcd8eca21d3dd77b41ee7a7b9a2b19d7ab741f191c95d3",
    (4, True, False, False):
        "fe31f48292d45fd6c721361d02cd7d40aca47a4c66e81db77233b402c0a692e8",
    (9, False, True, True):
        "4efc818c1e0830767faf82373be825c009afa2c9c7808175dcad1fd444caca1b",
    (9, False, True, False):
        "83849a12764ee4057f19a68711922e8ee557d1cdecfaf777c2d94b59eaf4a121",
    (9, False, False, True):
        "084d29520306fd6f4048544c1b47c3e8bb7da61f1e9ed7384b0a890aff992ee8",
    (9, False, False, False):
        "5a2282062392849a7af0bd147a7c4e2c4dd0f55906c5b070ad5ea78c0c1e8dea",
    (9, True, True, True):
        "e756017e55c1dff298f5fbe3e0bdeee991b1ccbceb17bd5bfb400aeac45952b9",
    (9, True, True, False):
        "52962656b2673ad9c5055e9cd23c7210c1ddb46e032d161f114cbbf299a02606",
    (9, True, False, True):
        "baa3833be324066bcc2d1d9dff20b6b4655ab0f2ca98e4feea3fc0d389ed6958",
    (9, True, False, False):
        "f491d38f6ebbc2e1471fad0260c5ad2c6a979b6208bc65c88f0b15bb42af2a59",
}


class TestGoldenStoreBytes:
    """The finished directory — every ``.npy``, the manifest — is a
    contract: same stream and options, same bytes, at any chunk size."""

    @pytest.mark.parametrize("case", sorted(GOLDEN_STORES), ids=str)
    def test_store_directory_bytes(self, tmp_path, case):
        num_shards, pinned, dedup, drop_self_loops = case
        for chunk_size in (97, 1 << 18):  # 169 runs, one run
            path = tmp_path / f"chunk{chunk_size}"
            build_shard_store(
                stream_rmat(11, 8, seed=7, chunk_size=chunk_size), path,
                num_shards, dedup=dedup, drop_self_loops=drop_self_loops,
                vertex_starts=GOLDEN_PINNED[num_shards] if pinned else None)
            assert sorted(f.name for f in path.iterdir()) == sorted(
                ["manifest.json"]
                + [f"shard{s:05d}.{part}.npy" for s, part in
                   itertools.product(range(num_shards),
                                     ("indptr", "indices"))])
            assert directory_digest(path) == GOLDEN_STORES[case]


class TestBuildIsAtomic:
    """A directory that exists at ``path`` is a complete store."""

    def test_interrupted_build_leaves_nothing(self, tmp_path, rmat_stream):
        def chunks():
            it = rmat_stream.chunks()
            yield next(it)  # one run reaches the spool
            raise RuntimeError("disk full")

        broken = EdgeStream(rmat_stream.num_vertices, rmat_stream.num_edges,
                            rmat_stream.chunk_size, chunks)
        with pytest.raises(RuntimeError, match="disk full"):
            build_shard_store(broken, tmp_path / "out" / "s", 4)
        assert list((tmp_path / "out").iterdir()) == []

    def test_interrupted_finalize_leaves_nothing(self, tmp_path, rmat_stream,
                                                 monkeypatch):
        real_save, saved = np.save, []

        def save(file, arr):
            if Path(file).name.startswith("shard00001"):
                raise OSError("disk full")
            saved.append(Path(file).name)
            real_save(file, arr)

        monkeypatch.setattr(np, "save", save)
        with pytest.raises(OSError, match="disk full"):
            build_shard_store(rmat_stream, tmp_path / "out" / "s", 4)
        assert saved == ["shard00000.indptr.npy", "shard00000.indices.npy"]
        assert list((tmp_path / "out").iterdir()) == []

    def test_stream_is_drained_once(self, tmp_path, rmat_stream):
        drains = []

        def chunks():
            drains.append(None)
            return rmat_stream.chunks()

        counting = EdgeStream(rmat_stream.num_vertices, rmat_stream.num_edges,
                              rmat_stream.chunk_size, chunks)
        store = build_shard_store(counting, tmp_path / "s", 4)
        assert len(drains) == 1
        assert ShardBackedGraph(store) == reference_graph(rmat_stream)

    def test_one_shot_stream_builds_the_same_store(self, tmp_path,
                                                   rmat_stream):
        # a builder needs one pass: a socket or a pipe is a valid stream
        source = rmat_stream.chunks()

        def once():
            nonlocal source
            it, source = source, None
            if it is None:
                raise AssertionError("one-shot stream drained twice")
            return it

        one_shot = EdgeStream(rmat_stream.num_vertices,
                              rmat_stream.num_edges,
                              rmat_stream.chunk_size, once)
        build_shard_store(one_shot, tmp_path / "once", 4)
        build_shard_store(rmat_stream, tmp_path / "again", 4)
        assert (directory_digest(tmp_path / "once")
                == directory_digest(tmp_path / "again"))

    def test_refuses_to_build_over_a_store(self, tmp_path, rmat_stream):
        build_shard_store(rmat_stream, tmp_path / "s", 2)
        before = sorted(f.name for f in (tmp_path / "s").iterdir())
        with pytest.raises(GraphError, match=str(tmp_path / "s")):
            build_shard_store(rmat_stream, tmp_path / "s", 4)
        assert sorted(f.name for f in (tmp_path / "s").iterdir()) == before
        assert open_shard_graph(tmp_path / "s").store.num_shards == 2

    def test_empty_directory_is_accepted(self, tmp_path, rmat_stream):
        store = build_shard_store(rmat_stream, tmp_path, 2)
        assert store.path == tmp_path
        assert ShardBackedGraph(store) == reference_graph(rmat_stream)


class TestShardStoreAccess:
    def test_manifest_and_offsets(self, tmp_path, rmat_stream):
        store = build_shard_store(rmat_stream, tmp_path / "s", 4)
        assert store.vertex_starts.size == 5
        assert store.edge_offsets[-1] == store.num_edges
        assert store.largest_shard_edges() == max(
            store.shard_edge_count(s) for s in range(4))

    def test_shard_of(self, tmp_path, rmat_stream):
        store = build_shard_store(rmat_stream, tmp_path / "s", 4)
        verts = np.arange(store.num_vertices, dtype=np.int64)
        by_array = store.shard_of_array(verts)
        for s in range(4):
            lo, hi = store.vertex_starts[s], store.vertex_starts[s + 1]
            assert np.all(by_array[lo:hi] == s)

    def test_indices_range_crosses_shards(self, tmp_path, rmat_stream):
        store = build_shard_store(rmat_stream, tmp_path / "s", 4)
        ref = reference_graph(rmat_stream)
        total = ref.out_indices.size
        for lo, hi in [(0, total), (1, total - 1),
                       (total // 3, 2 * total // 3), (5, 5)]:
            np.testing.assert_array_equal(store.indices_range(lo, hi),
                                          ref.out_indices[lo:hi])

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(GraphError):
            ShardStore(tmp_path)


class TestShardBackedGraph:
    def test_out_indices_raises(self, tmp_path, rmat_stream):
        g = ShardBackedGraph(
            build_shard_store(rmat_stream, tmp_path / "s", 3))
        with pytest.raises(GraphError):
            g.out_indices

    def test_accessors_match_reference(self, tmp_path, rmat_stream):
        g = ShardBackedGraph(
            build_shard_store(rmat_stream, tmp_path / "s", 3))
        ref = reference_graph(rmat_stream)
        for v in range(0, ref.num_vertices, 19):
            np.testing.assert_array_equal(g.out_neighbors(v),
                                          ref.out_neighbors(v))
        lo, hi = int(ref.out_indptr[7]), int(ref.out_indptr[100])
        np.testing.assert_array_equal(g.out_indices_range(lo, hi),
                                      ref.out_indices[lo:hi])

    def test_out_edges_of_unsorted_vertices(self, tmp_path, rmat_stream):
        g = ShardBackedGraph(
            build_shard_store(rmat_stream, tmp_path / "s", 3))
        ref = reference_graph(rmat_stream)
        verts = np.array([200, 3, 3, 511, 0, 127], dtype=np.int64)
        g_src, g_dst = g.out_edges_of(verts)
        r_src, r_dst = ref.out_edges_of(verts)
        np.testing.assert_array_equal(g_src, r_src)
        np.testing.assert_array_equal(g_dst, r_dst)

    def test_iter_edges(self, tmp_path):
        edges = np.array([[0, 2], [1, 0], [3, 1]], dtype=np.int64)
        store = build_shard_store(
            stream_from_edges(edges, num_vertices=4), tmp_path / "s", 2)
        assert (sorted(ShardBackedGraph(store).iter_edges())
                == sorted(map(tuple, edges.tolist())))


class TestStoreCli:
    """``repro store build`` / ``info``: a bad generator argument is a
    one-line error and a non-zero exit, before anything is written."""

    def test_build_then_info(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        out = tmp_path / "rmat"
        assert cli_main(["store", "build", str(out), "--scale", "8",
                         "--shards", "2", "--seed", "3"]) == 0
        built = ShardStore(out)
        assert built.num_edges == reference_graph(
            stream_rmat(8, edge_factor=8, seed=3)).num_edges
        assert cli_main(["store", "info", str(out)]) == 0
        assert f"edges     : {built.num_edges:,}" in capsys.readouterr().out

    @pytest.mark.parametrize("args, what", [
        (["--edge-factor", "-1"], "edge_factor"),
        (["--kind", "small-world", "--k", "-2"], "k must be"),
        (["--kind", "small-world", "--vertices", "0"], "num_vertices"),
        (["--seed", "-3"], "seed must be non-negative"),
        (["--kind", "web", "--seed", "-1"], "seed must be non-negative"),
        (["--shards", "0"], "num_shards"),
    ])
    def test_bad_argument_exits_with_one_line(self, tmp_path, args, what):
        from repro.cli import main as cli_main

        out = tmp_path / "bad"
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["store", "build", str(out), "--scale", "6"] + args)
        message = exit_info.value.code
        assert isinstance(message, str)  # a message is exit status 1
        assert message.startswith("store build: ") and what in message
        assert "\n" not in message
        assert not out.exists()

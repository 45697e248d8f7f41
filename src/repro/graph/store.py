"""Sharded, memory-mappable CSR graph store.

A :class:`repro.graph.digraph.Graph` kept on disk: one directory
holding a JSON manifest plus per-shard ``indptr``/``indices`` ``.npy``
files.  Shards cover contiguous source-vertex ranges, written once from
an :class:`~repro.graph.stream.EdgeStream` and opened via
``np.load(..., mmap_mode="r")`` — so building and processing a graph
both keep peak RSS at O(largest shard + n), never O(m).

Build (three passes, each O(chunk) + O(n) resident):

1. **count** — stream the edges once, drop self loops, accumulate raw
   per-source degrees; choose edge-balanced shard boundaries from the
   degree prefix sums (callers may pin boundaries, e.g. to partition
   ranges so partition ``p`` *is* shard ``p``).
2. **scatter** — stream again; a chunk's sorted
   :func:`~repro.graph.digraph.pair_keys` fall into shard order, so
   each shard's slice is appended to that shard's scratch file (one
   cursor per shard; pass 1 sized the files).
3. **finalize** — per shard, :func:`~repro.graph.digraph.csr_from_keys`
   (the sort ``Graph.from_edges`` runs) turns the scratch keys into the
   final local ``indptr``/``indices`` arrays.  Because shards are source
   ranges, per-shard dedup equals global dedup, and the result is
   bit-identical to ``Graph.from_edges(edges, dedup=...,
   drop_self_loops=...)`` on the materialized edge list.

The store is assembled in a temporary sibling directory and renamed
into place after the manifest is written, so a directory that exists at
``path`` is always a complete store.

:class:`ShardBackedGraph` then exposes the store through the ``Graph``
API with a *raising* ``out_indices`` — any code path that would
materialize the whole edge array fails loudly instead of silently
blowing the memory budget; consumers use :meth:`Graph.out_indices_range`
and the per-partition gathers instead.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.errors import GraphError
from repro.graph.digraph import (
    Graph,
    balanced_offsets,
    covers_range,
    csr_from_keys,
    pair_keys,
)
from repro.graph.stream import EdgeStream

__all__ = [
    "MANIFEST_NAME",
    "STORE_FORMAT",
    "ShardStore",
    "ShardBackedGraph",
    "build_shard_store",
    "open_shard_graph",
]

MANIFEST_NAME = "manifest.json"
STORE_FORMAT = "repro-shard-store/v1"


def _expand_blocks(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat gather indices for variable-length blocks.

    ``result`` enumerates ``starts[i] .. starts[i] + counts[i] - 1`` for
    each ``i`` in order — the same arithmetic ``Graph.out_edges_of``
    uses.
    """
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    block_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return (np.arange(total, dtype=np.int64)
            + np.repeat(starts - block_starts, counts))


def build_shard_store(
    stream: EdgeStream,
    path: str | Path,
    num_shards: int,
    dedup: bool = True,
    drop_self_loops: bool = True,
    vertex_starts: Sequence[int] | np.ndarray | None = None,
    meta: dict | None = None,
) -> "ShardStore":
    """Count-then-scatter an :class:`EdgeStream` into a shard store.

    ``vertex_starts`` (S+1 offsets) pins the shard boundaries; the
    default is edge-balanced boundaries from the raw degree prefix sums.
    ``path`` must not hold anything yet; it appears only once the store
    is complete.  Returns the opened :class:`ShardStore`.
    """
    if num_shards < 1:
        raise GraphError("num_shards must be at least 1")
    path = Path(path)
    if path.exists() and (not path.is_dir() or any(path.iterdir())):
        raise GraphError(f"{path} already exists and is not empty")
    building = path.with_name(f"{path.name}.building-{os.getpid()}")
    building.mkdir(parents=True)
    try:
        _write_shards(stream, building, num_shards, dedup, drop_self_loops,
                      vertex_starts, meta)
        os.replace(building, path)
    except BaseException:
        shutil.rmtree(building, ignore_errors=True)
        raise
    return ShardStore(path)


def _write_shards(
    stream: EdgeStream,
    path: Path,
    num_shards: int,
    dedup: bool,
    drop_self_loops: bool,
    vertex_starts: Sequence[int] | np.ndarray | None,
    meta: dict | None,
) -> None:
    """The three build passes, into the (empty) directory ``path``."""
    n = int(stream.num_vertices)

    def kept_chunks() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for src, dst in stream.chunks():
            if drop_self_loops:
                keep = src != dst
                src, dst = src[keep], dst[keep]
            if src.size:
                yield src, dst

    # -- pass 1: count raw per-source degrees -------------------------
    raw_indptr = np.zeros(n + 1, dtype=np.int64)
    for src, dst in kept_chunks():
        if min(src.min(), dst.min()) < 0:
            raise GraphError("vertex ids must be non-negative")
        if max(src.max(), dst.max()) >= n:
            raise GraphError("edge endpoint exceeds num_vertices")
        raw_indptr[1:] += np.bincount(src, minlength=n)
    np.cumsum(raw_indptr, out=raw_indptr)

    if vertex_starts is None:
        starts = balanced_offsets(raw_indptr, num_shards)
    else:
        starts = np.asarray(vertex_starts, dtype=np.int64)
        if not covers_range(starts, num_shards, n):
            raise GraphError("vertex_starts must be S+1 offsets over [0, n]")
    raw_counts = np.diff(raw_indptr[starts])

    # -- pass 2: append each chunk's keys to its shard's scratch file --
    raw_paths = [path / f"shard{s:05d}.raw.npy" for s in range(num_shards)]
    raw_maps = [
        np.lib.format.open_memmap(raw_paths[s], mode="w+", dtype=np.int64,
                                  shape=(int(raw_counts[s]),))
        for s in range(num_shards)
    ]
    cursors = np.zeros(num_shards, dtype=np.int64)
    for src, dst in kept_chunks():
        # sorted keys fall into shard order; each shard's slice is made
        # local to its first row, as its final indptr is
        keys = np.sort(pair_keys(src, dst, n, n))
        bounds = np.searchsorted(keys, starts * n)
        for s in np.flatnonzero(np.diff(bounds)):
            block = keys[bounds[s]:bounds[s + 1]] - starts[s] * n
            raw_maps[s][cursors[s]:cursors[s] + block.size] = block
            cursors[s] += block.size
    for mm in raw_maps:
        mm.flush()
    del raw_maps

    # -- pass 3: per-shard key sort (+ dedup), final npy files --------
    shards = []
    for s in range(num_shards):
        local_n = int(starts[s + 1] - starts[s])
        # keep the raw shard mapped: the sort gathers into a fresh array
        indptr_local, indices = csr_from_keys(
            np.load(raw_paths[s], mmap_mode="r"), local_n, n, dedup)
        indptr_name = f"shard{s:05d}.indptr.npy"
        indices_name = f"shard{s:05d}.indices.npy"
        np.save(path / indptr_name, indptr_local)
        np.save(path / indices_name, indices)
        shards.append({
            "indptr": indptr_name,
            "indices": indices_name,
            "num_edges": int(indices.size),
        })
        raw_paths[s].unlink()

    manifest = {
        "format": STORE_FORMAT,
        "num_vertices": n,
        "num_edges": sum(shard["num_edges"] for shard in shards),
        "num_shards": num_shards,
        "dedup": bool(dedup),
        "drop_self_loops": bool(drop_self_loops),
        "vertex_starts": [int(v) for v in starts],
        "shards": shards,
    }
    if meta:
        manifest["meta"] = dict(meta)
    with open(path / MANIFEST_NAME, "w", encoding="ascii") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)


class ShardStore:
    """An opened shard-store directory: manifest + per-shard memmaps."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        manifest_path = self.path / MANIFEST_NAME
        if not manifest_path.exists():
            raise GraphError(f"no shard-store manifest at {manifest_path}")
        with open(manifest_path, "r", encoding="ascii") as handle:
            manifest = json.load(handle)
        if manifest.get("format") != STORE_FORMAT:
            raise GraphError(
                f"unsupported shard-store format {manifest.get('format')!r}")
        self.manifest = manifest
        self.num_vertices = int(manifest["num_vertices"])
        self.num_edges = int(manifest["num_edges"])
        self.num_shards = int(manifest["num_shards"])
        self.vertex_starts = np.asarray(manifest["vertex_starts"],
                                        dtype=np.int64)
        if not covers_range(self.vertex_starts, self.num_shards,
                            self.num_vertices):
            raise GraphError("manifest vertex_starts are inconsistent")
        self._indptrs: list[np.ndarray] = []
        self._indices: list[np.ndarray] = []
        for s, shard in enumerate(manifest["shards"]):
            indptr = np.load(self.path / shard["indptr"], mmap_mode="r")
            local_n = (self.vertex_starts[s + 1] - self.vertex_starts[s])
            if indptr.size != local_n + 1:
                raise GraphError(f"shard {s} indptr does not match its "
                                 "vertex range")
            indices = np.load(self.path / shard["indices"], mmap_mode="r")
            if indices.size != int(shard["num_edges"]):
                raise GraphError(f"shard {s} indices size mismatch")
            self._indptrs.append(indptr)
            self._indices.append(indices)
        counts = np.array([idx.size for idx in self._indices],
                          dtype=np.int64)
        self.edge_offsets = np.zeros(self.num_shards + 1, dtype=np.int64)
        np.cumsum(counts, out=self.edge_offsets[1:])
        if self.edge_offsets[-1] != self.num_edges:
            raise GraphError("manifest edge count does not match shards")
        self._global_indptr: np.ndarray | None = None

    # ------------------------------------------------------------------
    def global_indptr(self) -> np.ndarray:
        """The full CSR offsets array (O(n) resident, assembled once).

        The cached array is served read-only: every
        :class:`ShardBackedGraph` over this store aliases it, so an
        in-place write would corrupt them all — it fails loudly
        instead.
        """
        if self._global_indptr is None:
            indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
            for s in range(self.num_shards):
                lo, hi = self.vertex_starts[s], self.vertex_starts[s + 1]
                indptr[lo + 1: hi + 1] = (self._indptrs[s][1:]
                                          + self.edge_offsets[s])
            indptr.flags.writeable = False
            self._global_indptr = indptr
        return self._global_indptr

    def shard_indices(self, s: int) -> np.ndarray:
        """Shard ``s``'s destination array (a read-only memmap)."""
        return self._indices[s]

    def shard_indptr(self, s: int) -> np.ndarray:
        """Shard ``s``'s local CSR offsets (memmap)."""
        return self._indptrs[s]

    def shard_edge_count(self, s: int) -> int:
        return int(self.edge_offsets[s + 1] - self.edge_offsets[s])

    def largest_shard_edges(self) -> int:
        return int(np.diff(self.edge_offsets).max(initial=0))

    def shard_of(self, v: int) -> int:
        return int(np.searchsorted(self.vertex_starts, v, side="right") - 1)

    def shard_of_array(self, vertices: np.ndarray) -> np.ndarray:
        return (np.searchsorted(self.vertex_starts, vertices, side="right")
                - 1)

    def indices_range(self, lo: int, hi: int) -> np.ndarray:
        """Global edge slots ``[lo, hi)``; zero-copy within one shard.

        Always read-only: the single-shard path is a memmap slice
        (shared pages), and the stitched multi-shard result is locked
        too so both paths behave identically under mutation.
        """
        if hi <= lo:
            return np.zeros(0, dtype=np.int64)
        s = int(np.searchsorted(self.edge_offsets, lo, side="right") - 1)
        if hi <= self.edge_offsets[s + 1]:
            off = int(self.edge_offsets[s])
            return self._indices[s][lo - off: hi - off]
        pieces = []
        while lo < hi:
            end = int(min(hi, self.edge_offsets[s + 1]))
            off = int(self.edge_offsets[s])
            pieces.append(np.asarray(self._indices[s][lo - off: end - off]))
            lo, s = end, s + 1
        out = np.concatenate(pieces)
        out.flags.writeable = False
        return out


class ShardBackedGraph(Graph):
    """The ``Graph`` API over a :class:`ShardStore`.

    Holds only the O(n) offsets array in memory; adjacency reads are
    memmap slices.  Accessing ``out_indices`` raises — whole-edge-array
    consumers must go through :meth:`out_indices_range`,
    :meth:`out_edges_of` or :meth:`to_graph` so O(m) materialization is
    always an explicit choice.
    """

    __slots__ = ("store",)

    def __init__(self, store: ShardStore):
        # Graph.__init__ would assign the ``out_indices`` slot, which the
        # raising property below must keep shadowed — so replicate the
        # indptr-side validation instead of delegating.
        indptr = store.global_indptr()
        if indptr[0] != 0 or indptr[-1] != store.num_edges:
            raise GraphError("indptr does not cover the shard store")
        if np.any(np.diff(indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        self.out_indptr = indptr
        self._in_indptr = None
        self._in_indices = None
        self.store = store

    @property
    def out_indices(self) -> np.ndarray:
        raise GraphError(
            "ShardBackedGraph does not materialize out_indices; use "
            "out_indices_range()/out_edges_of() or to_graph()")

    @property
    def num_edges(self) -> int:
        return self.store.num_edges

    def out_neighbors(self, v: int) -> np.ndarray:
        lo = int(self.out_indptr[v])
        hi = int(self.out_indptr[v + 1])
        return self.store.indices_range(lo, hi)

    def out_indices_range(self, lo: int, hi: int) -> np.ndarray:
        return self.store.indices_range(int(lo), int(hi))

    def out_edges_of(
        self, vertices: Sequence[int] | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        verts = np.asarray(vertices, dtype=np.int64)
        starts = self.out_indptr[verts]
        counts = self.out_indptr[verts + 1] - starts
        m = int(counts.sum())
        if m == 0:
            return (np.zeros(0, dtype=np.int64),
                    np.zeros(0, dtype=np.int64))
        src = np.repeat(verts, counts)
        dst = np.empty(m, dtype=np.int64)
        block_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        shard_ids = self.store.shard_of_array(verts)
        for s in np.unique(shard_ids):
            sel = shard_ids == s
            idx_in = _expand_blocks(
                starts[sel] - self.store.edge_offsets[s], counts[sel])
            idx_out = _expand_blocks(block_starts[sel], counts[sel])
            dst[idx_out] = self.store.shard_indices(int(s))[idx_in]
        return src, dst

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.num_vertices):
            for u in self.out_neighbors(v):
                yield v, int(u)

    def to_graph(self) -> Graph:
        """Materialize an in-memory :class:`Graph` (tests, small sizes)."""
        pieces = [np.asarray(self.store.shard_indices(s))  # repro: ignore[OOC001] -- to_graph() is the documented O(m) materialization point
                  for s in range(self.store.num_shards)]
        indices = (np.concatenate(pieces) if pieces
                   else np.zeros(0, dtype=np.int64))
        return Graph(self.out_indptr.copy(), indices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if not np.array_equal(self.out_indptr, other.out_indptr):
            return False
        for s in range(self.store.num_shards):
            lo = int(self.store.edge_offsets[s])
            hi = int(self.store.edge_offsets[s + 1])
            if not np.array_equal(self.store.shard_indices(s),
                                  other.out_indices_range(lo, hi)):
                return False
        return True

    __hash__ = Graph.__hash__


def open_shard_graph(path: str | Path) -> ShardBackedGraph:
    """Open a shard-store directory as a :class:`ShardBackedGraph`."""
    return ShardBackedGraph(ShardStore(path))

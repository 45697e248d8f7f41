"""Sharded, memory-mappable CSR graph store.

A :class:`repro.graph.digraph.Graph` kept on disk: one directory
holding a JSON manifest plus per-shard ``indptr``/``indices`` ``.npy``
files.  Shards cover contiguous source-vertex ranges, written once from
an :class:`~repro.graph.stream.EdgeStream` and opened via
``np.load(..., mmap_mode="r")`` — so building and processing a graph
both keep peak RSS at O(largest shard + n), never O(m).

Build (one drain of the stream, then one sort per shard):

1. **drain** — read the stream once.  Each chunk is checked, loses its
   self loops, becomes sorted :func:`~repro.graph.digraph.pair_keys`
   and is appended to one spool file as one sorted *run*, while its raw
   per-source degrees are accumulated: O(chunk) + O(n) resident, 8 B of
   scratch disk per raw edge.  The stream is never read again, so it
   need not be re-iterable.
2. **cut** — choose edge-balanced shard boundaries from the degree
   prefix sums (callers may pin boundaries, e.g. to partition ranges so
   partition ``p`` *is* shard ``p``).  A run is sorted, so a shard's
   keys are one contiguous slice of it: one ``searchsorted`` per run
   against ``starts * n`` finds every shard's slice.
3. **finalize** — per shard, the run slices are concatenated, made
   local to the shard's first row and handed to
   :func:`~repro.graph.digraph.csr_from_keys` (the sort
   ``Graph.from_edges`` runs), O(largest shard) resident.  Because
   shards are source ranges, per-shard dedup equals global dedup, and
   the result is bit-identical to ``Graph.from_edges(edges, dedup=...,
   drop_self_loops=...)`` on the materialized edge list.

The finished directory is a contract: the same stream and options give
the same bytes in every file, at any chunk size
(tests/test_graph_store.py holds golden digests).

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
    edge_keys,
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
# build scratch inside the temporary directory; gone before the rename
_SPOOL_NAME = "spool.raw"


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
) -> "ShardStore":
    """Drain an :class:`EdgeStream`, once, into a shard store.

    ``stream.chunks()`` is called exactly once: the edges go to a spool
    of sorted runs and the shards are cut from those (module docstring).
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
                      vertex_starts)
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
) -> None:
    """Drain, cut and finalize, into the (empty) directory ``path``."""
    n = int(stream.num_vertices)
    spool_path = path / _SPOOL_NAME
    raw_indptr, run_offsets = _drain_to_spool(stream, spool_path, n,
                                              drop_self_loops)
    if vertex_starts is None:
        starts = balanced_offsets(raw_indptr, num_shards)
    else:
        starts = np.asarray(vertex_starts, dtype=np.int64)
        if not covers_range(starts, num_shards, n):
            raise GraphError("vertex_starts must be S+1 offsets over [0, n]")
    shards = _finalize_shards(spool_path, run_offsets, starts, n, dedup, path)
    spool_path.unlink()

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
    with open(path / MANIFEST_NAME, "w", encoding="ascii") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)


def _drain_to_spool(
    stream: EdgeStream, spool_path: Path, n: int, drop_self_loops: bool,
) -> tuple[np.ndarray, list[int]]:
    """The one pass over ``stream``: append each chunk's sorted keys to
    the spool as one run.  Returns the raw (pre-dedup) CSR offsets and
    the runs' boundaries in the spool, in keys."""
    raw_indptr = np.zeros(n + 1, dtype=np.int64)
    run_offsets = [0]
    with open(spool_path, "wb") as spool:
        for src, dst in stream.chunks():
            keys = edge_keys(src, dst, n, drop_self_loops)
            if keys.size == 0:
                continue
            keys.sort()
            raw_indptr[1:] += np.bincount(keys // n, minlength=n)
            keys.tofile(spool)
            run_offsets.append(run_offsets[-1] + keys.size)
    np.cumsum(raw_indptr, out=raw_indptr)
    return raw_indptr, run_offsets


def _finalize_shards(
    spool_path: Path, run_offsets: list[int], starts: np.ndarray, n: int,
    dedup: bool, path: Path,
) -> list[dict]:
    """Write every shard's final ``.npy`` pair from the spooled runs.

    A run is sorted, so shard ``s``'s keys are one contiguous slice of
    it, found by binary search; the slices of all runs, concatenated and
    made local to the shard's first row (as its ``indptr`` is), go
    through :func:`~repro.graph.digraph.csr_from_keys`.
    """
    # an empty file cannot be mapped; with no run it is never read
    spool = (np.memmap(spool_path, dtype=np.int64, mode="r")
             if run_offsets[-1] else np.zeros(0, dtype=np.int64))
    runs = [spool[lo:hi] for lo, hi in zip(run_offsets, run_offsets[1:])]
    first_keys = starts * n
    cuts = [np.searchsorted(run, first_keys) for run in runs]
    shards = []
    for s in range(starts.size - 1):
        pieces = [run[cut[s]:cut[s + 1]] for run, cut in zip(runs, cuts)]
        keys = (np.concatenate(pieces) if pieces
                else np.zeros(0, dtype=np.int64))
        keys -= first_keys[s]
        indptr_local, indices = csr_from_keys(
            keys, int(starts[s + 1] - starts[s]), n, dedup)
        indptr_name = f"shard{s:05d}.indptr.npy"
        indices_name = f"shard{s:05d}.indices.npy"
        np.save(path / indptr_name, indptr_local)
        np.save(path / indices_name, indices)
        shards.append({
            "indptr": indptr_name,
            "indices": indices_name,
            "num_edges": int(indices.size),
        })
    return shards


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

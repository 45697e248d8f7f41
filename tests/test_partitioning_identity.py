"""The partitioner's determinism contract (DESIGN.md Section 11).

Two layers hold the multilevel partitioner to the partitions it has always
produced, so its loops can be rewritten for speed and nothing downstream
(edge cuts, placements, every simulated counter) moves:

* golden digests of whole ``recursive_bisection`` results: ``GOLDEN`` at
  today's FM tail limit, and ``UNLIMITED_GOLDEN``, recorded at the commit
  before the loops went onto lists and array ops, which the same code
  reproduces with the limit lifted;
* the scalar FM pass and k-way move that commit had (the pass with the
  tail-limit exit added), kept here as the reference the production
  routines must agree with move for move on small graphs built to tie.
"""

import hashlib
import heapq
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import PartitioningError
from repro.graph.generators import composite_social_graph, erdos_renyi, rmat
from repro.partitioning import refine
from repro.partitioning.bisect import BisectionOptions
from repro.partitioning.coarsen import contract_matching
from repro.partitioning.kway import (
    _affinity_table,
    _apply_move,
    _best_move,
    kway_refine_balance,
)
from repro.partitioning.metrics import weighted_cut
from repro.partitioning.recursive import recursive_bisection
from repro.partitioning.refine import (
    FM_TAIL,
    _fm_pass,
    _gains_and_cut,
    _key_rows,
)
from repro.partitioning.wgraph import WGraph
from tests.conftest import wgraph_is_symmetric

COMMON = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _weights(wgraph, v):
    """The weights of ``v``'s arcs, aligned with ``wgraph.neighbors(v)``."""
    return wgraph.eweights[wgraph.indptr[v]:wgraph.indptr[v + 1]]


# ----------------------------------------------------------------------
# (a) golden digests
# ----------------------------------------------------------------------

def partition_digest(result) -> str:
    """sha1 over ``parts`` and the sorted sketch-node cuts and sizes."""
    h = hashlib.sha1(np.ascontiguousarray(result.parts, dtype=np.int64).tobytes())
    for table in (result.node_cuts, result.node_sizes):
        rows = sorted((int(lvl), int(pre), int(val))
                      for (lvl, pre), val in table.items())
        h.update(repr(rows).encode())
    return h.hexdigest()


def _social():
    return composite_social_graph(num_communities=8, community_size=128,
                                  k=6, seed=3)


def _shuffled_rows() -> WGraph:
    """A hand-built WGraph whose CSR rows are *not* sorted by neighbour."""
    wg = WGraph.from_digraph(erdos_renyi(400, 1600, seed=21))
    rng = np.random.default_rng(5)
    indices, eweights = wg.indices.copy(), wg.eweights.copy()
    for v in range(wg.num_vertices):
        lo, hi = int(wg.indptr[v]), int(wg.indptr[v + 1])
        order = rng.permutation(hi - lo) + lo
        indices[lo:hi], eweights[lo:hi] = wg.indices[order], wg.eweights[order]
    return WGraph(wg.indptr, indices, eweights, wg.vweights)


# name -> (wgraph factory, num_parts, seed, recursive_bisection kwargs)
CASES = {
    "social-p8-edges": (
        lambda: WGraph.from_digraph(_social()), 8, 1, {}),
    "social-p4-vertices": (
        lambda: WGraph.from_digraph(
            composite_social_graph(4, 64, k=5, seed=11), balance="vertices"),
        4, 0, {}),
    "social-p16-edges": (
        lambda: WGraph.from_digraph(
            composite_social_graph(16, 64, k=6, seed=5)), 16, 2, {}),
    "rmat11-p16-edges": (
        lambda: WGraph.from_digraph(rmat(11, edge_factor=8, seed=7)),
        16, 1, {}),
    "rmat11-p8-vertices-tight": (
        lambda: WGraph.from_digraph(rmat(11, edge_factor=8, seed=7),
                                    balance="vertices"),
        8, 3, {"kway_tolerance": 0.01}),
    "er-p8-edges": (
        lambda: WGraph.from_digraph(erdos_renyi(1500, 6000, seed=4)),
        8, 5, {}),
    "er-sparse-p4-vertices": (  # isolated vertices, many components
        lambda: WGraph.from_digraph(erdos_renyi(600, 500, seed=9),
                                    balance="vertices"),
        4, 0, {}),
    "social-p8-random-initial": (
        lambda: WGraph.from_digraph(_social()), 8, 1,
        {"options": BisectionOptions(initial="random")}),
    "social-p8-no-refine": (
        lambda: WGraph.from_digraph(_social()), 8, 1,
        {"options": BisectionOptions(refine=False)}),
    "social-p8-no-kway": (
        lambda: WGraph.from_digraph(_social()), 8, 4,
        {"kway_tolerance": None}),
    "shuffled-rows-p8": (_shuffled_rows, 8, 2, {}),
}

# Recorded at 9be9277, the last commit with the scalar loops, when an FM pass
# ran until its heap was empty: the partitions with ``FM_TAIL`` out of reach.
UNLIMITED_GOLDEN = {
    "social-p8-edges": "80d961c40dd3ef6a03ccbf0b9fa58e6969039ba7",
    "social-p4-vertices": "542d68d729fa9d93cc49a0fa3c80212566a10be0",
    "social-p16-edges": "b7988329d4e23724e27a7900f4611b3a2e346598",
    "rmat11-p16-edges": "64b87267a3536eb1d0954b0c18825a912d4ec1c2",
    "rmat11-p8-vertices-tight": "a9beef05bde7ea09d9c5f383d29536b194b338a3",
    "er-p8-edges": "d716fef23f0f2dd303992527e05d4bef319540ba",
    "er-sparse-p4-vertices": "0b93e206000fb3a47e6ccdb59dc83ab0746e470a",
    "social-p8-random-initial": "0f99c5a90ca64571624033513c8827c300385b81",
    "social-p8-no-refine": "0def10d9e8edb605009e25a77b33d301cb54930f",
    "social-p8-no-kway": "457feafb801e5b336dd76726c047d70f281edfdc",
    "shuffled-rows-p8": "972cf9a8fef6750d0549084958631864d9ca8b50",
}

# Recorded when FM passes gained the ``FM_TAIL = 100`` exit; only the three
# cases where some pass runs 100 moves past its best prefix moved.
GOLDEN = {
    "social-p8-edges": "80d961c40dd3ef6a03ccbf0b9fa58e6969039ba7",
    "social-p4-vertices": "542d68d729fa9d93cc49a0fa3c80212566a10be0",
    "social-p16-edges": "b7988329d4e23724e27a7900f4611b3a2e346598",
    "rmat11-p16-edges": "78bdab0e5d439f5d4fd2ea885780eb8e044c0b50",
    "rmat11-p8-vertices-tight": "10286af8158dbd397bf9e72319109ad26ff04dbb",
    "er-p8-edges": "9efc30c32af7884cd3ece573fd396399559aa17e",
    "er-sparse-p4-vertices": "0b93e206000fb3a47e6ccdb59dc83ab0746e470a",
    "social-p8-random-initial": "0f99c5a90ca64571624033513c8827c300385b81",
    "social-p8-no-refine": "0def10d9e8edb605009e25a77b33d301cb54930f",
    "social-p8-no-kway": "457feafb801e5b336dd76726c047d70f281edfdc",
    "shuffled-rows-p8": "972cf9a8fef6750d0549084958631864d9ca8b50",
}


def run_case(name: str):
    make, num_parts, seed, kwargs = CASES[name]
    return recursive_bisection(make(), num_parts, seed=seed, **kwargs)


class TestGoldenPartitions:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_partition_is_the_recorded_one(self, name):
        assert partition_digest(run_case(name)) == GOLDEN[name]

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_lifting_the_tail_limit_gives_the_unlimited_partition(
            self, name, monkeypatch):
        """The tail exit is the only change since ``UNLIMITED_GOLDEN``."""
        # a pass makes at most n moves, so a limit above n never fires
        monkeypatch.setattr(refine, "FM_TAIL",
                            CASES[name][0]().num_vertices + 1)
        assert partition_digest(run_case(name)) == UNLIMITED_GOLDEN[name]

    def test_same_seed_twice_is_the_same_partition(self):
        wg = WGraph.from_digraph(_social())
        a = recursive_bisection(wg, 8, seed=7)
        b = recursive_bisection(wg, 8, seed=7)
        assert np.array_equal(a.parts, b.parts)
        assert a.node_cuts == b.node_cuts
        assert a.node_sizes == b.node_sizes
        c = recursive_bisection(wg, 8, seed=8)
        assert not np.array_equal(a.parts, c.parts)


# ----------------------------------------------------------------------
# (b) scalar references, copied from the parent commit
# ----------------------------------------------------------------------

def reference_fm_pass(wgraph, side, total, min_side_weight, limit=FM_TAIL,
                      made=None) -> bool:
    """One FM pass over NumPy scalars; mutates ``side``.

    The pass stops ``limit`` moves after its best prefix.  ``made``, if
    given, receives every move of the pass, kept or rolled back.
    """
    n = wgraph.num_vertices
    gain = np.zeros(n, dtype=np.int64)
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(wgraph.indptr))
    same = side[src] == side[wgraph.indices]
    np.subtract.at(gain, src[same], wgraph.eweights[same])
    np.add.at(gain, src[~same], wgraph.eweights[~same])
    locked = np.zeros(n, dtype=bool)
    side_weight = np.zeros(2, dtype=np.int64)
    np.add.at(side_weight, side, wgraph.vweights)

    heap = [(-int(gain[v]), v) for v in range(n)]
    heapq.heapify(heap)

    start_cut = weighted_cut(wgraph, side)
    best_cut = start_cut
    current_cut = start_cut
    moves = [] if made is None else made
    best_prefix = 0

    while heap:
        neg_gain, v = heapq.heappop(heap)
        if locked[v] or -neg_gain != gain[v]:
            continue
        s = int(side[v])
        if side_weight[s] - wgraph.vweights[v] < min_side_weight:
            locked[v] = True
            continue
        locked[v] = True
        current_cut -= int(gain[v])
        side[v] = 1 - s
        side_weight[s] -= wgraph.vweights[v]
        side_weight[1 - s] += wgraph.vweights[v]
        moves.append(v)
        for u, w in zip(wgraph.neighbors(v), _weights(wgraph, v)):
            if locked[u]:
                continue
            if side[u] == side[v]:
                gain[u] -= 2 * w
            else:
                gain[u] += 2 * w
            heapq.heappush(heap, (-int(gain[u]), int(u)))
        if current_cut < best_cut:
            best_cut = current_cut
            best_prefix = len(moves)
        elif len(moves) - best_prefix >= limit:
            break

    for v in moves[best_prefix:]:
        side[v] = 1 - side[v]
    return best_cut < start_cut


def reference_best_move(wgraph, parts, weights, heavy, target):
    """Scan of every (member, neighbouring partition) pair of ``heavy``."""
    best = None
    best_score = -np.inf
    members = np.flatnonzero(parts == heavy)
    for v in members:
        v = int(v)
        vw = float(wgraph.vweights[v])
        if vw > weights[heavy] - target:
            if vw > 1.5 * (weights[heavy] - target):
                continue
        affinity = {}
        internal = 0.0
        for u, w in zip(wgraph.neighbors(v), _weights(wgraph, v)):
            q = int(parts[u])
            if q == heavy:
                internal += w
            else:
                affinity[q] = affinity.get(q, 0.0) + w
        for q, external in affinity.items():
            if weights[q] + vw > weights[heavy] - vw:
                continue
            gain = external - internal
            score = gain - 0.001 * weights[q] / max(target, 1.0)
            if score > best_score:
                best_score = score
                best = (v, q)
    return best


@st.composite
def tying_wgraphs(draw):
    """Small weighted graphs built so gains and scores tie.

    Unit (or near-unit) weights, duplicated neighbourhoods (twins that
    differ only in id), isolated vertices and a second component that
    shares no edge with the first.
    """
    n1 = draw(st.integers(2, 9))
    n2 = draw(st.integers(0, 5))
    isolated = draw(st.integers(0, 3))
    pair = st.tuples(st.integers(0, n1 - 1), st.integers(0, n1 - 1))
    edges = set(draw(st.lists(pair, max_size=3 * n1)))
    if n2 >= 2:
        pair2 = st.tuples(st.integers(n1, n1 + n2 - 1),
                          st.integers(n1, n1 + n2 - 1))
        edges |= set(draw(st.lists(pair2, max_size=2 * n2)))
    edges = {(min(a, b), max(a, b)) for a, b in edges if a != b}
    n = n1 + n2 + isolated
    # twins: a new vertex wired to exactly the neighbours of an old one
    for _ in range(draw(st.integers(0, 3))):
        v = draw(st.integers(0, n1 - 1))
        twin = n
        n += 1
        edges |= {(min(u, twin), max(u, twin))
                  for a, b in list(edges) for u in ((b,) if a == v else
                                                    (a,) if b == v else ())}
    edges = sorted(edges)
    unit = draw(st.booleans())
    eweights = ([1] * len(edges) if unit else
                draw(st.lists(st.integers(1, 3), min_size=len(edges),
                              max_size=len(edges))))
    vweights = ([1] * n if draw(st.booleans()) else
                draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    return WGraph.from_edges(edges, n, eweights=eweights, vweights=vweights)


@st.composite
def heavy_wgraphs(draw):
    """Graphs with n at 2^k and 2^k ± 1 and edge weights up to ~2^55.

    Scaling every weight by one base keeps the ties of unit weights while
    ``gain << shift`` passes 2^31 and, at the top bases, the int64 guard
    of the key arrays (so both ways of building keys run).  Every sum the
    reference takes stays inside int64.
    """
    n = max(2, 2 ** draw(st.integers(1, 5)) + draw(st.sampled_from([-1, 0, 1])))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = sorted({(min(a, b), max(a, b))
                    for a, b in draw(st.lists(pair, max_size=3 * n))
                    if a != b})
    base = draw(st.sampled_from([1, 2**20, 2**33, 2**45, 2**50, 2**53]))
    units = draw(st.lists(st.integers(1, 3), min_size=len(edges),
                          max_size=len(edges)))
    vweights = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    return WGraph.from_edges(edges, n, eweights=[base * u for u in units],
                             vweights=vweights)


def reference_contraction(wgraph, match):
    """Coarse CSR of ``match`` by summing arcs into a dict."""
    n = wgraph.num_vertices
    mapping, vweights = {}, []
    for v in range(n):
        if v <= match[v]:
            mapping[v] = mapping[int(match[v])] = len(vweights)
            vweights.append(int(wgraph.vweights[v]) + (
                int(wgraph.vweights[match[v]]) if match[v] != v else 0))
    merged = {}
    for v in range(n):
        for u, w in zip(wgraph.neighbors(v), _weights(wgraph, v)):
            a, b = mapping[v], mapping[int(u)]
            if a != b:
                merged[a, b] = merged.get((a, b), 0) + int(w)
    rows = sorted(merged)
    indptr = np.zeros(len(vweights) + 1, dtype=np.int64)
    for a, _ in rows:
        indptr[a + 1] += 1
    return (np.cumsum(indptr), [b for _, b in rows],
            [merged[r] for r in rows], vweights,
            [mapping[v] for v in range(n)])


class TestAgainstScalarReference:
    @COMMON
    @given(tying_wgraphs(), st.integers(0, 2**31 - 1),
           st.sampled_from([0.0, 0.05, 0.2, 0.5]))
    def test_fm_pass_makes_the_reference_moves(self, wg, seed, epsilon):
        n = wg.num_vertices
        side = np.random.default_rng(seed).integers(0, 2, n).astype(np.int64)
        total = wg.total_vertex_weight
        min_side_weight = int((0.5 - epsilon) * total)
        expected = side.copy()
        expected_flag = reference_fm_pass(wg, expected, total, min_side_weight)
        # up to 8 passes, like fm_refine: later passes start from states
        # the first one produced, where most gains are <= 0 and tie
        for _ in range(8):
            flag = _fm_pass(wg, _key_rows(wg), side, min_side_weight)
            assert flag == expected_flag
            assert np.array_equal(side, expected)
            if not flag:
                break
            expected_flag = reference_fm_pass(wg, expected, total,
                                              min_side_weight)

    @COMMON
    @given(heavy_wgraphs(), st.integers(0, 2**31 - 1),
           st.sampled_from([0.0, 0.05, 0.2, 0.45]))
    def test_fm_pass_with_wide_keys_makes_the_reference_moves(
            self, wg, seed, epsilon):
        n = wg.num_vertices
        side = np.random.default_rng(seed).integers(0, 2, n).astype(np.int64)
        total = wg.total_vertex_weight
        min_side_weight = int((0.5 - epsilon) * total)
        expected = side.copy()
        rows = _key_rows(wg)
        for _ in range(8):
            expected_flag = reference_fm_pass(wg, expected, total,
                                              min_side_weight)
            flag = _fm_pass(wg, rows, side, min_side_weight)
            assert flag == expected_flag
            assert np.array_equal(side, expected)
            if not flag:
                break

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fm_pass_stops_where_the_reference_stops(self, seed):
        """On 1 024 vertices from a random side, every pass of a
        ``fm_refine``-like run reaches its tail and stops early."""
        wg = WGraph.from_digraph(_social())
        n = wg.num_vertices
        side = np.random.default_rng(seed).integers(0, 2, n).astype(np.int64)
        total = wg.total_vertex_weight
        min_side_weight = int(0.45 * total)
        rows = _key_rows(wg)
        for _ in range(8):
            expected, made, drained = side.copy(), [], []
            # the unlimited pass moves every vertex balance does not lock
            reference_fm_pass(wg, side.copy(), total, min_side_weight,
                              n + 1, drained)
            expected_flag = reference_fm_pass(wg, expected, total,
                                              min_side_weight, FM_TAIL, made)
            assert _fm_pass(wg, rows, side, min_side_weight) == expected_flag
            assert np.array_equal(side, expected)
            assert len(made) < len(drained)
            if not expected_flag:
                break

    @COMMON
    @given(st.one_of(tying_wgraphs(), heavy_wgraphs()),
           st.integers(0, 2**31 - 1), st.sampled_from([0.0, 0.05, 0.2, 0.45]),
           st.integers(1, 5))
    def test_fm_pass_with_a_short_tail_makes_the_reference_moves(
            self, wg, seed, epsilon, limit):
        n = wg.num_vertices
        side = np.random.default_rng(seed).integers(0, 2, n).astype(np.int64)
        total = wg.total_vertex_weight
        min_side_weight = int((0.5 - epsilon) * total)
        expected = side.copy()
        rows = _key_rows(wg)
        with mock.patch.object(refine, "FM_TAIL", limit):
            for _ in range(8):
                before = side.copy()
                start_weight = np.bincount(before, weights=wg.vweights,
                                           minlength=2)
                expected_flag = reference_fm_pass(wg, expected, total,
                                                  min_side_weight, limit)
                flag = _fm_pass(wg, rows, side, min_side_weight)
                assert flag == expected_flag
                assert np.array_equal(side, expected)
                # never above the start cut, and a side only ever gives
                # weight away down to the floor
                assert weighted_cut(wg, side) <= weighted_cut(wg, before)
                weight = np.bincount(side, weights=wg.vweights, minlength=2)
                assert np.all(weight >= np.minimum(start_weight,
                                                   min_side_weight))
                if not flag:
                    break

    def test_keys_leave_int64_arrays_only_when_they_must(self):
        # n = 33 gives shift 6: keys of weighted degree 2^54 fit in 62 bits,
        # those of 2^55 do not
        edges = [(0, v) for v in range(1, 33)]
        fits = WGraph.from_edges(edges, 33, eweights=[2**49] * 32)
        wide = WGraph.from_edges(edges, 33, eweights=[2**50] * 32)
        assert not _key_rows(fits).wide
        assert _key_rows(wide).wide
        assert _key_rows(fits).dkey[0] == 2**50 << 6
        assert _key_rows(wide).dkey[0] == 2**51 << 6

    @COMMON
    @given(tying_wgraphs(), st.integers(0, 2**31 - 1))
    def test_gains_match_the_scalar_definition(self, wg, seed):
        side = np.random.default_rng(seed).integers(0, 2, wg.num_vertices)
        gains = _gains_and_cut(wg, side)[0]
        for v in range(wg.num_vertices):
            ext = sum(int(w) for u, w in zip(wg.neighbors(v),
                                             _weights(wg, v))
                      if side[u] != side[v])
            inn = sum(int(w) for u, w in zip(wg.neighbors(v),
                                             _weights(wg, v))
                      if side[u] == side[v])
            assert gains[v] == ext - inn

    @COMMON
    @given(tying_wgraphs(), st.integers(2, 5), st.integers(0, 2**31 - 1))
    def test_kway_move_is_the_reference_move(self, wg, num_parts, seed):
        rng = np.random.default_rng(seed)
        parts = rng.integers(0, num_parts, wg.num_vertices).astype(np.int64)
        weights = np.bincount(parts, weights=wg.vweights,
                              minlength=num_parts).astype(np.float64)
        target = weights.sum() / num_parts
        affinity = _affinity_table(wg, parts, num_parts)
        # replay the whole balancing run, move by move, from one start,
        # through the running tables
        for _ in range(4 * wg.num_vertices):
            heavy = int(np.argmax(weights))
            if weights[heavy] <= target:
                break
            expected = reference_best_move(wg, parts, weights, heavy, target)
            assert _best_move(wg, parts, affinity, weights, heavy,
                              target) == expected
            if expected is None:
                break
            vertex, dest = expected
            weights[heavy] -= wg.vweights[vertex]
            weights[dest] += wg.vweights[vertex]
            _apply_move(wg, parts, affinity, vertex, dest)
            assert np.array_equal(affinity,
                                  _affinity_table(wg, parts, num_parts))

    @COMMON
    @given(tying_wgraphs(), st.integers(2, 5), st.integers(0, 2**31 - 1),
           st.sampled_from([0.0, 0.05, 0.3]))
    def test_kway_run_is_the_reference_run(self, wg, num_parts, seed,
                                           tolerance):
        """``kway_refine_balance`` ends where the scalar moves end."""
        rng = np.random.default_rng(seed)
        start = rng.integers(0, num_parts, wg.num_vertices).astype(np.int64)
        parts = start.copy()
        weights = np.bincount(parts, weights=wg.vweights,
                              minlength=num_parts)
        target = weights.sum() / num_parts
        for _ in range(8 * wg.num_vertices):
            heavy = int(np.argmax(weights))
            if weights[heavy] <= (1.0 + tolerance) * target:
                break
            move = reference_best_move(wg, parts, weights, heavy, target)
            if move is None:
                break
            vertex, dest = move
            weights[heavy] -= wg.vweights[vertex]
            weights[dest] += wg.vweights[vertex]
            parts[vertex] = dest
        got = kway_refine_balance(wg, start, num_parts, tolerance=tolerance)
        assert np.array_equal(got, parts)

    @COMMON
    @given(tying_wgraphs(), st.integers(3, 5), st.integers(0, 2**31 - 1),
           st.integers(1, 6))
    def test_kway_move_breaks_ties_like_the_scan(self, wg, num_parts, seed,
                                                 excess):
        """Equal-weight destinations: only the scan order picks the winner."""
        rng = np.random.default_rng(seed)
        parts = rng.integers(0, num_parts, wg.num_vertices).astype(np.int64)
        heavy = int(rng.integers(num_parts))
        weights = np.full(num_parts, 10.0)
        weights[heavy] += excess
        affinity = _affinity_table(wg, parts, num_parts)
        expected = reference_best_move(wg, parts, weights, heavy, 10.0)
        assert _best_move(wg, parts, affinity, weights, heavy,
                          10.0) == expected


class TestContraction:
    @COMMON
    @given(st.integers(2, 40), st.data())
    def test_contraction_is_the_dict_summed_one(self, n, data):
        """Dense graphs, random (not necessarily adjacent) pairs: many
        fine arcs land on each coarse key."""
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges = sorted({(min(a, b), max(a, b))
                        for a, b in data.draw(st.lists(pair, max_size=6 * n))
                        if a != b})
        eweights = data.draw(st.lists(st.integers(1, 5), min_size=len(edges),
                                      max_size=len(edges)))
        vweights = data.draw(st.lists(st.integers(1, 4), min_size=n,
                                      max_size=n))
        wg = WGraph.from_edges(edges, n, eweights=eweights, vweights=vweights)
        order = data.draw(st.permutations(range(n)))
        num_pairs = data.draw(st.integers(0, n // 2))
        match = np.arange(n)
        for i in range(num_pairs):
            a, b = order[2 * i], order[2 * i + 1]
            match[a], match[b] = b, a
        coarse, mapping = contract_matching(wg, match)
        indptr, indices, weights, cweights, cmap = reference_contraction(
            wg, match)
        assert mapping.tolist() == cmap
        assert coarse.indptr.tolist() == indptr.tolist()
        assert coarse.indices.tolist() == indices
        assert coarse.eweights.tolist() == weights
        assert coarse.vweights.tolist() == cweights
        assert wgraph_is_symmetric(coarse)


class TestContractMatchingGuard:
    def test_rejects_a_match_that_is_not_an_involution(self):
        wg = WGraph.from_edges([(0, 1), (1, 2), (2, 3)], 4)
        with pytest.raises(PartitioningError, match="involution"):
            contract_matching(wg, np.array([1, 2, 1, 3]))

    def test_numbers_pairs_by_their_smaller_member(self):
        wg = WGraph.from_edges([(0, 3), (1, 2), (2, 3), (3, 4)], 5)
        coarse, mapping = contract_matching(wg, np.array([3, 1, 4, 0, 2]))
        assert mapping.tolist() == [0, 1, 2, 0, 2]
        assert coarse.vweights.tolist() == [2, 1, 2]

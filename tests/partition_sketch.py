"""The partition sketch (Section 4.1) and its three properties: the
reference the tests hold the recursive bisection and the bandwidth-aware
placement to.

The partition sketch is the balanced binary tree of the recursive bisection
process: the root is the whole data graph, each internal node's children
are the two halves of its bisection, leaves are the final partitions.
Partition ids encode root-to-leaf paths bit by bit
(:mod:`repro.partitioning.recursive`), so sketch nodes are simply id
prefixes.

This module computes ``C(n1, n2)`` — the number of cross edges between two
sketch nodes — and checks the paper's *monotonicity* and *proximity*
properties, which hold for ideal sketches and guide placement principles
P1–P3.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitioningError
from repro.graph.digraph import Graph
from repro.partitioning.metrics import validate_assignment
from repro.partitioning.recursive import (
    RecursivePartition,
    num_levels_for_parts,
)


def cut_matrix(graph: Graph, parts: np.ndarray, num_parts: int) -> np.ndarray:
    """``C[i, j]`` = number of directed edges from part ``i`` to part ``j``.

    The paper's ``C(n1, n2)`` between sketch nodes is the symmetrized sum
    ``C[i, j] + C[j, i]`` aggregated over each node's leaves.
    """
    parts = validate_assignment(parts, graph.num_vertices, num_parts)
    src_p = parts[graph.edge_sources()]
    dst_p = parts[graph.out_indices]
    mat = np.zeros((num_parts, num_parts), dtype=np.int64)
    np.add.at(mat, (src_p, dst_p), 1)
    return mat


def recorded_cut_at_level(rp: RecursivePartition, level: int) -> int:
    """``T_l`` from a bisection's recorded cuts: the cuts of all sketch
    nodes shallower than ``level``, which equals the number of
    cross-partition (weighted) edges when the graph is split into the
    ``2**level`` nodes of that depth."""
    return sum(cut for (lvl, _), cut in rp.node_cuts.items() if lvl < level)


class PartitionSketch:
    """Cross-edge structure of a recursive bisection of ``graph``."""

    def __init__(self, graph: Graph, parts: np.ndarray, num_parts: int):
        self.num_parts = num_parts
        self.num_levels = num_levels_for_parts(num_parts)
        self._leaf_cut = cut_matrix(graph, parts, num_parts)
        # symmetrize: C counts edges in either direction
        self._leaf_cut = self._leaf_cut + self._leaf_cut.T

    # ------------------------------------------------------------------
    def leaves_of(self, level: int, prefix: int) -> range:
        """Partition ids under sketch node ``(level, prefix)``."""
        if not 0 <= level <= self.num_levels:
            raise PartitioningError("sketch level out of range")
        if not 0 <= prefix < (1 << level):
            raise PartitioningError("sketch prefix out of range")
        span = 1 << (self.num_levels - level)
        return range(prefix * span, (prefix + 1) * span)

    def cross_edges(
        self, node_a: tuple[int, int], node_b: tuple[int, int]
    ) -> int:
        """``C(n1, n2)``: edges (either direction) between two nodes."""
        leaves_a = self.leaves_of(*node_a)
        leaves_b = self.leaves_of(*node_b)
        if set(leaves_a) & set(leaves_b):
            raise PartitioningError("sketch nodes overlap")
        block = self._leaf_cut[np.ix_(list(leaves_a), list(leaves_b))]
        return int(block.sum())

    def total_cut_at_level(self, level: int) -> int:
        """``T_l``: cross edges among the ``2**level`` nodes at ``level``."""
        if not 0 <= level <= self.num_levels:
            raise PartitioningError("sketch level out of range")
        total = 0
        for prefix_a in range(1 << level):
            for prefix_b in range(prefix_a + 1, 1 << level):
                total += self.cross_edges((level, prefix_a),
                                          (level, prefix_b))
        return total

    # ------------------------------------------------------------------
    def check_monotonicity(self) -> bool:
        """``T_i <= T_j`` for ``i <= j`` (always true structurally).

        Splitting nodes can only expose more cross edges, so monotonicity
        holds for *any* sketch; the check is kept as an invariant guard.
        """
        cuts = [self.total_cut_at_level(l) for l in range(self.num_levels + 1)]
        return all(a <= b for a, b in zip(cuts, cuts[1:]))

    def proximity_violations(self) -> list[tuple]:
        """Quadruples violating the proximity inequality.

        For sibling pairs ``(n1, n2)`` under ``p`` and ``(n3, n4)`` under
        ``p'`` where ``p`` and ``p'`` are siblings, proximity states
        ``C(n1,n2) + C(n3,n4) >= C(a,b) + C(c,d)`` for any re-pairing of
        the four nodes.  Ideal sketches satisfy it (Appendix C); real
        bisections may violate it slightly — the count quantifies how far
        from ideal a sketch is.
        """
        violations: list[tuple] = []
        for level in range(2, self.num_levels + 1):
            for gp in range(1 << (level - 2)):
                p_left, p_right = 2 * gp, 2 * gp + 1
                n1, n2 = (level, 2 * p_left), (level, 2 * p_left + 1)
                n3, n4 = (level, 2 * p_right), (level, 2 * p_right + 1)
                sibling_sum = (self.cross_edges(n1, n2)
                               + self.cross_edges(n3, n4))
                for pairing in (((n1, n3), (n2, n4)), ((n1, n4), (n2, n3))):
                    other = (self.cross_edges(*pairing[0])
                             + self.cross_edges(*pairing[1]))
                    if sibling_sum < other:
                        violations.append((level, gp, pairing,
                                           sibling_sum, other))
        return violations

    def proximity_holds(self) -> bool:
        return not self.proximity_violations()

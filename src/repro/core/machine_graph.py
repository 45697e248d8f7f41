"""The machine graph and its bandwidth-aware bisection (Section 4.2).

The machine graph is a complete undirected weighted graph: vertices are
machines, edge weights are pairwise network bandwidth.  The bandwidth-aware
partitioner bisects it minimizing the *weight of cross-partition edges*
(i.e. the aggregate bandwidth between the two halves) subject to equal
halves — so the widest cut in the data graph lands on the machine-set split
with the *least* connecting bandwidth... low-bandwidth boundaries (pod
boundaries) surface at the top of the recursion, keeping later, heavier
exchanges inside pods.

Machine counts are small (tens), so we bisect with multi-restart
Kernighan–Lin swaps, which finds the pod structure exactly on tree
topologies.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitioningError
from repro.cluster.topology import Topology

__all__ = ["MachineGraph", "bisect_machines"]


class MachineGraph:
    """Complete weighted graph over a subset of a topology's machines."""

    def __init__(self, topology: Topology, machines=None):
        self.topology = topology
        if machines is None:
            machines = range(topology.num_machines)
        self.machines = [int(m) for m in machines]
        if len(set(self.machines)) != len(self.machines):
            raise PartitioningError("machine list contains duplicates")
        for m in self.machines:
            topology.pod_of(m)  # raises TopologyError on a bad machine id
        idx = np.array(self.machines, dtype=np.int64)
        self.weights = topology.bandwidths[np.ix_(idx, idx)]
        np.fill_diagonal(self.weights, 0.0)

    @property
    def num_machines(self) -> int:
        return len(self.machines)

    def cut_weight(self, side: np.ndarray) -> float:
        """Aggregate bandwidth crossing a 0/1 split of local indices."""
        left = np.flatnonzero(side == 0)
        right = np.flatnonzero(side == 1)
        return float(self.weights[np.ix_(left, right)].sum())

    def max_aggregate_bandwidth_machine(self) -> int:
        """Global id of the machine with the largest total bandwidth.

        Used by Algorithm 4 when partitions run out before machines do
        (line 8: "select the machine with the maximum aggregated
        bandwidth").
        """
        totals = self.weights.sum(axis=1)
        return self.machines[int(np.argmax(totals))]


def bisect_machines(
    mgraph: MachineGraph, seed: int = 0, num_restarts: int = 8
) -> tuple[list[int], list[int]]:
    """Split machines into two equal halves minimizing crossing bandwidth.

    Returns ``(left, right)`` as lists of global machine ids.  Odd counts
    put the extra machine on the left.
    """
    n = mgraph.num_machines
    if n < 2:
        raise PartitioningError("need at least two machines to bisect")
    half = n // 2
    rng = np.random.default_rng(seed)
    best_side: np.ndarray | None = None
    best_cut = float("inf")
    for _ in range(max(1, num_restarts)):
        side = np.ones(n, dtype=np.int64)
        side[rng.permutation(n)[: n - half]] = 0
        side, cut = _kl_swaps(mgraph, side)
        if cut < best_cut:
            best_cut = cut
            best_side = side
    assert best_side is not None
    left = [mgraph.machines[i] for i in np.flatnonzero(best_side == 0)]
    right = [mgraph.machines[i] for i in np.flatnonzero(best_side == 1)]
    return left, right


def _kl_swaps(
    mgraph: MachineGraph, side: np.ndarray
) -> tuple[np.ndarray, float]:
    """Greedy pairwise-swap descent on the cut weight."""
    side = side.copy()
    weights = mgraph.weights
    cut = mgraph.cut_weight(side)
    improved = True
    while improved:
        improved = False
        left = np.flatnonzero(side == 0)
        right = np.flatnonzero(side == 1)
        best_gain = 1e-12  # require strictly positive gain
        best_pair: tuple[int, int] | None = None
        for i in left:
            # external/internal weight of i
            ei = weights[i, right].sum()
            ii = weights[i, left].sum() - weights[i, i]
            for j in right:
                ej = weights[j, left].sum()
                ij = weights[j, right].sum() - weights[j, j]
                gain = (ei - ii) + (ej - ij) - 2 * weights[i, j]
                if gain > best_gain:
                    best_gain = gain
                    best_pair = (int(i), int(j))
        if best_pair is not None:
            i, j = best_pair
            side[i], side[j] = 1, 0
            cut -= best_gain
            improved = True
    return side, mgraph.cut_weight(side)

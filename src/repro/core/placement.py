"""Load-balanced task placement over replica holders.

Surfer's job manager dispatches tasks to slaves holding a replica of the
input partition (Appendix B); with three-way GFS replication each
partition can run on any of three machines.  Starting from the
layout-chosen primaries, :func:`rebalance_placement` greedily relieves the
bottleneck machine by moving its partitions to their least-loaded replica
holders while the estimated makespan improves — the locality-preserving
load balancing every GFS-era scheduler performs.  The layout's co-location
structure survives except where a hot sibling pair would otherwise pin the
makespan.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.storage import PartitionStore
from repro.cluster.topology import Topology
from repro.errors import PlacementError

#: wire bytes of one cross-partition message in the placement cost model
MESSAGE_BYTES = 16.0
#: a network byte costs this many disk bytes' worth of time
NETWORK_FACTOR = 4.5

__all__ = [
    "rebalance_placement",
    "estimate_partition_costs",
    "partition_traffic_matrix",
    "refine_colocated_placement",
]


def estimate_partition_costs(
    pgraph,
    network_factor: float = NETWORK_FACTOR,
) -> np.ndarray:
    """Rough per-partition task cost in disk-byte-equivalent units.

    Sums the partition's adjacency footprint, its edge work, and its
    expected network occupancy: every cross-partition edge incident to the
    partition moves roughly one message, and a network byte costs
    ``network_factor`` disk bytes' worth of time.  The network term is
    what lets the dispatcher split *hot* partition pairs whose traffic
    goes everywhere (hub partitions) instead of stacking them on one
    machine.
    """
    costs = np.zeros(pgraph.num_parts, dtype=np.float64)
    out_cross, in_cross = pgraph.cross_partition_counts()
    for p in range(pgraph.num_parts):
        local = (pgraph.partition_bytes(p)
                 + 8.0 * pgraph.partition_edge_count(p))
        network = (network_factor * MESSAGE_BYTES
                   * float(out_cross[p] + in_cross[p]))
        costs[p] = local + network
    return costs


def rebalance_placement(
    store: PartitionStore,
    costs: np.ndarray,
    fetch_costs: np.ndarray | None = None,
) -> np.ndarray:
    """Assignment ``partition -> machine`` with bottleneck relief.

    Iteratively moves a partition off the most-loaded machine whenever
    that strictly lowers the maximum machine load.  Replica holders are
    free targets; any other machine is allowed at a *non-local* penalty of
    ``fetch_costs[p]`` (the partition must be pulled over the network —
    Hadoop-style non-local task execution).  With ``fetch_costs=None``
    only replica holders are considered.
    """
    costs = np.asarray(costs, dtype=np.float64)
    if costs.shape != (store.num_partitions,):
        raise PlacementError("costs must have one entry per partition")
    if fetch_costs is not None:
        fetch_costs = np.asarray(fetch_costs, dtype=np.float64)
        if fetch_costs.shape != costs.shape:
            raise PlacementError("fetch_costs must align with costs")
    assignment = store.placement_array().copy()
    effective = costs.copy()  # cost of each partition where it now runs
    load = np.zeros(store.num_machines)
    for p, m in enumerate(assignment):
        load[m] += costs[p]
    for _ in range(4 * store.num_partitions):
        bottleneck = int(np.argmax(load))
        best_move: tuple[int, int, float] | None = None
        best_new_max = load[bottleneck]
        for p in np.flatnonzero(assignment == bottleneck):
            p = int(p)
            replicas = set(store.replicas(p))
            if fetch_costs is None:
                candidates: list[int] = sorted(replicas)
            else:
                candidates = list(range(store.num_machines))
            for candidate in candidates:
                if candidate == bottleneck:
                    continue
                cost_there = costs[p] + (
                    0.0 if candidate in replicas or fetch_costs is None
                    else float(fetch_costs[p])
                )
                new_src = load[bottleneck] - effective[p]
                new_dst = load[candidate] + cost_there
                new_max = max(new_src, new_dst)
                if new_max < best_new_max - 1e-9:
                    best_new_max = new_max
                    best_move = (p, candidate, cost_there)
        if best_move is None:
            break
        p, dst, cost_there = best_move
        load[assignment[p]] -= effective[p]
        load[dst] += cost_there
        effective[p] = cost_there
        assignment[p] = dst
    return assignment


def partition_traffic_matrix(pgraph) -> np.ndarray:
    """Symmetric estimate of inter-partition traffic in bytes.

    ``T[p, q]`` counts edges between partitions ``p`` and ``q`` in either
    direction times the per-message wire size — the volume that crosses
    the network when the two partitions sit on different machines.
    """
    mat = pgraph.cross_traffic_counts() * MESSAGE_BYTES
    return mat + mat.T


def refine_colocated_placement(
    pgraph,
    placement: np.ndarray,
    topology: Topology,
) -> np.ndarray:
    """Relieve placement stragglers by intra-pod partition swaps.

    The sketch-driven placement co-locates sibling partitions, which is
    right when sibling traffic dominates (proximity) but stacks *hub*
    partitions — whose traffic is spread over the whole graph — onto one
    machine.  Swapping two partitions between machines *in the same pod*
    does not disturb any bandwidth-critical (cross-pod) decision, so we
    greedily swap the bottleneck machine's partitions with lighter
    partners when that lowers the two machines' worse load.  The load
    model prices both local work and the network traffic of non-co-located
    neighbors, so well-matched sibling pairs are never split.
    """
    placement = np.asarray(placement, dtype=np.int64).copy()
    num_parts = pgraph.num_parts
    local = estimate_partition_costs(pgraph, network_factor=0.0)
    traffic = partition_traffic_matrix(pgraph)
    pods = topology.pods
    # Per-machine network slowdown relative to the cluster's typical pair
    # (heterogeneous clusters: a slow NIC doubles that machine's network
    # time, so hot partitions should drift towards fast machines).
    off_diagonal = ~np.eye(topology.num_machines, dtype=bool)
    best_peer = np.where(off_diagonal, topology.bandwidths, 0.0).max(
        axis=1) if topology.num_machines > 1 else np.ones(1)
    penalty = best_peer.max() / np.maximum(best_peer, 1e-12)

    def loads(plc: np.ndarray) -> np.ndarray:
        out = np.zeros(topology.num_machines)
        np.add.at(out, plc, local)
        same = plc[:, None] == plc[None, :]
        remote_traffic = np.where(same, 0.0, traffic).sum(axis=1)
        np.add.at(out, plc,
                  NETWORK_FACTOR * penalty[plc] * remote_traffic)
        return out

    current = loads(placement)
    for _ in range(4 * num_parts):
        bottleneck = int(np.argmax(current))
        pod = pods[bottleneck]
        best_placement: np.ndarray | None = None
        best_pair_max = current[bottleneck]
        for p in np.flatnonzero(placement == bottleneck):
            p = int(p)
            for other in np.flatnonzero(pods == pod):
                other = int(other)
                if other == bottleneck:
                    continue
                swaps: list[int | None] = list(
                    int(q) for q in np.flatnonzero(placement == other)
                )
                swaps.append(None)  # plain move, no swap back
                for q in swaps:
                    trial = placement.copy()
                    trial[p] = other
                    if q is not None:
                        trial[q] = bottleneck
                    new = loads(trial)
                    pair_max = max(new[bottleneck], new[other])
                    if pair_max < best_pair_max - 1e-9:
                        best_pair_max = pair_max
                        best_placement = trial
        if best_placement is None:
            break
        placement = best_placement
        current = loads(placement)
    return placement

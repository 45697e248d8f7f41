"""Bandwidth-aware graph partitioning and placement (Algorithm 4).

``BAPart`` simultaneously recursively bisects the data graph and the
machine graph, mapping each sketch node of the data graph onto a machine
set whose internal bandwidth matches the node's cross-edge intensity
(design principles P1–P3):

* the top-level data cut — the widest one — lands on the machine-graph cut
  with the *lowest* aggregate bandwidth (the pod boundary), so all finer,
  heavier exchanges stay inside pods;
* sibling partitions (largest mutual cross-edge counts, by proximity) end
  up co-located on a machine or inside a pod.

The data-graph bisections themselves don't depend on which machines execute
them — only the elapsed time does (modeled in
:mod:`repro.core.partition_cost`) — so we compute the data sketch once with
:func:`~repro.partitioning.recursive.recursive_bisection` and derive the
placement by walking the data and machine sketches in lock step, which is
exactly the mapping Algorithm 4 produces.

The ParMetis-like baseline (:func:`oblivious_partition`) produces the same
data partitions but assigns machines randomly, blind to bandwidth — the
paper's description of ParMetis in the cloud.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import PartitioningError
from repro.cluster.topology import Topology
from repro.core.machine_graph import MachineGraph, bisect_machines
from repro.graph.digraph import Graph
from repro.partitioning.recursive import (
    RecursivePartition,
    num_levels_for_parts,
    recursive_bisection,
)
from repro.partitioning.wgraph import WGraph

__all__ = [
    "PartitionPlan",
    "build_machine_tree",
    "random_machine_tree",
    "bandwidth_aware_partition",
    "oblivious_partition",
]


@dataclass
class PartitionPlan:
    """A partitioned data graph plus its machine placement.

    ``parts[v]`` — partition of vertex ``v`` (bit-path ids, see
    :mod:`repro.partitioning.recursive`); ``placement[p]`` — machine whose
    primary replica holds partition ``p``; ``machine_sets[(level, prefix)]``
    — the machines responsible for that sketch node during partitioning
    (drives the elapsed-time model of Table 1).
    """

    parts: np.ndarray
    num_parts: int
    placement: np.ndarray
    machine_sets: dict[tuple[int, int], list[int]]
    node_cuts: dict[tuple[int, int], int] = field(default_factory=dict)
    node_sizes: dict[tuple[int, int], int] = field(default_factory=dict)
    method: str = "bandwidth-aware"

    @property
    def num_levels(self) -> int:
        return num_levels_for_parts(self.num_parts)


def build_machine_tree(
    topology: Topology,
    num_levels: int,
    seed: int = 0,
) -> dict[tuple[int, int], list[int]]:
    """Recursive bandwidth-aware bisection of the machine graph.

    Returns ``machine_sets[(level, prefix)] -> machine list`` down to
    ``num_levels``.  Once a set reaches a single machine, all deeper nodes
    under it inherit that machine (Algorithm 4 lines 2–5).  If a set still
    has several machines at the leaf level, the member with the maximum
    aggregate bandwidth is kept (lines 7–9).
    """
    mgraph = MachineGraph(topology)
    sets: dict[tuple[int, int], list[int]] = {}

    def recurse(machine_ids: list[int], level: int, prefix: int) -> None:
        sets[(level, prefix)] = list(machine_ids)
        if level == num_levels:
            return
        if len(machine_ids) == 1:
            recurse(machine_ids, level + 1, 2 * prefix)
            recurse(machine_ids, level + 1, 2 * prefix + 1)
            return
        sub = MachineGraph(topology, machine_ids)
        left, right = bisect_machines(sub, seed=seed + level)
        recurse(left, level + 1, 2 * prefix)
        recurse(right, level + 1, 2 * prefix + 1)

    recurse(list(mgraph.machines), 0, 0)
    # collapse multi-machine leaves to the max-aggregate-bandwidth member
    for prefix in range(1 << num_levels):
        leaf = sets[(num_levels, prefix)]
        if len(leaf) > 1:
            sub = MachineGraph(topology, leaf)
            sets[(num_levels, prefix)] = [sub.max_aggregate_bandwidth_machine()]
    return sets


def random_machine_tree(
    topology: Topology,
    num_levels: int,
    seed: int = 0,
) -> dict[tuple[int, int], list[int]]:
    """Bandwidth-oblivious machine tree: random balanced splits.

    Models ParMetis "randomly choosing the available machine" — the machine
    sets at every level ignore the topology.
    """
    machines = list(range(topology.num_machines))
    rng = np.random.default_rng(seed)
    sets: dict[tuple[int, int], list[int]] = {}

    def recurse(machine_ids: list[int], level: int, prefix: int) -> None:
        sets[(level, prefix)] = list(machine_ids)
        if level == num_levels:
            if len(machine_ids) > 1:
                sets[(level, prefix)] = [
                    machine_ids[int(rng.integers(len(machine_ids)))]
                ]
            return
        if len(machine_ids) == 1:
            recurse(machine_ids, level + 1, 2 * prefix)
            recurse(machine_ids, level + 1, 2 * prefix + 1)
            return
        shuffled = list(machine_ids)
        rng.shuffle(shuffled)
        half = len(shuffled) // 2 + (len(shuffled) % 2)
        recurse(shuffled[:half], level + 1, 2 * prefix)
        recurse(shuffled[half:], level + 1, 2 * prefix + 1)

    recurse(machines, 0, 0)
    return sets


def _subtree_intensity(
    data: RecursivePartition, level: int, prefix: int
) -> int:
    """Total bisection-cut weight inside a data sketch subtree.

    A proxy for the communication the subtree's partitions will exchange
    among themselves while processing.
    """
    if level >= data.num_levels:
        return 0
    total = data.node_cuts.get((level, prefix), 0)
    total += _subtree_intensity(data, level + 1, 2 * prefix)
    total += _subtree_intensity(data, level + 1, 2 * prefix + 1)
    return total


def _internal_bandwidth(topology: Topology, machines: list[int]) -> float:
    """Aggregate pairwise bandwidth inside a machine set."""
    bandwidths = topology.bandwidths
    total = 0.0
    for i, a in enumerate(machines):
        for b in machines[i + 1:]:
            total += float(bandwidths[a, b])
    return total


def _plan_from_tree(
    data: RecursivePartition,
    machine_sets: dict[tuple[int, int], list[int]],
    method: str,
    topology: Topology | None = None,
) -> PartitionPlan:
    """Map the data sketch onto the machine sketch.

    With a ``topology``, each node's two data children are matched to the
    two machine children by rank: the child with the heavier internal
    communication gets the machine set with the higher internal bandwidth
    (design principle P1 — e.g. on heterogeneous clusters the hot half of
    the graph lands on the fast half of the machines).  Without a
    topology the trees are walked in index order.
    """
    num_levels = data.num_levels
    placement = np.zeros(data.num_parts, dtype=np.int64)
    mapped_sets: dict[tuple[int, int], list[int]] = {}

    def walk(level: int, data_prefix: int, machine_prefix: int) -> None:
        mapped_sets[(level, data_prefix)] = machine_sets[
            (level, machine_prefix)
        ]
        if level == num_levels:
            leaf = machine_sets[(level, machine_prefix)]
            if len(leaf) != 1:
                raise PartitioningError("machine tree leaf not collapsed")
            placement[data_prefix] = leaf[0]
            return
        d0, d1 = 2 * data_prefix, 2 * data_prefix + 1
        m0, m1 = 2 * machine_prefix, 2 * machine_prefix + 1
        if topology is not None:
            heat0 = _subtree_intensity(data, level + 1, d0)
            heat1 = _subtree_intensity(data, level + 1, d1)
            bw0 = _internal_bandwidth(topology,
                                      machine_sets[(level + 1, m0)])
            bw1 = _internal_bandwidth(topology,
                                      machine_sets[(level + 1, m1)])
            if (heat0 - heat1) * (bw0 - bw1) < 0:
                m0, m1 = m1, m0
        walk(level + 1, d0, m0)
        walk(level + 1, d1, m1)

    walk(0, 0, 0)
    return PartitionPlan(
        parts=data.parts,
        num_parts=data.num_parts,
        placement=placement,
        machine_sets=mapped_sets,
        node_cuts=dict(data.node_cuts),
        node_sizes=dict(data.node_sizes),
        method=method,
    )


def bandwidth_aware_partition(
    graph: Graph | WGraph,
    topology: Topology,
    num_parts: int,
    seed: int = 0,
    data: RecursivePartition | None = None,
) -> PartitionPlan:
    """Partition ``graph`` into ``num_parts`` with bandwidth-aware placement.

    ``data`` lets callers reuse a precomputed recursive bisection (the
    data-graph cut does not depend on the topology, only the placement
    does).
    """
    if data is None:
        wgraph = (graph if isinstance(graph, WGraph)
                  else WGraph.from_digraph(graph))
        data = recursive_bisection(wgraph, num_parts, seed=seed)
    machine_sets = build_machine_tree(topology, data.num_levels, seed=seed)
    return _plan_from_tree(data, machine_sets, "bandwidth-aware",
                           topology=topology)


def oblivious_partition(
    graph: Graph | WGraph,
    topology: Topology,
    num_parts: int,
    seed: int = 0,
    data: RecursivePartition | None = None,
) -> PartitionPlan:
    """Same data partitions, bandwidth-oblivious (ParMetis-like) placement.

    The cut quality equals the bandwidth-aware plan's (same multilevel
    bisections); what differs is machine use: partitions are *scattered* —
    each assigned to a uniformly random machine (balanced round-robin over
    a shuffled machine list), so sibling partitions land on unrelated
    machines, exactly the "ParMetis randomly chooses the available
    machine" behaviour the paper contrasts against.  The machine sets used
    for the elapsed-time model are likewise random splits.
    """
    if data is None:
        wgraph = (graph if isinstance(graph, WGraph)
                  else WGraph.from_digraph(graph))
        data = recursive_bisection(wgraph, num_parts, seed=seed)
    machine_sets = random_machine_tree(topology, data.num_levels, seed=seed)
    rng = np.random.default_rng(seed + 7)
    machines = rng.permutation(topology.num_machines)
    order = rng.permutation(num_parts)
    placement = np.zeros(num_parts, dtype=np.int64)
    for slot, pid in enumerate(order):
        placement[pid] = machines[slot % machines.size]
    plan = _plan_from_tree(data, machine_sets, "oblivious")
    plan.placement = placement
    return plan

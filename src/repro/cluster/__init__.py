"""Cloud-cluster simulator substrate: topologies, network, machines, faults."""

from repro.cluster.spec import DEFAULT_MACHINE, GIGABIT_BPS, MachineSpec
from repro.cluster.topology import (
    FlatTopology,
    HeterogeneousTopology,
    Topology,
    TreeTopology,
    t1,
    t2,
    t3,
)
from repro.cluster.network import NetworkModel, TrafficCounter
from repro.cluster.machine import MachineState
from repro.cluster.cluster import Cluster, ClusterMetrics, partitions_for_memory
from repro.cluster.storage import PartitionStore
from repro.cluster.faults import (
    FaultPlan,
    MachineKill,
    Outage,
    Slowdown,
    TransientFault,
)

__all__ = [
    "DEFAULT_MACHINE",
    "GIGABIT_BPS",
    "MachineSpec",
    "FlatTopology",
    "HeterogeneousTopology",
    "Topology",
    "TreeTopology",
    "t1",
    "t2",
    "t3",
    "NetworkModel",
    "TrafficCounter",
    "MachineState",
    "Cluster",
    "ClusterMetrics",
    "partitions_for_memory",
    "PartitionStore",
    "FaultPlan",
    "MachineKill",
    "Outage",
    "Slowdown",
    "TransientFault",
]

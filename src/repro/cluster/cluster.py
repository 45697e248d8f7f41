"""Cluster facade: machines + network, metrics, partition-count rule.

A :class:`Cluster` is the substrate every engine runs on.  It owns one
:class:`~repro.cluster.machine.MachineState` per machine and a
:class:`~repro.cluster.network.NetworkModel` over the chosen topology, and
exposes the aggregate metrics the paper reports: response time (makespan),
total machine time, total network I/O, total disk I/O.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import TopologyError
from repro.cluster.machine import MachineState
from repro.cluster.network import NetworkModel
from repro.cluster.spec import DEFAULT_MACHINE, MachineSpec
from repro.cluster.topology import FlatTopology, Topology

__all__ = ["Cluster", "ClusterMetrics", "partitions_for_memory"]


@dataclass(frozen=True)
class ClusterMetrics:
    """Aggregate metrics of everything run on a cluster since last reset."""

    response_time: float
    total_machine_time: float
    network_bytes: int
    disk_read_bytes: int
    disk_write_bytes: int
    #: bytes copied in the background to restore lost replicas (included
    #: in ``network_bytes`` — re-replication is real traffic on the wire)
    re_replication_bytes: int = 0

    @property
    def disk_bytes(self) -> int:
        """Total disk I/O (read + write), the paper's 'Disk' column."""
        return self.disk_read_bytes + self.disk_write_bytes


def partitions_for_memory(graph_bytes: int, memory_bytes: int) -> int:
    """The paper's partition-count rule ``P = 2**ceil(log2(||G|| / r))``.

    Returns at least 1 (a graph that already fits in memory needs a single
    partition).
    """
    if graph_bytes <= 0 or memory_bytes <= 0:
        raise TopologyError("sizes must be positive")
    ratio = graph_bytes / memory_bytes
    if ratio <= 1.0:
        return 1
    return 2 ** math.ceil(math.log2(ratio))


class Cluster:
    """A set of simulated machines connected by a topology."""

    def __init__(
        self,
        topology: Topology | None = None,
        num_machines: int | None = None,
        machine_spec: MachineSpec = DEFAULT_MACHINE,
    ):
        if topology is None:
            topology = FlatTopology(num_machines or 32)
        elif num_machines is not None and num_machines != topology.num_machines:
            raise TopologyError(
                "num_machines conflicts with the topology's machine count"
            )
        self.topology = topology
        self.machine_spec = machine_spec
        self.network = NetworkModel(topology)
        self.machines = [
            MachineState(i, machine_spec)
            for i in range(topology.num_machines)
        ]

    # ------------------------------------------------------------------
    @property
    def num_machines(self) -> int:
        return self.topology.num_machines

    def machine(self, machine_id: int) -> MachineState:
        if not 0 <= machine_id < self.num_machines:
            raise TopologyError(f"unknown machine {machine_id}")
        return self.machines[machine_id]

    def alive_machines(self) -> list[int]:
        return [m.machine_id for m in self.machines if m.alive]

    # ------------------------------------------------------------------
    def metrics(self) -> ClusterMetrics:
        """Snapshot the aggregate metrics accumulated so far."""
        return ClusterMetrics(
            response_time=max((m.clock for m in self.machines), default=0.0),
            total_machine_time=sum(m.busy_time for m in self.machines),
            network_bytes=self.network.traffic.total_bytes,
            disk_read_bytes=sum(m.disk_read_bytes for m in self.machines),
            disk_write_bytes=sum(m.disk_write_bytes for m in self.machines),
            re_replication_bytes=self.network.traffic.background_bytes,
        )

    def reset(self) -> None:
        """Zero all clocks and counters for a fresh run."""
        for m in self.machines:
            m.reset()
        self.network.reset()

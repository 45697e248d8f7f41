"""The paper's contribution: bandwidth-aware partitioning and Surfer."""

from repro.core.machine_graph import MachineGraph, bisect_machines
from repro.core.bandwidth_aware import (
    PartitionPlan,
    bandwidth_aware_partition,
    build_machine_tree,
    oblivious_partition,
    random_machine_tree,
)
from repro.core.partitioned import PartitionedGraph, VertexEncoding
from repro.core.persist import load_plan, save_plan
from repro.core.placement import (
    estimate_partition_costs,
    partition_traffic_matrix,
    rebalance_placement,
    refine_colocated_placement,
)
from repro.core.partition_cost import (
    PartitioningCostModel,
    PartitioningCostReport,
    simulate_partitioning_time,
)
from repro.core.surfer import (
    ALL_LEVELS,
    O1,
    O2,
    O3,
    O4,
    JobResult,
    OptimizationLevel,
    Surfer,
    default_num_parts,
)

__all__ = [
    "MachineGraph",
    "bisect_machines",
    "PartitionPlan",
    "bandwidth_aware_partition",
    "build_machine_tree",
    "oblivious_partition",
    "random_machine_tree",
    "PartitionedGraph",
    "VertexEncoding",
    "load_plan",
    "save_plan",
    "estimate_partition_costs",
    "partition_traffic_matrix",
    "rebalance_placement",
    "refine_colocated_placement",
    "PartitioningCostModel",
    "PartitioningCostReport",
    "simulate_partitioning_time",
    "ALL_LEVELS",
    "O1",
    "O2",
    "O3",
    "O4",
    "JobResult",
    "OptimizationLevel",
    "Surfer",
    "default_num_parts",
]

"""repro — reproduction of Surfer, "Large Graph Processing in the Cloud".

Public API highlights:

* :mod:`repro.graph` — CSR digraphs, generators, the shard store, oracles.
* :mod:`repro.partitioning` — from-scratch multilevel partitioner.
* :mod:`repro.cluster` — deterministic cloud-cluster simulator (T1/T2/T3).
* :mod:`repro.core` — bandwidth-aware partitioning and placement, the
  partitioned graph, the Surfer engine facade.
* :mod:`repro.propagation` — the transfer/combine primitive with the
  O1–O4 optimization levels and cascaded multi-iteration execution.
* :mod:`repro.mapreduce` — the home-grown MapReduce comparison primitive.
* :mod:`repro.apps` — NR, RS, TC, VDD, RLG, TFL in both primitives.
* :mod:`repro.bench` — workloads and the per-table/figure experiments.
"""

__version__ = "1.0.0"

from repro.errors import (
    FaultInjectionError,
    GraphError,
    GraphFormatError,
    JobError,
    PartitioningError,
    PlacementError,
    SchedulingError,
    SurferError,
    TopologyError,
)

__all__ = [
    "__version__",
    "SurferError",
    "GraphError",
    "GraphFormatError",
    "PartitioningError",
    "TopologyError",
    "PlacementError",
    "SchedulingError",
    "JobError",
    "FaultInjectionError",
]

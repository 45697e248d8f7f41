"""Multilevel graph-partitioning substrate (Metis-like, from scratch)."""

from repro.partitioning.wgraph import WGraph
from repro.partitioning.matching import heavy_edge_matching
from repro.partitioning.coarsen import (
    CoarseningLevel,
    coarsen_until,
    contract_matching,
)
from repro.partitioning.ggp import gggp_bisection, random_bisection
from repro.partitioning.refine import fm_refine
from repro.partitioning.bisect import (
    BisectionOptions,
    BisectionResult,
    multilevel_bisection,
)
from repro.partitioning.recursive import (
    RecursivePartition,
    num_levels_for_parts,
    recursive_bisection,
)
from repro.partitioning.baselines import random_partition
from repro.partitioning.metrics import (
    balance,
    edge_cut,
    inner_edge_ratio,
    partition_sizes,
    validate_assignment,
    weighted_cut,
)

__all__ = [
    "WGraph",
    "heavy_edge_matching",
    "CoarseningLevel",
    "coarsen_until",
    "contract_matching",
    "gggp_bisection",
    "random_bisection",
    "fm_refine",
    "BisectionOptions",
    "BisectionResult",
    "multilevel_bisection",
    "RecursivePartition",
    "num_levels_for_parts",
    "recursive_bisection",
    "random_partition",
    "balance",
    "edge_cut",
    "inner_edge_ratio",
    "partition_sizes",
    "validate_assignment",
    "weighted_cut",
]

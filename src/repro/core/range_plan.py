"""Contiguous-range partition plans for out-of-core graphs.

The recursive-bisection partitioners need the whole (weighted) edge set
in memory, which defeats the shard store's O(shard) bound.  For XL runs
we instead partition by *contiguous vertex ranges* — exactly the layout
the shard store already has on disk.  When the plan's ranges equal the
store's shard boundaries, partition ``p`` **is** shard ``p``: loading a
partition is a zero-copy memmap view and no per-edge relabeling exists
anywhere in the pipeline.

The result is an ordinary :class:`PartitionPlan`:
:class:`~repro.core.partitioned.PartitionedGraph` sees that each
partition's ids are consecutive and serves CSR slices, so the plan needs
no field of its own and round-trips through ``save_plan``.

Placement still goes through the bandwidth-aware machine tree
(:func:`~repro.core.bandwidth_aware.build_machine_tree`): partition
prefixes map onto machine-tree leaves in index order, so sibling ranges
— which share the most cross edges under any locality-preserving vertex
order — land on bandwidth-close machines, same as the sketch-driven
plans.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.topology import Topology
from repro.core.bandwidth_aware import PartitionPlan, build_machine_tree
from repro.errors import PartitioningError
from repro.graph.digraph import Graph, balanced_offsets, covers_range
from repro.partitioning.recursive import num_levels_for_parts

__all__ = ["contiguous_range_plan"]


def contiguous_range_plan(
    graph: Graph,
    topology: Topology,
    num_parts: int,
    seed: int = 0,
    offsets: np.ndarray | None = None,
) -> PartitionPlan:
    """Partition ``graph`` into contiguous ranges with tree placement.

    ``offsets`` pins the boundaries (pass the shard store's
    ``vertex_starts`` so partitions alias shards); the default is
    edge-balanced boundaries from the indptr prefix sums.  ``num_parts``
    must be a power of two, like every plan in this repo.
    """
    if num_parts < 1:
        raise PartitioningError("num_parts must be positive")
    num_levels = num_levels_for_parts(num_parts)
    if 1 << num_levels != num_parts:
        raise PartitioningError("num_parts must be a power of two")
    if offsets is None:
        offsets = balanced_offsets(graph.out_indptr, num_parts)
    else:
        offsets = np.asarray(offsets, dtype=np.int64)
        if not covers_range(offsets, num_parts, graph.num_vertices):
            raise PartitioningError(
                "offsets must be P+1 boundaries covering [0, n]")
    machine_sets = build_machine_tree(topology, num_levels, seed=seed)
    placement = np.zeros(num_parts, dtype=np.int64)
    for p in range(num_parts):
        leaf = machine_sets[(num_levels, p)]
        if len(leaf) != 1:
            raise PartitioningError("machine tree leaf not collapsed")
        placement[p] = leaf[0]
    parts = np.repeat(np.arange(num_parts, dtype=np.int64),
                      np.diff(offsets))
    return PartitionPlan(
        parts=parts,
        num_parts=num_parts,
        placement=placement,
        machine_sets=machine_sets,
        method="contiguous-range",
    )

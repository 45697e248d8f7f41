"""The structure-oblivious partitioner used as a baseline.

Random partitioning is the sanity baseline of Table 5: it balances sizes
but ignores the graph structure entirely.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitioningError
from repro.graph.digraph import Graph

__all__ = ["random_partition"]


def random_partition(graph: Graph, num_parts: int, seed: int = 0) -> np.ndarray:
    """Balanced uniform-random assignment (Table 5's 'random partitioning')."""
    if num_parts <= 0:
        raise PartitioningError("num_parts must be positive")
    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    # deal vertices round-robin onto a shuffled order for exact balance
    parts = np.arange(n, dtype=np.int64) % num_parts
    rng.shuffle(parts)
    return parts

"""Multilevel graph bisection.

The full pipeline of Appendix A.2 / Figure 8: *coarsen* the graph with
heavy-edge matching until it is small, *partition* the coarsest graph with
GGGP, then *uncoarsen*, projecting the bisection back level by level with FM
refinement at each level.  This is the building block both the
bandwidth-aware partitioner and the oblivious (ParMetis-like) baseline call
recursively.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import PartitioningError
from repro.partitioning.coarsen import coarsen_until
from repro.partitioning.ggp import gggp_bisection, random_bisection
from repro.partitioning.metrics import weighted_cut
from repro.partitioning.refine import check_epsilon, fm_refine
from repro.partitioning.wgraph import WGraph

__all__ = ["BisectionOptions", "BisectionResult", "multilevel_bisection"]


@dataclass(frozen=True)
class BisectionOptions:
    """Tuning knobs for one multilevel bisection.

    ``coarsest_size``: stop coarsening at this many vertices.
    ``epsilon``: balance tolerance for refinement.
    ``gggp_trials``: growth attempts on the coarsest graph.
    ``refine``: disable to measure the FM ablation.
    ``initial``: ``"gggp"`` or ``"random"`` (ablation baseline).
    """

    coarsest_size: int = 64
    epsilon: float = 0.05
    gggp_trials: int = 4
    refine: bool = True
    initial: str = "gggp"
    max_passes: int = 8

    def __post_init__(self) -> None:
        if self.initial not in ("gggp", "random"):
            raise PartitioningError(
                f"initial must be 'gggp' or 'random', got {self.initial!r}")
        check_epsilon(self.epsilon)
        if self.gggp_trials < 1:
            raise PartitioningError(
                f"gggp_trials must be >= 1, got {self.gggp_trials!r}")
        if self.max_passes < 0:
            raise PartitioningError(
                f"max_passes must be >= 0, got {self.max_passes!r}")


@dataclass
class BisectionResult:
    """Outcome of a multilevel bisection."""

    side: np.ndarray
    cut: int
    num_levels: int
    coarsest_vertices: int
    stats: dict = field(default_factory=dict)


def multilevel_bisection(
    wgraph: WGraph,
    rng: np.random.Generator,
    options: BisectionOptions | None = None,
) -> BisectionResult:
    """Bisect ``wgraph`` with the multilevel scheme; 0/1 side per vertex."""
    options = options or BisectionOptions()
    n = wgraph.num_vertices
    if n == 0:
        return BisectionResult(np.zeros(0, dtype=np.int64), 0, 0, 0)
    if n == 1:
        return BisectionResult(np.zeros(1, dtype=np.int64), 0, 0, 1)

    levels = coarsen_until(wgraph, options.coarsest_size, rng)
    coarsest = levels[-1].coarse if levels else wgraph

    if options.initial == "random":
        side = random_bisection(coarsest, rng)
    else:
        side = gggp_bisection(coarsest, rng, num_trials=options.gggp_trials)
    if options.refine:
        side = fm_refine(coarsest, side, epsilon=options.epsilon,
                         max_passes=options.max_passes)

    for level in reversed(levels):
        side = level.project(side)
        if options.refine:
            side = fm_refine(level.fine, side, epsilon=options.epsilon,
                             max_passes=options.max_passes)

    cut = weighted_cut(wgraph, side)
    return BisectionResult(
        side=side,
        cut=cut,
        num_levels=len(levels),
        coarsest_vertices=coarsest.num_vertices,
        stats={"coarsest_edges": coarsest.num_edges},
    )

"""The paper's six applications, each in both primitives.

``APP_REGISTRY`` maps the paper's short names to ``(propagation class,
mapreduce class, default iterations)``; the benchmark harness iterates it
to regenerate Tables 2–4 and Figure 7.  :func:`make_app` is the one place
a job named by ``(app, engine)`` becomes an instance with its default
step count — every launcher (the CLI, chaos sweeps, the experiment
registry) resolves through it.
"""

from repro.errors import JobError
from repro.apps.base import VertexState, sample_mask
from repro.apps.network_ranking import (
    NetworkRankingMapReduce,
    NetworkRankingPropagation,
)
from repro.apps.recommender import (
    RecommenderMapReduce,
    RecommenderPropagation,
    accepts,
)
from repro.apps.triangle_counting import (
    TriangleCountingMapReduce,
    TriangleCountingPropagation,
)
from repro.apps.degree_distribution import (
    DegreeDistributionMapReduce,
    DegreeDistributionPropagation,
)
from repro.apps.reverse_link_graph import (
    ReverseLinkGraphMapReduce,
    ReverseLinkGraphPropagation,
)
from repro.apps.two_hop_friends import (
    TwoHopFriendsMapReduce,
    TwoHopFriendsPropagation,
)
from repro.apps.connected_components import (
    ConnectedComponentsMapReduce,
    ConnectedComponentsPropagation,
    canonical_labels,
)
from repro.apps.diameter import (
    DiameterEstimationPropagation,
    effective_diameter,
    fm_estimate,
    neighborhood_function_exact,
)
from repro.apps.traversal import (
    BreadthFirstSearchPropagation,
    DeltaPageRankPropagation,
    KCoreDecompositionPropagation,
    ShortestPathsPropagation,
    edge_weight,
    edge_weight_array,
    h_index,
)

#: name -> (propagation app class, mapreduce app class, default iterations)
APP_REGISTRY = {
    "VDD": (DegreeDistributionPropagation, DegreeDistributionMapReduce, 1),
    "RS": (RecommenderPropagation, RecommenderMapReduce, 2),
    "NR": (NetworkRankingPropagation, NetworkRankingMapReduce, 1),
    "RLG": (ReverseLinkGraphPropagation, ReverseLinkGraphMapReduce, 1),
    "TC": (TriangleCountingPropagation, TriangleCountingMapReduce, 1),
    "TFL": (TwoHopFriendsPropagation, TwoHopFriendsMapReduce, 1),
}

APP_ORDER = ("VDD", "RS", "NR", "RLG", "TC", "TFL")

#: extension applications beyond the paper's six (see DESIGN.md section 6)
EXTENSION_APPS = {
    "CC": (ConnectedComponentsPropagation, ConnectedComponentsMapReduce),
    "DIAM": (DiameterEstimationPropagation, None),
    # traversal suite (frontier-capable, propagation only)
    "BFS": (BreadthFirstSearchPropagation, None),
    "SSSP": (ShortestPathsPropagation, None),
    "KCORE": (KCoreDecompositionPropagation, None),
    "DPR": (DeltaPageRankPropagation, None),
}

#: apps that read the graph as undirected: a launcher that generates the
#: graph symmetrises it for these
SYMMETRIC_APPS = frozenset({"CC", "DIAM", "KCORE"})

#: the paper samples 10 % of vertices for TC and TFL (Tables 2-3)
SAMPLED_APPS = {"TC": 0.1, "TFL": 0.1}

#: step budget of the extension apps, which stop at convergence
EXTENSION_STEPS = 50


def make_app(name: str, engine: str, **app_args):
    """Resolve a named job: ``(app, default steps, until_convergence)``.

    ``engine`` is ``"propagation"`` or ``"mapreduce"``.  The paper's six
    run their registered iteration count; extension apps run until their
    ``converged()`` hook fires, within :data:`EXTENSION_STEPS`.  Sampled
    apps get the paper's ratio unless ``app_args`` sets ``select_ratio``.
    An app the engine has no implementation of is a :class:`JobError`.
    """
    if name in APP_REGISTRY:
        prop_cls, mr_cls, steps = APP_REGISTRY[name]
        until = False
    else:
        prop_cls, mr_cls = EXTENSION_APPS[name]
        steps, until = EXTENSION_STEPS, True
    cls = prop_cls if engine == "propagation" else mr_cls
    if cls is None:
        raise JobError(f"{name} has no MapReduce implementation")
    if name in SAMPLED_APPS:
        app_args.setdefault("select_ratio", SAMPLED_APPS[name])
    return cls(**app_args), steps, until


__all__ = [
    "VertexState",
    "sample_mask",
    "NetworkRankingMapReduce",
    "NetworkRankingPropagation",
    "RecommenderMapReduce",
    "RecommenderPropagation",
    "accepts",
    "TriangleCountingMapReduce",
    "TriangleCountingPropagation",
    "DegreeDistributionMapReduce",
    "DegreeDistributionPropagation",
    "ReverseLinkGraphMapReduce",
    "ReverseLinkGraphPropagation",
    "TwoHopFriendsMapReduce",
    "TwoHopFriendsPropagation",
    "APP_REGISTRY",
    "APP_ORDER",
    "EXTENSION_APPS",
    "SYMMETRIC_APPS",
    "SAMPLED_APPS",
    "make_app",
    "ConnectedComponentsMapReduce",
    "ConnectedComponentsPropagation",
    "canonical_labels",
    "DiameterEstimationPropagation",
    "effective_diameter",
    "fm_estimate",
    "neighborhood_function_exact",
    "BreadthFirstSearchPropagation",
    "ShortestPathsPropagation",
    "KCoreDecompositionPropagation",
    "DeltaPageRankPropagation",
    "edge_weight",
    "edge_weight_array",
    "h_index",
]

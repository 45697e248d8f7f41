"""Application correctness: every app, both primitives, against oracles."""

import numpy as np
import pytest

from repro.apps import (
    APP_ORDER,
    APP_REGISTRY,
    EXTENSION_APPS,
    SAMPLED_APPS,
    SYMMETRIC_APPS,
    DegreeDistributionMapReduce,
    DegreeDistributionPropagation,
    NetworkRankingMapReduce,
    NetworkRankingPropagation,
    RecommenderMapReduce,
    RecommenderPropagation,
    ReverseLinkGraphMapReduce,
    ReverseLinkGraphPropagation,
    TriangleCountingMapReduce,
    TriangleCountingPropagation,
    TwoHopFriendsMapReduce,
    TwoHopFriendsPropagation,
    make_app,
    sample_mask,
)
from repro.core.surfer import Surfer
from repro.errors import JobError
from repro.graph import Graph
from repro.graph import (
    count_triangles,
    degree_histogram,
    pagerank,
    two_hop_neighbors,
)
from tests.conftest import make_test_cluster


@pytest.fixture(scope="module")
def surfer(tiny_graph):
    return Surfer(tiny_graph, make_test_cluster(4), num_parts=8, seed=2)


class TestMakeApp:
    """The one resolver returns what the three lookups it replaced
    (the CLI's, the bench runner's, the experiment registry's) did."""

    #: name -> (propagation class, mapreduce class or None, steps, until)
    EXPECTED = {
        "VDD": ("DegreeDistributionPropagation",
                "DegreeDistributionMapReduce", 1, False),
        "RS": ("RecommenderPropagation", "RecommenderMapReduce", 2, False),
        "NR": ("NetworkRankingPropagation", "NetworkRankingMapReduce",
               1, False),
        "RLG": ("ReverseLinkGraphPropagation", "ReverseLinkGraphMapReduce",
                1, False),
        "TC": ("TriangleCountingPropagation", "TriangleCountingMapReduce",
               1, False),
        "TFL": ("TwoHopFriendsPropagation", "TwoHopFriendsMapReduce",
                1, False),
        "CC": ("ConnectedComponentsPropagation",
               "ConnectedComponentsMapReduce", 50, True),
        "DIAM": ("DiameterEstimationPropagation", None, 50, True),
        "BFS": ("BreadthFirstSearchPropagation", None, 50, True),
        "SSSP": ("ShortestPathsPropagation", None, 50, True),
        "KCORE": ("KCoreDecompositionPropagation", None, 50, True),
        "DPR": ("DeltaPageRankPropagation", None, 50, True),
    }

    def test_table_covers_every_registered_app(self):
        assert list(self.EXPECTED) == [*APP_ORDER, *EXTENSION_APPS]

    @pytest.mark.parametrize("engine", ["propagation", "mapreduce"])
    @pytest.mark.parametrize("name", list(EXPECTED))
    def test_resolves_like_the_old_lookups(self, name, engine):
        prop, mr, steps, until = self.EXPECTED[name]
        cls_name = prop if engine == "propagation" else mr
        if cls_name is None:
            with pytest.raises(JobError, match=f"{name} has no MapReduce"):
                make_app(name, engine)
            return
        app, got_steps, got_until = make_app(name, engine)
        assert type(app).__name__ == cls_name
        assert (got_steps, got_until) == (steps, until)
        if name in ("TC", "TFL"):
            assert app.select_ratio == 0.1

    def test_app_args_reach_the_constructor(self):
        app, __, __ = make_app("TC", "propagation", select_ratio=0.5)
        assert app.select_ratio == 0.5
        app, __, __ = make_app("NR", "mapreduce", in_map_combining=False)
        assert app.in_map_combining is False

    def test_launcher_facts_are_data(self):
        assert SAMPLED_APPS == {"TC": 0.1, "TFL": 0.1}
        assert SYMMETRIC_APPS == {"CC", "DIAM", "KCORE"}


class TestNetworkRanking:
    def test_propagation_matches_oracle(self, tiny_graph, surfer):
        job = surfer.run_propagation(NetworkRankingPropagation(),
                                     iterations=3)
        assert np.allclose(job.result, pagerank(tiny_graph,
                                                num_iterations=3))

    def test_mapreduce_matches_oracle(self, tiny_graph, surfer):
        job = surfer.run_mapreduce(NetworkRankingMapReduce(), rounds=3)
        assert np.allclose(job.result, pagerank(tiny_graph,
                                                num_iterations=3))

    def test_custom_damping(self, tiny_graph, surfer):
        job = surfer.run_propagation(NetworkRankingPropagation(damping=0.5),
                                     iterations=2)
        assert np.allclose(job.result, pagerank(tiny_graph, damping=0.5,
                                                num_iterations=2))

    def test_rank_mass_conserved_without_dangling(self, surfer, tiny_graph):
        job = surfer.run_propagation(NetworkRankingPropagation(),
                                     iterations=2)
        assert job.result.sum() <= 1.0 + 1e-9


class TestDegreeDistribution:
    def test_propagation(self, tiny_graph, surfer):
        job = surfer.run_propagation(DegreeDistributionPropagation())
        assert job.result == degree_histogram(tiny_graph)

    def test_mapreduce(self, tiny_graph, surfer):
        job = surfer.run_mapreduce(DegreeDistributionMapReduce())
        assert job.result == degree_histogram(tiny_graph)

    def test_no_layout_sensitivity(self, tiny_graph):
        """Virtual-vertex routing ignores the graph layout entirely."""
        a = Surfer(tiny_graph, make_test_cluster(4), num_parts=8,
                   layout="bandwidth-aware", seed=2)
        b = Surfer(tiny_graph, make_test_cluster(4), num_parts=8,
                   layout="oblivious", seed=2)
        ra = a.run_propagation(DegreeDistributionPropagation())
        rb = b.run_propagation(DegreeDistributionPropagation())
        assert ra.result == rb.result


class TestReverseLinkGraph:
    def test_propagation(self, tiny_graph, surfer):
        job = surfer.run_propagation(ReverseLinkGraphPropagation())
        assert job.result == tiny_graph.reverse()

    def test_mapreduce(self, tiny_graph, surfer):
        job = surfer.run_mapreduce(ReverseLinkGraphMapReduce())
        assert job.result == tiny_graph.reverse()

    def test_double_reverse_identity(self, tiny_graph, surfer):
        job = surfer.run_propagation(ReverseLinkGraphPropagation())
        assert job.result.reverse() == tiny_graph


class TestTriangleCounting:
    def test_propagation_exact(self, tiny_graph, surfer):
        job = surfer.run_propagation(
            TriangleCountingPropagation(select_ratio=1.0)
        )
        assert job.result == count_triangles(tiny_graph)

    def test_mapreduce_exact(self, tiny_graph, surfer):
        job = surfer.run_mapreduce(
            TriangleCountingMapReduce(select_ratio=1.0)
        )
        assert job.result == count_triangles(tiny_graph)

    def test_engines_agree_on_sample(self, surfer):
        prop = surfer.run_propagation(
            TriangleCountingPropagation(select_ratio=0.5)
        )
        mr = surfer.run_mapreduce(
            TriangleCountingMapReduce(select_ratio=0.5)
        )
        assert prop.result == mr.result

    @pytest.mark.parametrize("cls", [TriangleCountingPropagation,
                                     TriangleCountingMapReduce])
    def test_self_loop_is_no_triangle(self, cls):
        """A star 0 -> {1, 2, 3} with a self loop at its centre: vertex 0
        ships its list to itself, which must not count as a pair."""
        graph = Graph.from_edges([(0, 0), (0, 1), (0, 2), (0, 3)])
        surfer = Surfer(graph, make_test_cluster(2), num_parts=2, seed=1)
        assert count_triangles(graph) == 0
        assert surfer.run(cls(select_ratio=1.0)).result == 0

    def test_sampling_reduces_count(self, surfer):
        full = surfer.run_propagation(
            TriangleCountingPropagation(select_ratio=1.0)
        )
        sampled = surfer.run_propagation(
            TriangleCountingPropagation(select_ratio=0.3)
        )
        assert sampled.result <= full.result


class TestTwoHopFriends:
    def test_propagation_matches_oracle(self, tiny_graph, surfer):
        job = surfer.run_propagation(
            TwoHopFriendsPropagation(select_ratio=1.0)
        )
        for v in range(tiny_graph.num_vertices):
            expected = two_hop_neighbors(tiny_graph, v)
            assert set(job.result.out_neighbors(v).tolist()) == expected

    def test_mapreduce_agrees(self, surfer):
        prop = surfer.run_propagation(
            TwoHopFriendsPropagation(select_ratio=1.0)
        )
        mr = surfer.run_mapreduce(TwoHopFriendsMapReduce(select_ratio=1.0))
        assert prop.result == mr.result


class TestRecommender:
    def test_engines_agree(self, surfer):
        prop = surfer.run_propagation(RecommenderPropagation(), iterations=3)
        mr = surfer.run_mapreduce(RecommenderMapReduce(), rounds=3)
        assert np.array_equal(prop.result, mr.result)

    def test_adoption_monotone(self, surfer):
        one = surfer.run_propagation(RecommenderPropagation(), iterations=1)
        three = surfer.run_propagation(RecommenderPropagation(),
                                       iterations=3)
        assert three.result.sum() >= one.result.sum()
        # adopters never churn
        assert np.all(three.result[one.result])

    def test_zero_probability_no_spread(self, surfer):
        app = RecommenderPropagation(probability=0.0)
        job = surfer.run_propagation(app, iterations=2)
        seeds = sample_mask(surfer.graph.num_vertices, app.initial_ratio,
                            app.seed)
        assert np.array_equal(job.result, seeds)

    def test_full_probability_spreads_fast(self, surfer):
        job = surfer.run_propagation(
            RecommenderPropagation(probability=1.0), iterations=3
        )
        assert job.result.mean() > 0.5


class TestRegistry:
    def test_all_apps_registered(self):
        assert set(APP_ORDER) == set(APP_REGISTRY)

    def test_registry_classes_instantiable(self):
        for prop_cls, mr_cls, iters in APP_REGISTRY.values():
            assert iters >= 1
            prop_cls()
            mr_cls()

"""Tests for the virtual-vertex path and app sizing hooks."""

import pytest

from repro.core.surfer import Surfer
from repro.errors import JobError
from repro.propagation.api import PropagationApp, message_nbytes
from tests.conftest import make_test_cluster


class _GroupBySign(PropagationApp):
    """Groups vertices by (id mod 3) via virtual vertices."""

    name = "mod3"
    uses_virtual_vertices = True
    is_associative = True

    def setup(self, pgraph):
        class State:
            values = {}
        return State()

    def virtual_transfer(self, u, state):
        yield u % 3, 1

    def virtual_combine(self, key, values, state):
        return sum(values)

    def merge(self, a, b):
        return a + b

    def update(self, state, combined):
        state.values = dict(combined)

    def finalize(self, state):
        return state.values


class _MultiEmit(PropagationApp):
    """Each vertex emits to two virtual keys."""

    name = "multi"
    uses_virtual_vertices = True

    def setup(self, pgraph):
        class State:
            values = {}
        return State()

    def virtual_transfer(self, u, state):
        yield "evens" if u % 2 == 0 else "odds", u
        yield "all", 1

    def virtual_combine(self, key, values, state):
        return len(values)

    def update(self, state, combined):
        state.values = dict(combined)

    def finalize(self, state):
        return state.values


class _MixedKeys(PropagationApp):
    """One iteration emits ``int`` and ``str`` virtual keys together —
    ``1`` and ``"1"`` are different keys — which no sort can order."""

    name = "mixed-keys"
    uses_virtual_vertices = True
    is_associative = True

    def setup(self, pgraph):
        class State:
            values = {}
        return State()

    def virtual_transfer(self, u, state):
        yield (u % 4 if u % 3 else str(u % 4)), u

    def virtual_combine(self, key, values, state):
        return sum(values)

    def merge(self, a, b):
        return a + b

    def update(self, state, combined):
        state.values = dict(combined)

    def finalize(self, state):
        return state.values


#: what the dict-based router returned for ``_MixedKeys`` on the
#: ``surfer`` fixture, in its order: keys by first arrival
_MIXED_KEYS_RESULT = [(0, 21676), ("0", 10836), (1, 21930), (2, 21674),
                      ("3", 10965), (3, 21931), ("2", 11094), ("1", 10710)]


@pytest.fixture()
def surfer(small_graph):
    return Surfer(small_graph, make_test_cluster(4), num_parts=8, seed=6)


class TestVirtualVertices:
    def test_group_by_counts(self, small_graph, surfer):
        result = surfer.run_propagation(_GroupBySign()).result
        n = small_graph.num_vertices
        expected = {r: sum(1 for v in range(n) if v % 3 == r)
                    for r in range(3)}
        assert result == expected

    def test_string_keys_and_multi_emit(self, small_graph, surfer):
        result = surfer.run_propagation(_MultiEmit()).result
        n = small_graph.num_vertices
        assert result["all"] == n
        assert result["evens"] + result["odds"] == n

    def test_local_opts_do_not_change_virtual_results(self, surfer):
        a = surfer.run_propagation(_GroupBySign(), local_opts=True).result
        b = surfer.run_propagation(_GroupBySign(), local_opts=False).result
        assert a == b

    def test_merging_reduces_virtual_traffic(self, surfer):
        on = surfer.run_propagation(_GroupBySign(), local_opts=True)
        off = surfer.run_propagation(_GroupBySign(), local_opts=False)
        # 3 keys, many messages: merging must collapse traffic massively
        assert on.metrics.network_bytes < 0.5 * off.metrics.network_bytes


class TestMixedKeyTypes:
    @pytest.mark.parametrize("local_opts, shipped, network, spill", [
        (True, 56, 896.0, 128.0), (False, 458, 7328.0, 864.0)])
    def test_int_and_str_keys_in_one_iteration(self, small_graph, surfer,
                                               local_opts, shipped,
                                               network, spill):
        job = surfer.run_propagation(_MixedKeys(), local_opts=local_opts)
        assert list(job.result.items()) == _MIXED_KEYS_RESULT
        n = small_graph.num_vertices
        assert sum(job.result.values()) == n * (n - 1) // 2
        (report,) = job.reports
        assert (report.messages_emitted, report.messages_shipped,
                report.network_bytes, report.spill_bytes,
                report.locally_propagated) == (n, shipped, network,
                                               spill, 0)


class TestApiDefaults:
    def test_unimplemented_udfs_raise(self):
        app = PropagationApp()
        with pytest.raises(JobError):
            app.transfer(0, 1, None)
        with pytest.raises(JobError):
            app.combine(0, [], None)
        with pytest.raises(JobError):
            app.merge(1, 2)
        with pytest.raises(JobError):
            app.virtual_combine("k", [], None)
        with pytest.raises(JobError):
            list(app.virtual_transfer(0, None))

    def test_default_update_needs_values(self):
        class Bare:
            pass
        app = PropagationApp()
        with pytest.raises(JobError):
            app.update(Bare(), {0: 1})

    def test_message_nbytes_includes_header(self):
        app = PropagationApp()
        assert message_nbytes(app, 1.0) == 16.0  # 8 B id + 8 B payload

    def test_app_value_sizes(self):
        from repro.apps import (
            ReverseLinkGraphPropagation,
            TwoHopFriendsPropagation,
        )
        rlg = ReverseLinkGraphPropagation()
        assert rlg.value_nbytes((1, 2, 3)) == 24.0
        tfl = TwoHopFriendsPropagation()
        assert tfl.value_nbytes(frozenset({1, 2})) == 16.0
        assert tfl.value_nbytes(frozenset()) == 8.0  # floor

    def test_mapreduce_unimplemented(self):
        from repro.mapreduce.api import MapReduceApp
        app = MapReduceApp()
        with pytest.raises(JobError):
            app.map(0, None, None, print)
        with pytest.raises(JobError):
            app.reduce(0, [], None, print)

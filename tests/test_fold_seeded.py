"""The seeded one-pass fold against the first-record chain.

``repro.fold`` folds a (ufunc, dtype) pair that has a seed ``s`` —
``ufunc(s, x) == x`` bit for bit for every ``x`` — with one
``ufunc.at`` into a table filled with ``s``.  Every other pair starts
each group from its first record and folds the rest in.  Both must give
every occupied group the same bits, whatever the values: NaN, ±0.0,
±inf and the dtype's extremes included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fold import _accumulate, _seed, fold_by_dest
from tests.conftest import fold_with

INT_DTYPES = [np.dtype(t) for t in (np.int8, np.uint8, np.int16, np.uint16,
                                    np.int32, np.uint32, np.int64,
                                    np.uint64)]
FLOAT_DTYPES = [np.dtype(np.float32), np.dtype(np.float64)]
BOOL = np.dtype(bool)

#: every seeded (ufunc, dtype) pair
SEEDED = ([(u, d) for u in (np.minimum, np.maximum, np.add)
           for d in INT_DTYPES]
          + [(u, d) for u in (np.minimum, np.maximum) for d in FLOAT_DTYPES]
          + [(np.logical_or, BOOL), (np.logical_and, BOOL)])


def first_record_chain(gid, values, ufunc, groups):
    """Each group starts from its earliest record; ``ufunc.at`` folds the
    rest in, in input order."""
    k = int(gid.size)
    first = np.full(groups, k, dtype=np.intp)
    np.minimum.at(first, gid, np.arange(k))
    acc = values.take(first, mode="clip")
    rest = np.ones(k + 1, dtype=bool)
    rest[first] = False
    rest = rest[:k]
    ufunc.at(acc, gid[rest], values[rest])
    return acc


def special_values(dtype):
    """The values a seed must pass through unchanged."""
    if dtype == BOOL:
        return [False, True]
    if dtype.kind == "f":
        info = np.finfo(dtype)
        return [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, info.max,
                info.min, info.tiny, -info.tiny, 1.5, -2.25]
    info = np.iinfo(dtype)
    return [info.min, info.max, 0, 1, info.min + 1, info.max - 1]


def bits(array):
    """``array``'s raw bits as unsigned integers of its width."""
    return array.view(np.uint8 if array.dtype == BOOL
                      else f"u{array.itemsize}")


@st.composite
def folds(draw, dtype):
    """``(gid, values, groups)``: empty input, single-record groups and
    long ones, values drawn from the specials."""
    pool = special_values(dtype)
    k = draw(st.integers(0, 40))
    groups = draw(st.integers(1, 12))
    gid = np.array(draw(st.lists(st.integers(0, groups - 1), min_size=k,
                                 max_size=k)), dtype=np.intp)
    if not k:
        groups = 0  # no records, no table (as ``Grouping.fold`` asks)
    values = np.array(draw(st.lists(st.sampled_from(pool), min_size=k,
                                    max_size=k)), dtype=dtype)
    return gid, values, groups


def assert_equal_bits_on_groups(got, want, gid):
    assert got.dtype == want.dtype
    occupied = np.unique(gid)
    np.testing.assert_array_equal(bits(got[occupied]), bits(want[occupied]))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # NaN
class TestSeededFoldEqualsTheChain:
    @pytest.mark.parametrize("ufunc,dtype", SEEDED,
                             ids=[f"{u.__name__}-{d}" for u, d in SEEDED])
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_every_seeded_pair(self, ufunc, dtype, data):
        assert _seed(ufunc, dtype) is not None
        gid, values, groups = data.draw(folds(dtype))
        got = _accumulate(gid, values, ufunc, groups)
        want = first_record_chain(gid, values, ufunc, groups)
        assert_equal_bits_on_groups(got, want, gid)

    @pytest.mark.parametrize("ufunc,dtype", SEEDED,
                             ids=[f"{u.__name__}-{d}" for u, d in SEEDED])
    def test_each_special_alone_and_after_each_other(self, ufunc, dtype):
        """Every special as a one-record group, and every ordered pair of
        specials as a two-record group."""
        pool = special_values(dtype)
        pairs = [(a, b) for a in pool for b in pool]
        values = np.array(pool + [x for pair in pairs for x in pair],
                          dtype=dtype)
        gid = np.concatenate([np.arange(len(pool)),
                              len(pool) + np.repeat(np.arange(len(pairs)),
                                                    2)]).astype(np.intp)
        groups = len(pool) + len(pairs)
        got = _accumulate(gid, values, ufunc, groups)
        want = first_record_chain(gid, values, ufunc, groups)
        assert_equal_bits_on_groups(got, want, gid)
        # one-record groups hold the record itself, bit for bit
        np.testing.assert_array_equal(bits(got[:len(pool)]),
                                      bits(values[:len(pool)]))

    @pytest.mark.parametrize("strategy", ["counting", "sorted"])
    def test_through_fold_by_dest_and_empty_input(self, strategy):
        dests = np.array([5, 3, 5, 9, 3, 5], dtype=np.int64)
        values = np.array([2.0, np.nan, -0.0, np.inf, 1.0, 0.0])
        uniq, merged, counts = fold_with(strategy, dests, values,
                                         np.minimum)
        assert uniq.tolist() == [3, 5, 9] and counts.tolist() == [2, 3, 1]
        gid = np.searchsorted(uniq, dests)
        assert_equal_bits_on_groups(
            merged, first_record_chain(gid, values, np.minimum, 3), gid)
        # NaN wins; minimum(-0.0, 0.0) is its second operand, +0.0
        assert np.isnan(merged[0]) and merged[2] == np.inf
        assert merged[1] == 0.0 and not np.signbit(merged[1])
        for dtype in INT_DTYPES + FLOAT_DTYPES + [BOOL]:
            empty = np.zeros(0, dtype=dtype)
            uniq, merged, counts = fold_by_dest(
                np.zeros(0, dtype=np.int64), empty,
                np.logical_or if dtype == BOOL else np.minimum)
            assert merged.dtype == dtype and merged.size == 0


class TestUnseededPairsKeepTheChain:
    @pytest.mark.parametrize("ufunc,dtype", [
        (np.multiply, np.dtype(np.int64)),
        (np.add, np.dtype(np.float32)),
        (np.minimum, BOOL),
        (np.logical_or, np.dtype(np.int64)),
    ])
    def test_no_seed(self, ufunc, dtype):
        assert _seed(ufunc, dtype) is None

    def test_multiply_takes_the_chain(self):
        """An empty slot of the chain's table holds the clipped last
        record, not a seed — the chain ran."""
        gid = np.array([0, 2, 0], dtype=np.intp)
        values = np.array([3, 5, 7], dtype=np.int64)
        got = _accumulate(gid, values, np.multiply, 4)
        np.testing.assert_array_equal(
            got, first_record_chain(gid, values, np.multiply, 4))
        assert got[[0, 2]].tolist() == [21, 5]
        assert got[[1, 3]].tolist() == [7, 7]

    def test_float32_add_keeps_negative_zero(self):
        """``0.0 + -0.0`` is ``+0.0``: a seeded float add would lose the
        sign of a lone ``-0.0``; the chain keeps it."""
        gid = np.array([0, 1, 1], dtype=np.intp)
        values = np.array([-0.0, -0.0, -0.0], dtype=np.float32)
        got = _accumulate(gid, values, np.add, 2)
        assert got.dtype == np.float32
        assert np.signbit(got).tolist() == [True, True]

"""Order-exact per-key grouping and fold: the one group-by kernel.

The propagation engine (local propagation, local combination, the
Combine stage), the MapReduce combiner and reducers, and NR's in-map
table all group ``(key, value)`` columns by key.  :func:`group_ids`
gives every record its group id and leaves the records where they are,
in input (arrival) order; :func:`fold_by_dest` then reduces each group
to one value.  The fold must equal a *Python left fold in input order*
bit for bit — ``merge(merge(v1, v2), v3)`` — because float addition is
not associative and the scalar UDF paths are the oracle.

``np.bincount(gid, weights=...)`` (float64 ``np.add``) and ``ufunc.at``
(everything else) both accumulate sequentially in input order, so
either reproduces the scalar chain exactly.  ``ufunc.reduceat`` does
*not*: ``np.add.reduceat`` sums each segment pairwise.

Two strategies give the same groups and differ only in how a record
finds its group:

* **counting** — slot = ``key - min``, one ``bincount`` over the id
  range finds the occupied slots: O(k + span), no sort;
* **sorted** — groups from one stable argsort: O(k log k), whatever the
  span.

Both functions choose from what the input shows — the record count
``k`` and the id span — and nothing else.  A counting fold accumulates
by slot and drops the empty slots afterwards, which spares it the
per-record gather that ranks slots into group ids.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = ["fold_by_dest", "group_ids"]

#: counting strategy when ``span <= COUNTING_SPAN_FACTOR * k``.  On
#: 100 k uniformly random ids counting beats the stable sort up to
#: ``span ~ 16 k``; the factor stays well inside that so the span-sized
#: scratch never dwarfs the records it serves.
COUNTING_SPAN_FACTOR = 4

Grouped = tuple[np.ndarray, np.ndarray, np.ndarray]
Folded = tuple[np.ndarray, np.ndarray, np.ndarray]


def group_ids(keys: np.ndarray) -> Grouped:
    """Group ``keys`` without moving them.

    Returns ``(uniq, gid, counts)``: ``uniq`` the distinct keys sorted
    ascending (``keys``' dtype), ``gid[j]`` the index into ``uniq`` of
    record ``j``'s key and ``counts[i]`` how many records have key
    ``uniq[i]``.  Records keep their input order, so ``values[gid == i]``
    is key ``i``'s bag in arrival order.  Empty input gives three empty
    arrays.
    """
    if keys.size == 0:
        none = np.zeros(0, dtype=np.intp)
        return keys[:0], none, none
    if _counting_fits(keys):
        return group_counting(keys)
    return group_sorted(keys)


def _counting_fits(keys: np.ndarray) -> bool:
    """The strategy choice: counting for integer keys whose span is
    within ``COUNTING_SPAN_FACTOR`` times their count (non-empty)."""
    if keys.dtype.kind not in "iu":
        return False
    span = int(keys.max()) - int(keys.min()) + 1
    return span <= COUNTING_SPAN_FACTOR * keys.size


def _slots(keys: np.ndarray) -> tuple[np.ndarray, ...]:
    """Counting: ``(uniq, slot, per_slot, occupied)`` — each record's
    slot ``key - min``, the records per slot, the occupied slots."""
    lo = keys.min()
    slot = keys - lo
    if slot.dtype != np.intp:
        # offsets wrap in narrow signed dtypes; read them back unsigned
        slot = slot.view(f"u{slot.itemsize}").astype(np.intp)
    per_slot = np.bincount(slot)
    occupied = np.flatnonzero(per_slot > 0)  # a bool scan is 3x faster
    uniq = occupied.astype(keys.dtype, copy=False) + lo
    return uniq, slot, per_slot, occupied


def group_counting(keys: np.ndarray) -> Grouped:
    """The sort-free strategy; ``keys`` non-empty and integer."""
    uniq, slot, per_slot, occupied = _slots(keys)
    rank = np.empty(per_slot.size, dtype=np.intp)
    rank[occupied] = np.arange(occupied.size)
    return uniq, rank[slot], per_slot[occupied]


def group_sorted(keys: np.ndarray) -> Grouped:
    """The span-independent strategy; ``keys`` non-empty, any sortable
    dtype."""
    order = np.argsort(keys, kind="stable")
    d = keys[order]
    new_group = np.empty(d.size, dtype=bool)
    new_group[0] = True
    np.not_equal(d[1:], d[:-1], out=new_group[1:])
    starts = np.flatnonzero(new_group)
    gid = np.empty(d.size, dtype=np.intp)
    gid[order] = np.cumsum(new_group) - 1
    return d[starts], gid, np.diff(starts, append=d.size)


def fold_by_dest(dests: np.ndarray, values: np.ndarray,
                 ufunc: Any) -> Folded:
    """Left-fold ``values`` per destination, in input (emission) order:
    the groups of :func:`group_ids`, each reduced to one value.

    Returns ``(uniq_dests, merged, counts)`` with ``uniq_dests`` sorted
    ascending, ``merged[i]`` the left fold of ``ufunc`` over destination
    ``i``'s values in input order and ``counts[i]`` how many there were.
    Empty input gives three empty arrays of the matching dtypes.
    """
    if dests.size == 0:
        return dests[:0], values[:0], np.zeros(0, dtype=np.intp)
    if _counting_fits(dests):
        # the counting groups, folded by slot before the empty slots go:
        # group_counting's per-record rank gather is not needed here
        uniq, slot, per_slot, occupied = _slots(dests)
        merged = _accumulate(slot, values, ufunc, per_slot.size)
        return uniq, merged[occupied], per_slot[occupied]
    uniq, gid, counts = group_sorted(dests)
    return uniq, _accumulate(gid, values, ufunc, uniq.size), counts


def _accumulate(gid: np.ndarray, values: np.ndarray, ufunc: Any,
                groups: int) -> np.ndarray:
    """Sequential fold of ``values`` into ``groups`` slots by ``gid``.

    Slots no record maps to hold unspecified filler.
    """
    if ufunc is np.add and values.dtype == np.float64:
        # 0.0 + v1 + v2 + ...: the scalar sum()/merge chain exactly
        return np.bincount(gid, weights=values, minlength=groups)
    # Start each slot from its earliest record, fold the rest in with
    # ufunc.at; ``k`` marks "no record" and is clipped/sliced away.
    k = int(gid.size)
    first = np.full(groups, k, dtype=np.intp)
    np.minimum.at(first, gid, np.arange(k))
    acc = values.take(first, mode="clip")
    rest = np.ones(k + 1, dtype=bool)
    rest[first] = False
    rest = rest[:k]
    ufunc.at(acc, gid[rest], values[rest])
    return acc

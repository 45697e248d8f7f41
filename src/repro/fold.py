"""Order-exact per-destination fold: the one group-by kernel.

The propagation engine (local propagation, local combination, the
Combine stage), the MapReduce combiner and NR's in-map table all reduce
``(destination, value)`` columns to one value per destination.  The
result must equal a *Python left fold in input order* bit for bit —
``merge(merge(v1, v2), v3)`` — because float addition is not
associative and the scalar UDF paths are the oracle.

``np.bincount(gid, weights=...)`` (float64 ``np.add``) and ``ufunc.at``
(everything else) both accumulate sequentially in input order, so
either reproduces the scalar chain exactly.  ``ufunc.reduceat`` does
*not*: ``np.add.reduceat`` sums each segment pairwise.

Two strategies share that accumulation and differ only in how a message
finds its group:

* **counting** — group = ``dest - min``, accumulators span the id range:
  O(k + span), no sort;
* **sorted** — groups from one stable argsort: O(k log k), whatever the
  span.

:func:`fold_by_dest` chooses from what the input shows — the message
count ``k`` and the id span — and nothing else.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = ["fold_by_dest"]

#: counting fold when ``span <= COUNTING_SPAN_FACTOR * k``.  On 100 k
#: uniformly random ids the counting fold beats the stable sort up to
#: ``span ~ 16 k``; the factor stays well inside that so the span-sized
#: scratch never dwarfs the messages it serves.
COUNTING_SPAN_FACTOR = 4

Folded = tuple[np.ndarray, np.ndarray, np.ndarray]


def fold_by_dest(dests: np.ndarray, values: np.ndarray,
                 ufunc: Any) -> Folded:
    """Left-fold ``values`` per destination, in input (emission) order.

    Returns ``(uniq_dests, merged, counts)`` with ``uniq_dests`` sorted
    ascending, ``merged[i]`` the left fold of ``ufunc`` over destination
    ``i``'s values in input order and ``counts[i]`` how many there were.
    Empty input gives three empty arrays of the matching dtypes.
    """
    k = int(dests.size)
    if k == 0:
        return dests[:0], values[:0], np.zeros(0, dtype=np.intp)
    if dests.dtype.kind in "iu":
        span = int(dests.max()) - int(dests.min()) + 1
        if span <= COUNTING_SPAN_FACTOR * k:
            return fold_counting(dests, values, ufunc)
    return fold_sorted(dests, values, ufunc)


def _accumulate(gid: np.ndarray, values: np.ndarray, ufunc: Any,
                groups: int, first: np.ndarray | None = None) -> np.ndarray:
    """Sequential fold of ``values`` into ``groups`` slots by ``gid``.

    ``first[g]`` is the input position of group ``g``'s earliest message
    when the caller already knows it.  Slots no message maps to hold
    unspecified filler.
    """
    if ufunc is np.add and values.dtype == np.float64:
        # 0.0 + v1 + v2 + ...: the scalar sum()/merge chain exactly
        return np.bincount(gid, weights=values, minlength=groups)
    # Start each slot from its earliest message, fold the rest in with
    # ufunc.at; ``k`` marks "no message" and is clipped/sliced away.
    k = int(gid.size)
    if first is None:
        first = np.full(groups, k, dtype=np.intp)
        np.minimum.at(first, gid, np.arange(k))
    acc = values.take(first, mode="clip")
    rest = np.ones(k + 1, dtype=bool)
    rest[first] = False
    rest = rest[:k]
    ufunc.at(acc, gid[rest], values[rest])
    return acc


def fold_counting(dests: np.ndarray, values: np.ndarray,
                  ufunc: Any) -> Folded:
    """The sort-free strategy; ``dests`` non-empty and integer."""
    lo = int(dests.min())
    gid = (dests - lo).astype(np.intp, copy=False)
    per_slot = np.bincount(gid)
    occupied = np.flatnonzero(per_slot > 0)
    merged = _accumulate(gid, values, ufunc, per_slot.size)[occupied]
    return ((occupied + lo).astype(dests.dtype, copy=False), merged,
            per_slot[occupied])


def fold_sorted(dests: np.ndarray, values: np.ndarray, ufunc: Any) -> Folded:
    """The span-independent strategy; ``dests`` non-empty, any sortable
    dtype."""
    order = np.argsort(dests, kind="stable")
    d = dests[order]
    new_group = np.empty(d.size, dtype=bool)
    new_group[0] = True
    np.not_equal(d[1:], d[:-1], out=new_group[1:])
    uniq = d[new_group]
    gid = np.empty(d.size, dtype=np.intp)
    gid[order] = np.cumsum(new_group) - 1
    # a stable sort leaves each group's earliest message at its head
    merged = _accumulate(gid, values, ufunc, uniq.size, order[new_group])
    return uniq, merged, np.bincount(gid, minlength=uniq.size)

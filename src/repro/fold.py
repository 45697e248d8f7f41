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

A ``ufunc.at`` fold starts each group from its first record and folds
the rest in — unless the (ufunc, dtype) pair has a *seed* ``s`` with
``ufunc(s, x) == x`` bit for bit for every ``x``.  Then the table is
filled with ``s`` and one ``ufunc.at`` folds every record, since
``ufunc(s, v1)`` is ``v1`` and the chain from there is the same:

==================  ==============  ====================
ufunc               dtypes          seed
==================  ==============  ====================
``minimum``         integer, float  dtype max, ``+inf``
``maximum``         integer, float  dtype min, ``-inf``
``logical_or``      bool            ``False``
``logical_and``     bool            ``True``
``add``             integer         ``0``
==================  ==============  ====================

No other pair is seeded: ``0.0 + -0.0`` is ``+0.0``, so a float
``add`` has no seed (float64 ``add`` folds by ``bincount``, whose
``0.0 + v1 + ...`` is the scalar ``sum()``), nor has ``multiply``.

Two strategies give the same groups and differ only in how a record
finds its group:

* **counting** — slot = ``key - min``, one ``bincount`` over the id
  range finds the occupied slots: O(k + span), no sort;
* **sorted** — groups from one stable argsort: O(k log k), whatever the
  span.

The choice is made from what the input shows — the record count ``k``
and the id span — and nothing else.  A counting fold accumulates by
slot and drops the empty slots afterwards, which spares it the
per-record gather that ranks slots into group ids.  An *object* key
column (virtual-vertex keys of any hashable type, ``int`` and ``str``
mixed) has no order to sort by: its groups are numbered by first
arrival in one dict pass, the order a dict keyed by them would list.

A merge that is no NumPy ufunc — an app's Python ``merge`` — folds by
the Python left fold itself, in input order, into an object column.

Grouping the keys and folding the values are separate steps: a
:class:`Grouping` is built once from a key column and folds any number
of value columns over it.  :func:`group_ids` and :func:`fold_by_dest`
build one and use it once; a MapReduce job whose fixed graph emits the
same keys every round holds its groupings and only folds (DESIGN.md
§4).

Values that are vertex-id *lists* (RLG's reversed edges, TFL's friend
lists) travel as one :class:`Ragged` column instead of one object per
message.  Their fold is declared by the app's ``merge_ufunc`` like any
other: ``np.concatenate`` joins a destination's lists in arrival order
(the scalar ``a + b`` on tuples), ``np.union1d`` unites them (``a | b``
on frozensets) with one sort of ``pair_keys(group, id)``.

The scalar UDFs ride the same columns.  A scalar ``combine`` or
``reduce`` is handed :func:`bags` — each group's values as a list, in
arrival order, groups in the grouping's order — and a step's outputs
are assembled once by :func:`merge_outputs`: columns when every stage
answered its array hook, else one dict.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from repro.errors import ByteSizeError
from repro.graph.digraph import csr_from_keys, pair_keys
from repro.graph.io import DEGREE_BYTES, VALUE_BYTES, VERTEX_ID_BYTES

__all__ = ["MESSAGE_HEADER", "RAGGED_FOLDS", "RECORD_HEADER", "Grouping",
           "Ragged", "Sizes", "bags", "concat_values", "distinct_rows",
           "fold_by_dest", "group_ids", "is_typed", "merge_outputs",
           "object_column", "record_sizes"]

#: counting strategy when ``span <= COUNTING_SPAN_FACTOR * k``.  On
#: 100 k uniformly random ids counting beats the stable sort up to
#: ``span ~ 16 k``; the factor stays well inside that so the span-sized
#: scratch never dwarfs the records it serves.
COUNTING_SPAN_FACTOR = 4

#: the two folds a :class:`Ragged` column takes (see the module docstring)
RAGGED_FOLDS = (np.concatenate, np.union1d)
#: per-row header bytes of a ragged message ``<dest, ids>`` and of a
#: ragged output record ``<ID, d, ids>`` (the paper's adjacency record);
#: each id adds ``VALUE_BYTES``
MESSAGE_HEADER = VERTEX_ID_BYTES
RECORD_HEADER = VERTEX_ID_BYTES + DEGREE_BYTES

Grouped = tuple[np.ndarray, np.ndarray, np.ndarray]
Folded = tuple[np.ndarray, Any, np.ndarray]

#: a Python fold's "nothing folded yet" (a value may itself be None)
_EMPTY = object()


def object_column(items: Sequence[Any]) -> np.ndarray:
    """``items`` as a 1-D object column, one element per item (a tuple
    stays one element)."""
    return np.fromiter(items, dtype=object, count=len(items))


def is_typed(values: Any) -> bool:
    """Whether a value column came from an array hook (typed or
    ragged) rather than the scalar UDFs (an object column)."""
    return isinstance(values, Ragged) or values.dtype != object


def concat_values(columns: Sequence[Any]) -> Any:
    """Value columns joined end to end; a ragged column joins an object
    one (from the scalar UDFs) as tuples."""
    kinds = {type(c) for c in columns}
    if Ragged in kinds and len(kinds) > 1:
        columns = [object_column(c.tolist()) if isinstance(c, Ragged)
                   else c for c in columns]
    return np.concatenate(columns)


def bags(grouping: Grouping, values: Any) -> list[list[Any]]:
    """Each group's values as a Python list in arrival order, groups in
    ``grouping.uniq``'s order — what a scalar ``combine`` or ``reduce``
    is handed; ``grouping`` ranked."""
    flat = values[np.argsort(grouping.index, kind="stable")].tolist()
    ends = np.cumsum(grouping.counts).tolist()
    return [flat[lo:hi] for lo, hi in zip([0, *ends], ends)]


def _as_list(values: Any) -> list[Any]:
    return values if isinstance(values, list) else values.tolist()


def merge_outputs(outs: Sequence[Any]) -> Any:
    """One step's outputs from its stages' ``(keys, values)`` columns
    and ``{key: value}`` dicts: columns end to end when every stage
    produced columns, else one dict (columns folded in, stage order
    kept); no stage at all gives the empty dict.  Values that are lists
    (not numeric) join as one list."""
    if outs and all(isinstance(out, tuple) for out in outs):
        keys = np.concatenate([k for k, _ in outs])
        parts = [v for _, v in outs]
        if any(isinstance(v, list) for v in parts):
            return keys, [x for v in parts for x in _as_list(v)]
        return keys, np.concatenate(parts)
    merged: dict = {}
    for out in outs:
        merged.update(out if isinstance(out, dict)
                      else zip(out[0].tolist(), _as_list(out[1])))
    return merged


class Ragged:
    """A column of variable-length ``int64`` id lists.

    Row ``i`` is ``flat[offsets[i]:offsets[i + 1]]``; ``offsets`` starts
    at 0 and ends at ``flat.size``.  The engines treat it like a value
    column: a boolean mask, an index array or a slice selects rows,
    ``np.concatenate`` joins columns end to end, ``size`` counts rows.
    An ``int`` index reads one row as an array view.  Indices follow
    Python's rules: a negative one counts from the end, and one out of
    range raises :class:`IndexError`.
    """

    __slots__ = ("offsets", "flat")

    def __init__(self, offsets: np.ndarray, flat: np.ndarray) -> None:
        self.offsets = offsets
        self.flat = flat

    @classmethod
    def from_lengths(cls, lengths: np.ndarray, flat: np.ndarray) -> Ragged:
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return cls(offsets, flat)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> Ragged:
        """The column of Python id lists (tuples, sets, ...)."""
        rows = [tuple(row) for row in rows]
        flat = np.fromiter((w for row in rows for w in row), dtype=np.int64)
        return cls.from_lengths(np.array([len(row) for row in rows],
                                         dtype=np.int64), flat)

    @property
    def size(self) -> int:
        return self.offsets.size - 1

    def lengths(self) -> np.ndarray:
        return self.offsets[1:] - self.offsets[:-1]  # np.diff, sans overhead

    def row_ids(self) -> np.ndarray:
        """The row of every ``flat`` entry."""
        return np.repeat(np.arange(self.size, dtype=np.int64),
                         self.lengths())

    def nbytes(self, header: float) -> float:
        """``header`` bytes per row plus ``VALUE_BYTES`` per id: the
        per-row sum in closed form (byte sizes are integer-valued)."""
        return float(self.size * header + self.flat.size * VALUE_BYTES)

    def __getitem__(self, key: Any) -> Any:
        if isinstance(key, (int, np.integer)):
            row = range(self.size)[key]  # Python's wrap and IndexError
            return self.flat[self.offsets[row]:self.offsets[row + 1]]
        if isinstance(key, slice):
            lo, hi, step = key.indices(self.size)
            if step != 1:
                raise IndexError("Ragged slices take step 1")
            hi = max(lo, hi)
            first = self.offsets[lo]
            return Ragged(self.offsets[lo:hi + 1] - first,
                          self.flat[first:self.offsets[hi]])
        key = np.asarray(key)
        if key.dtype == np.bool_:
            key = np.flatnonzero(key)
        return self.take(key)

    def take(self, index: np.ndarray) -> Ragged:
        """Rows ``index`` (any order, repeats allowed, negative ones
        counted from the end) as a new column."""
        index = np.asarray(index, dtype=np.intp)
        if index.size and index.min() < 0:
            if index.min() < -self.size:
                raise IndexError(f"row index {int(index.min())} out of "
                                 f"range for {self.size} rows")
            index = np.where(index < 0, index + self.size, index)
        starts = self.offsets[index]
        lengths = self.offsets[index + 1] - starts
        out = Ragged.from_lengths(lengths, self.flat[:0])
        total = int(out.offsets[-1])
        if total:
            gather = (np.arange(total, dtype=np.int64)
                      + np.repeat(starts - out.offsets[:-1], lengths))
            out.flat = self.flat[gather]
        return out

    def tolist(self) -> list[tuple[int, ...]]:
        flat = self.flat.tolist()
        bounds = self.offsets.tolist()
        return [tuple(flat[bounds[i]:bounds[i + 1]])
                for i in range(self.size)]

    def __array_function__(self, func: Any, types: Any, args: Any,
                           kwargs: Any) -> Any:
        if func is not np.concatenate or kwargs:
            return NotImplemented
        return _concatenate(args[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Ragged({self.tolist()!r})"


def _concatenate(parts: Sequence[Ragged]) -> Ragged:
    """``np.concatenate`` of ragged columns: rows end to end."""
    if not all(isinstance(part, Ragged) for part in parts):
        raise TypeError("np.concatenate joins Ragged columns only with "
                        "Ragged columns")
    return Ragged.from_lengths(
        np.concatenate([part.lengths() for part in parts]),
        np.concatenate([part.flat for part in parts]))


class Sizes:
    """The byte sizes of one column's records, sized once.

    Every record costs ``each`` bytes (``column`` None), or record ``j``
    costs ``column[j]``.  Byte sizes are whole numbers held as floats
    (the cluster's traffic counters count whole bytes), so a float64
    ``column`` sums the same in any order — bit for bit the per-record
    sum — and its group sums come from one ``bincount``.
    """

    __slots__ = ("count", "each", "column")

    def __init__(self, count: int = 0, each: float = 0.0,
                 column: np.ndarray | None = None) -> None:
        self.count = count if column is None else int(column.size)
        self.each = each
        self.column = column

    @classmethod
    def of(cls, sizes: list[Any], hook: str,
           inverse: np.ndarray | None = None) -> Sizes:
        """A sizing hook's results: record ``j`` costs ``sizes[j]``, or
        ``sizes[inverse[j]]``.  Raises :class:`~repro.errors.ByteSizeError`
        naming ``hook`` when a size is not a whole number of bytes, or
        when the column could sum past 2**53 (where float sums stop
        being exact)."""
        column = np.array(sizes, dtype=np.float64)
        count = len(sizes) if inverse is None else inverse.size
        fractional = column != np.trunc(column)
        if fractional.any():
            raise ByteSizeError(
                f"{hook} sized a record at {float(column[fractional][0])!r} "
                f"bytes: a byte size must be a whole number")
        if count * np.abs(column).max(initial=0.0) >= 2.0**53:
            raise ByteSizeError(
                f"{hook}: {count} records of up to "
                f"{np.abs(column).max():.0f} bytes could sum past 2**53")
        return cls(column=column if inverse is None else column[inverse])

    def take(self, index: np.ndarray) -> Sizes:
        """The sizes of the records ``index`` selects (a boolean mask or
        indices)."""
        if self.column is not None:
            return Sizes(column=self.column[index])
        index = np.asarray(index)
        return Sizes(int(np.count_nonzero(index) if index.dtype == np.bool_
                         else index.size), self.each)

    def total(self) -> float:
        if self.column is None:
            return self.count * self.each
        return float(self.column.sum())

    def by(self, groups: np.ndarray, width: int,
           counts: np.ndarray | None = None) -> np.ndarray:
        """Per-group sums: entry ``g`` sums the records ``groups == g``
        (``width`` groups; ``counts``, if the caller has it, is
        ``np.bincount(groups, minlength=width)``)."""
        if self.column is None:
            if counts is None:
                counts = np.bincount(groups, minlength=width)
            return counts * self.each
        return np.bincount(groups, weights=self.column, minlength=width)

    def segments(self, bounds: Sequence[int]) -> np.ndarray:
        """Per-segment sums: entry ``i`` sums records
        ``bounds[i]:bounds[i + 1]``."""
        bounds = np.asarray(bounds)
        counts = bounds[1:] - bounds[:-1]
        if self.column is None:
            return counts * self.each
        return self.by(np.repeat(np.arange(counts.size), counts),
                       counts.size)


def record_sizes(values: Any, header: float,
                 value_nbytes: Any = None) -> Sizes:
    """Each record's bytes: ``header`` plus its payload.

    A :class:`Ragged` row's payload is ``VALUE_BYTES`` per id, read off
    the offsets; any other value's is ``value_nbytes(value)``, or
    ``VALUE_BYTES`` when no hook is given.  A typed column calls the
    hook once per distinct value — distinct by bit pattern, so ``-0.0``
    and ``0.0`` are sized apart — and an object column or a list once
    per record.
    """
    if isinstance(values, Ragged):
        return Sizes(column=header + VALUE_BYTES
                     * values.lengths().astype(np.float64))
    if value_nbytes is None:
        return Sizes(len(values), float(header + VALUE_BYTES))
    inverse = None
    if isinstance(values, np.ndarray) and (
            values.dtype.kind in "biuSU"
            or (values.dtype.kind == "f" and values.itemsize <= 8)):
        bits = (values.view(f"u{values.itemsize}")
                if values.dtype.kind == "f" else values)
        _, first, inverse = np.unique(bits, return_index=True,
                                      return_inverse=True)
        values = values[first]
    return Sizes.of([header + value_nbytes(v) for v in _as_list(values)],
                    getattr(value_nbytes, "__qualname__", "value_nbytes"),
                    inverse)


def distinct_rows(rows_of: np.ndarray, ids: np.ndarray,
                  num_rows: int) -> Ragged:
    """Row ``r`` holds the distinct ``ids[rows_of == r]``, ascending.

    One sort of :func:`~repro.graph.digraph.pair_keys` ``(row, id)``
    keys with the sorted-distinct mask: each row's set union, as the
    scalar ``tuple(sorted(set(...)))`` lists it.
    """
    if ids.size == 0:
        return Ragged(np.zeros(num_rows + 1, dtype=np.int64),
                      np.zeros(0, dtype=np.int64))
    lo = int(ids.min())
    width = int(ids.max()) - lo + 1
    indptr, indices = csr_from_keys(
        pair_keys(np.asarray(rows_of, dtype=np.int64), ids - lo, num_rows,
                  width),
        num_rows, width, dedup=True)
    return Ragged(indptr, indices + lo)


def group_ids(keys: np.ndarray) -> Grouped:
    """Group ``keys`` without moving them.

    Returns ``(uniq, gid, counts)``: ``uniq`` the distinct keys sorted
    ascending (``keys``' dtype; first-arrival order for object keys),
    ``gid[j]`` the index into ``uniq`` of record ``j``'s key and
    ``counts[i]`` how many records have key ``uniq[i]``.  Records keep
    their input order, so ``values[gid == i]`` is key ``i``'s bag in
    arrival order.  Empty input gives three empty
    arrays.
    """
    grouping = Grouping(keys, ranked=True)
    return grouping.uniq, grouping.index, grouping.counts


class Grouping:
    """The groups of one key column, built once and folded many times.

    ``uniq`` holds the distinct keys ascending (the keys' dtype; object
    keys in first-arrival order) and ``counts`` how many records each
    has.  Record ``j`` folds into entry ``index[j]`` of a
    ``width``-entry table.  A *ranked* grouping's table is ``uniq``
    itself, so ``index`` is each record's group id; an unranked counting
    grouping (one fold, no rank gather) folds by slot ``key - min`` and
    keeps the ``occupied`` slots afterwards; ``by_slot=True`` takes the
    counting strategy whatever the span.  The sorted and hashed
    strategies are always ranked.  Both forms give the same groups and
    the same order-exact fold, groups ascending unless
    :meth:`permuted`.

    Never changed once built: new keys take a new grouping, and a (deep)
    copy is the object itself, so a checkpoint shares a held grouping
    instead of copying it.  :meth:`narrow` — the form held across rounds
    — also makes the arrays read-only.  (Fresh ones stay writable:
    ``np.bincount`` copies a read-only input.)
    """

    __slots__ = ("uniq", "counts", "index", "width", "occupied")

    def __init__(self, keys: np.ndarray, ranked: bool = False,
                 by_slot: bool = False) -> None:
        occupied = None
        if keys.size == 0:
            none = np.zeros(0, dtype=np.intp)
            uniq, index, counts = keys[:0], none, none
        elif keys.dtype == object:
            uniq, index, counts = group_hashed(keys)
        elif (lo := keys.min() if by_slot
              else _counting_low(keys)) is None:
            uniq, index, counts = group_sorted(keys)
        elif ranked:
            uniq, index, counts = group_counting(keys, lo)
        else:
            uniq, index, per_slot, occupied = _slots(keys, lo)
            counts = per_slot[occupied]
            if occupied.size == per_slot.size:
                occupied = None  # every slot holds a group: slot == rank
        self.uniq, self.counts, self.index = uniq, counts, index
        self.occupied = occupied
        #: entries of the fold's table: groups, or slots when unranked
        self.width = int(uniq.size if occupied is None else per_slot.size)

    def rank(self) -> Grouping:
        """This grouping, ranked: ``index`` becomes each record's group
        id (one gather for an unranked one; itself when ranked)."""
        if self.occupied is None:
            return self
        rank = np.empty(self.width, dtype=np.intp)
        rank[self.occupied] = np.arange(self.occupied.size)
        return _grouping(self.uniq, self.counts, rank[self.index],
                         int(self.uniq.size), None)

    def narrow(self, records: bool = True,
               uniq: np.ndarray | None = None) -> Grouping:
        """This grouping held across rounds: ``index`` and ``counts`` in
        the narrowest unsigned dtypes that hold them, every array
        read-only.  Widen ``index`` to ``np.intp`` before indexing with
        it (:meth:`fold` does).  ``uniq`` replaces the distinct keys by
        the same keys in another dtype.  ``records=False`` keeps nothing
        per record, and no ``occupied`` either — only for an unranked
        ``by_slot`` grouping (perhaps :meth:`permuted`), whose slots
        :meth:`at` recomputes."""
        out = _grouping(self.uniq if uniq is None else uniq,
                        _narrowed(self.counts,
                                  int(self.counts.max(initial=0)) + 1),
                        _narrowed(self.index, self.width) if records
                        else None, self.width,
                        self.occupied if records else None)
        for array in (out.uniq, out.counts, out.index, out.occupied):
            if array is not None:
                array.flags.writeable = False
        return out

    def permuted(self, order: np.ndarray) -> Grouping:
        """The same groups listed in ``order`` (a permutation of the
        group positions): ``uniq`` and ``counts`` reordered, and a fold
        returns its groups in that order."""
        return _grouping(self.uniq[order], self.counts[order], self.index,
                         self.width, order if self.occupied is None
                         else self.occupied[order])

    def at(self, keys: np.ndarray) -> Grouping:
        """This grouping over ``keys``, the column it was built from,
        with ``uniq`` in the keys' dtype and ``counts`` as ``np.intp``.
        A grouping narrowed without its records gets each record's slot
        back as ``key - lo`` and its groups' as ``uniq - lo``, ``lo``
        the least key."""
        uniq = self.uniq.astype(keys.dtype, copy=False)
        counts = self.counts.astype(np.intp, copy=False)
        index, occupied = self.index, self.occupied
        if index is None:
            lo = int(uniq.min()) if uniq.size else 0
            index = (keys - lo if lo else keys).astype(np.intp, copy=False)
            occupied = uniq.astype(np.intp) - lo
        return _grouping(uniq, counts, index, self.width, occupied)

    def fold(self, values: Any, ufunc: Any) -> Any:
        """Left-fold ``values`` (aligned with the grouped keys) per
        group, in input order: ``merged[i]`` folds group ``uniq[i]``'s
        values by ``ufunc``.  A :class:`Ragged` column folds by one of
        :data:`RAGGED_FOLDS`; a ``ufunc`` that is no NumPy ufunc (a
        Python ``merge(a, b)``) folds into an object column."""
        size = values.size if isinstance(values, Ragged) else len(values)
        if size != self.index.size:
            raise ValueError(f"{size} values for a grouping of "
                             f"{self.index.size} records")
        if isinstance(values, Ragged):
            return _fold_rows(self.rank(), values, ufunc)
        if not isinstance(ufunc, np.ufunc):
            ranked = self.rank()
            return _fold_python(ranked.index, values, ufunc, ranked.width)
        if self.index.size == 0:
            return values[:0]
        merged = _accumulate(self.index.astype(np.intp, copy=False),
                             values, ufunc, self.width)
        return merged if self.occupied is None else merged[self.occupied]

    def __copy__(self) -> Grouping:
        return self

    def __deepcopy__(self, memo: dict[int, Any]) -> Grouping:
        return self


def _grouping(uniq: np.ndarray, counts: np.ndarray, index: Any,
              width: int, occupied: Any) -> Grouping:
    out = object.__new__(Grouping)
    out.uniq, out.counts, out.index = uniq, counts, index
    out.width, out.occupied = int(width), occupied
    return out


def _narrowed(array: np.ndarray, bound: int) -> np.ndarray:
    """Non-negative ``array`` (all below ``bound``) in the narrowest
    unsigned dtype."""
    return array.astype(np.min_scalar_type(max(bound - 1, 0)), copy=False)


def _counting_low(keys: np.ndarray) -> Any:
    """The strategy choice: counting for integer keys whose span is
    within ``COUNTING_SPAN_FACTOR`` times their count (non-empty).
    Returns the least key when counting fits, else None — the bounds
    are read once and the slots start from that key."""
    if keys.dtype.kind not in "iu":
        return None
    lo = keys.min()
    span = int(keys.max()) - int(lo) + 1
    return lo if span <= COUNTING_SPAN_FACTOR * keys.size else None


def _slots(keys: np.ndarray, lo: Any) -> tuple[np.ndarray, ...]:
    """Counting: ``(uniq, slot, per_slot, occupied)`` — each record's
    slot ``key - lo`` (``lo`` the least key), the records per slot, the
    occupied slots."""
    slot = keys - lo
    if slot.dtype != np.intp:
        # offsets wrap in narrow signed dtypes; read them back unsigned
        slot = slot.view(f"u{slot.itemsize}").astype(np.intp)
    per_slot = np.bincount(slot)
    occupied = np.flatnonzero(per_slot > 0)  # a bool scan is 3x faster
    uniq = occupied.astype(keys.dtype, copy=False) + lo
    return uniq, slot, per_slot, occupied


def group_counting(keys: np.ndarray, lo: Any) -> Grouped:
    """The sort-free strategy; ``keys`` non-empty and integer, ``lo``
    the least of them."""
    uniq, slot, per_slot, occupied = _slots(keys, lo)
    rank = np.empty(per_slot.size, dtype=np.intp)
    rank[occupied] = np.arange(occupied.size)
    return uniq, rank[slot], per_slot[occupied]


def group_hashed(keys: np.ndarray) -> Grouped:
    """The strategy for an object key column (any hashable keys, mixed
    types too): groups numbered by first arrival; ``keys`` non-empty."""
    first: dict[Any, int] = {}
    gid = np.fromiter((first.setdefault(key, len(first))
                       for key in keys.tolist()),
                      dtype=np.intp, count=keys.size)
    return object_column(list(first)), gid, np.bincount(gid)


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


def fold_by_dest(dests: np.ndarray, values: Any, ufunc: Any) -> Folded:
    """Left-fold ``values`` per destination, in input (emission) order:
    one :class:`Grouping` of ``dests``, folded once.

    Returns ``(uniq_dests, merged, counts)`` with ``uniq_dests`` sorted
    ascending (object dests in first-arrival order), ``merged[i]`` the
    left fold of ``ufunc`` over destination ``i``'s values in input
    order and ``counts[i]`` how many there were.  Empty input gives
    three empty arrays of the matching dtypes.  A :class:`Ragged` column
    folds by one of :data:`RAGGED_FOLDS`, and a Python ``merge`` in
    place of ``ufunc`` into an object column.
    """
    # ragged and Python folds need group ids; a ufunc folds by slot
    grouping = Grouping(dests, ranked=isinstance(values, Ragged)
                        or not isinstance(ufunc, np.ufunc))
    return grouping.uniq, grouping.fold(values, ufunc), grouping.counts


def _fold_rows(grouping: Grouping, values: Ragged, ufunc: Any) -> Ragged:
    """Each group's rows joined in input order (``np.concatenate``) or
    united, ascending (``np.union1d``); ``grouping`` ranked."""
    if ufunc is not np.concatenate and ufunc is not np.union1d:
        raise TypeError(f"a Ragged column folds by np.concatenate or "
                        f"np.union1d, not {ufunc!r}")
    gid = grouping.index
    if ufunc is np.union1d:
        return distinct_rows(gid[values.row_ids()], values.flat,
                             grouping.uniq.size)
    joined = values.take(np.argsort(gid, kind="stable"))
    bounds = np.zeros(grouping.uniq.size + 1, dtype=np.intp)
    np.cumsum(grouping.counts, out=bounds[1:])
    return Ragged(joined.offsets[bounds], joined.flat)


def _fold_python(gid: np.ndarray, values: np.ndarray, merge: Any,
                 groups: int) -> np.ndarray:
    """The Python left fold ``merge(merge(v1, v2), v3)`` of each group
    in input order — the reference the array folds are held to."""
    acc: list[Any] = [_EMPTY] * groups
    for g, value in zip(gid.tolist(), values.tolist()):
        held = acc[g]
        acc[g] = value if held is _EMPTY else merge(held, value)
    return object_column(acc)


def _accumulate(gid: np.ndarray, values: np.ndarray, ufunc: Any,
                groups: int) -> np.ndarray:
    """Sequential fold of ``values`` into ``groups`` slots by ``gid``.

    Slots no record maps to hold unspecified filler.
    """
    if ufunc is np.add and values.dtype == np.float64:
        # 0.0 + v1 + v2 + ...: the scalar sum()/merge chain exactly
        return np.bincount(gid, weights=values, minlength=groups)
    seed = _seed(ufunc, values.dtype)
    if seed is not None:
        # ufunc(seed, v1) is v1 bit for bit: one pass from the seed
        acc = np.full(groups, seed, dtype=values.dtype)
        ufunc.at(acc, gid, values)
        return acc
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


def _seed(ufunc: Any, dtype: np.dtype) -> Any:
    """The seed ``s`` with ``ufunc(s, x) == x`` bit for bit for every
    ``x`` of ``dtype`` (the module docstring's table), else None."""
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        return {np.minimum: info.max, np.maximum: info.min,
                np.add: 0}.get(ufunc)
    if dtype.kind == "f":
        return {np.minimum: np.inf, np.maximum: -np.inf}.get(ufunc)
    if dtype.kind == "b":
        return {np.logical_or: False, np.logical_and: True}.get(ufunc)
    return None

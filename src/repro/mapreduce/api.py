"""The home-grown MapReduce programming interface (Sections 2, 3.1).

Following the paper, ``map`` takes a whole *graph partition* as input — so
developers can (and for performance must) hand-roll partition-level data
reduction such as the NR hash table of Algorithm 2 — and ``reduce``
receives all values grouped by key after a hash-partitioned shuffle that is
oblivious to the graph structure.  The contrast in UDF size and shuffle
traffic against propagation is the point of Tables 2–4 and Figure 7.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.errors import JobError
from repro.graph.io import VALUE_BYTES, VERTEX_ID_BYTES

__all__ = ["MapReduceApp", "kv_nbytes"]

Emit = Callable[[Any, Any], None]


class MapReduceApp:
    """Base class for MapReduce applications on partitioned graphs."""

    name = "mr-app"
    #: outputs are per-vertex values the next round reads by partition,
    #: so reducers must ship them back to the graph layout (a cost
    #: propagation never pays — its Combine writes in place).
    writeback_to_partitions = False
    #: NumPy ufunc equivalent of ``combine`` (e.g. ``np.add``) — required
    #: for the map-side combiner on the array fast path.  Must reproduce
    #: ``combine`` bit for bit when left-folded over a key's values in
    #: emission order.
    combine_ufunc = None

    # ------------------------------------------------------------------
    # Lifecycle (mirrors PropagationApp)
    # ------------------------------------------------------------------
    def setup(self, pgraph: Any) -> Any:
        """Create the iteration state."""
        return None

    def update(self, state: Any, outputs: dict) -> None:
        """Fold one round's reduce outputs into the state (the dict
        form; columnar rounds go to :meth:`update_array`)."""
        values = getattr(state, "values", None)
        if values is None:
            raise JobError(
                f"{self.name}: override update() or give state a .values"
            )
        for key, value in outputs.items():
            values[key] = value

    def finalize(self, state: Any) -> Any:
        return state

    # ------------------------------------------------------------------
    # User-defined functions
    # ------------------------------------------------------------------
    def map(self, partition: int, pgraph: Any, state: Any,
            emit: Emit) -> None:
        """Process one graph partition, emitting (key, value) pairs."""
        raise JobError(f"{self.name}: map() not implemented")

    def reduce(self, key: Any, values: list, state: Any,
               emit: Emit) -> None:
        """Fold all values of ``key``, emitting output pairs."""
        raise JobError(f"{self.name}: reduce() not implemented")

    def combine(self, key: Any, values: list, state: Any) -> Any:
        """Map-side combiner: fold one key's values into a single value.

        Called per distinct key on a mapper's output (values in emission
        order) when the engine runs with ``combiner=True``; the fold must
        be associative so that reducing combined partials equals reducing
        the raw values.  Apps that also set :attr:`combine_ufunc` must
        make the two agree bit for bit — the array fast path left-folds
        with the ufunc in the same emission order.
        """
        raise JobError(f"{self.name}: combine() not implemented")

    # -- vectorized (array-at-a-time) variants --------------------------
    def map_array(self, partition: int, pgraph: Any,
                  state: Any) -> tuple[np.ndarray, np.ndarray] | None:
        """Vectorized ``map``: columnar ``(keys, values)`` for a partition.

        Opt-in hook of the MapReduce array path.  Must return two
        aligned ndarrays — integer (or fixed-width bytes) ``keys`` and
        ``values`` — listing, *in emission order*, exactly the pairs the
        scalar ``map`` would have emitted; or ``None`` to decline, in
        which case the engine runs the scalar ``map`` for this partition
        alone and shuffles its pairs as columns with the others.  Record
        count, per-key value order and the bit patterns of the values
        must match the scalar path exactly.  The key wire size must be
        the default; the value size may be any: a typed column under an
        overridden ``value_nbytes`` is sized once per distinct value
        (:func:`repro.fold.record_sizes`), a
        :class:`~repro.fold.Ragged` column of id lists in closed form.

        ``keys`` may repeat from round to round — a fixed graph's keys
        usually do, and an app may return the very same (read-only)
        array again.  The engine then replays the shuffle it planned
        for them, but only after checking the keys against the copy it
        holds, record for record, so keys that changed — even in place,
        in an array returned before — take a new plan.
        """
        return None

    def reduce_array(self, keys: np.ndarray, gid: np.ndarray,
                     values: np.ndarray,
                     state: Any) -> tuple[np.ndarray, Any] | None:
        """Vectorized ``reduce`` over one reducer's records, unsorted.

        ``values`` holds the reducer's records in shuffle arrival order
        (partition order, then emission order), ``keys`` its distinct
        keys sorted ascending and ``gid`` each record's index into
        ``keys`` (see :func:`repro.fold.group_ids`): key ``i``'s bag is
        ``values[gid == i]``, in the order the scalar ``reduce`` sees it.
        ``keys`` and ``gid`` are read-only: a reducer's grouping is
        planned once and replayed while its input keys repeat.
        Must return output columns ``(out_keys, out_values)`` —
        ``out_values`` an aligned ndarray, or a list where the values are
        not numeric — holding exactly the pairs the scalar ``reduce``
        emits per group, each key drawn from ``keys`` at most once (the
        engine writes the columns straight into the state).  Or ``None``
        to decline: this reducer alone then hands the scalar ``reduce``
        each group's bag, in ``keys`` order, and the round's outputs
        become one dict.  Called only for a typed value column: a
        reducer that received values from a scalar ``map`` takes the
        scalar ``reduce`` directly.
        """
        return None

    def update_array(self, state: Any, keys: np.ndarray,
                     values: Any) -> None:
        """Columnar ``update``: must leave ``state`` equal to
        ``update(state, dict(zip(keys, values)))``.

        Receives the round's ``reduce_array`` columns.  The default
        mirrors the default ``update`` for an ndarray ``state.values``;
        apps that override ``update`` get this hook only by overriding
        it too (otherwise their ``update`` is handed the dict).
        """
        target = getattr(state, "values", None)
        if not isinstance(target, np.ndarray):
            raise JobError(
                f"{self.name}: override update_array() or keep "
                "state.values an ndarray"
            )
        target[keys] = values

    # ------------------------------------------------------------------
    # Cost-model sizing hooks
    # ------------------------------------------------------------------
    def key_nbytes(self, key: Any) -> float:
        return float(VERTEX_ID_BYTES)

    def value_nbytes(self, value: Any) -> float:
        """On-wire payload size of one intermediate value.

        A size is a whole number of bytes, as are ``key_nbytes``' and
        ``output_nbytes``' (the cluster's traffic counters count whole
        bytes): a fractional one raises
        :class:`~repro.errors.ByteSizeError`."""
        return float(VALUE_BYTES)

    def output_nbytes(self, key: Any, value: Any) -> float:
        return self.key_nbytes(key) + self.value_nbytes(value)


def kv_nbytes(app: MapReduceApp, key: Any, value: Any) -> float:
    """Wire size of one intermediate key/value record."""
    return app.key_nbytes(key) + app.value_nbytes(value)

"""The propagation programming interface (Section 3.2).

Developers subclass :class:`PropagationApp` and implement the paper's two
user-defined functions::

    transfer: (v, v') -> (v', value)    # export data along an edge
    combine:  (v, bag of values) -> (v, value')   # fold arrivals at v

plus optional hooks:

* ``merge(a, b)`` with ``is_associative = True`` annotates the combine as
  associative, enabling the *local combination* optimization (Section 5.1);
* ``select(u, state)`` restricts transfers to a vertex subset (TC and TFL
  run on 10 % samples in the paper);
* array twins (``transfer_array``, ``select_array``, ``combine_array``,
  ``update_array``, ``merge_ufunc``) replace the per-message and
  per-vertex UDF calls with one call per message column, bit-identical
  to the scalar UDFs;
* virtual vertices (Section 3.3): apps with ``uses_virtual_vertices = True``
  implement ``virtual_transfer`` / ``virtual_combine``, letting
  vertex-oriented tasks such as VDD emulate MapReduce on top of
  propagation.

The engine owns distribution, routing, locality optimizations and cost
accounting; the UDFs stay tiny — that asymmetry is the paper's
programmability claim (Table 4).
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from repro.errors import JobError
from repro.fold import fold_by_dest  # re-exported: its first home
from repro.graph.io import VALUE_BYTES, VERTEX_ID_BYTES

__all__ = ["PropagationApp", "fold_by_dest", "message_nbytes"]


class PropagationApp:
    """Base class for propagation applications.

    Subclasses implement ``transfer`` and ``combine`` (or the virtual
    variants) and may override the annotations and sizing hooks below.
    """

    name = "app"
    #: ``combine`` is associative/commutative; enables local combination.
    is_associative = False
    #: call ``combine`` on vertices that received no messages too.
    combine_all_vertices = False
    #: app emits to virtual vertices instead of along edges.
    uses_virtual_vertices = False
    #: app maintains a sparse active set: ``frontier(state)`` returns the
    #: boolean active mask (``select`` must agree with it), enabling the
    #: engine's frontier mode — frontier-sliced Transfer reads, top-down/
    #: bottom-up direction switching, per-partition frontier exchange.
    uses_frontier = False
    #: NumPy ufunc equivalent of ``merge`` (e.g. ``np.add``) — required
    #: for the array path of associative apps and for ``combine_array``.
    #: Apps whose values are id lists name a ragged fold instead
    #: (``staticmethod(np.concatenate)`` or ``staticmethod(np.union1d)``,
    #: see :mod:`repro.fold`).
    merge_ufunc = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def setup(self, pgraph: Any) -> Any:
        """Create the iteration state (ranks, flags, ...)."""
        return None

    def update(self, state: Any, combined: dict) -> None:
        """Fold one iteration's combine outputs into the state.

        ``combined`` maps vertex (or virtual key) to the combine result.
        The default stores them on ``state.values`` when present.
        """
        values = getattr(state, "values", None)
        if values is None:
            raise JobError(
                f"{self.name}: override update() or give state a .values"
            )
        for v, value in combined.items():
            values[v] = value

    def update_array(self, state: Any, vertices: np.ndarray,
                     values: np.ndarray) -> None:
        """Columnar ``update``: must leave ``state`` equal to
        ``update(state, dict(zip(vertices, values)))``.

        ``vertices`` are unique.  The default mirrors the default
        ``update`` for an ndarray ``state.values``; apps that override
        ``update`` get this hook only by overriding it too (otherwise
        their ``update`` is handed the dict).
        """
        target = getattr(state, "values", None)
        if not isinstance(target, np.ndarray):
            raise JobError(
                f"{self.name}: override update_array() or keep "
                "state.values an ndarray"
            )
        target[vertices] = values

    def finalize(self, state: Any) -> Any:
        """Produce the application result after the last iteration."""
        return state

    # ------------------------------------------------------------------
    # User-defined functions
    # ------------------------------------------------------------------
    def select(self, u: int, state: Any) -> bool:
        """Whether vertex ``u`` participates in the Transfer stage."""
        return True

    def frontier(self, state: Any) -> np.ndarray:
        """Boolean active mask over *all* vertices (frontier apps only).

        Apps with ``uses_frontier = True`` must implement this.  The
        engine's frontier mode scans exactly the masked vertices instead
        of calling ``select`` per vertex, so the mask must satisfy
        ``bool(mask[u]) == select(u, state)`` for every vertex — the
        UDF002 frontier contract checks the agreement.  The mask is read
        at the start of each iteration; ``update()`` computes the next
        one.
        """
        raise JobError(f"{self.name}: frontier() not implemented")

    def transfer(self, u: int, v: int, state: Any) -> Any:
        """Value exported from ``u`` to its out-neighbor ``v`` (or None)."""
        raise JobError(f"{self.name}: transfer() not implemented")

    def combine(self, v: int, values: list, state: Any) -> Any:
        """Fold the bag of ``values`` that arrived at ``v``."""
        raise JobError(f"{self.name}: combine() not implemented")

    def merge(self, a: Any, b: Any) -> Any:
        """Associative pairwise merge (required if ``is_associative``)."""
        raise JobError(f"{self.name}: merge() not implemented")

    # -- vectorized (array-at-a-time) variants --------------------------
    def select_array(self, vertices: np.ndarray,
                     state: Any) -> np.ndarray | None:
        """Vectorized ``select``: boolean mask over ``vertices``.

        ``None`` (the default) means *all selected*, matching the default
        scalar ``select``.  Apps that override ``select`` must also
        override this to be eligible for the fast path.  Like every
        array hook, it may run concurrently for different partitions
        and may only read ``state``; all writes belong in ``update`` /
        ``update_array``.
        """
        return None

    def transfer_array(self, src: np.ndarray, dst: np.ndarray,
                       state: Any) -> np.ndarray | None:
        """Vectorized ``transfer``: one value per edge ``(src[i], dst[i])``.

        Opt-in hook of the array path.  Must return an array (or, for
        id-list values, a :class:`~repro.fold.Ragged` column folded by a
        ragged ``merge_ufunc``) aligned with ``src``/``dst`` whose
        element ``i`` is bit-identical to ``transfer(src[i], dst[i],
        state)`` — a ragged row equal as a list (``a + b`` apps) or as a
        set (``a | b`` apps) — or ``None`` to decline,
        in which case the engine runs the scalar ``transfer`` over that
        partition.  Edges whose scalar ``transfer`` would return
        ``None`` cannot be expressed here; such apps MUST stay on the
        scalar ``transfer`` (decline by returning ``None``).  Violating
        this diverges both the results and the cost accounting: the
        engine charges one cpu op per scanned edge plus one per *routed*
        message, and a ``None`` return routes nothing, while every
        element of this column is routed — the "bit-identical"
        guarantee holds only when no edge returns ``None``.

        It may run concurrently for different partitions, and so may
        the scalar ``select`` / ``transfer`` fallback of a partition it
        declines: both may only read ``state``.
        """
        return None

    def combine_array(self, vertices: np.ndarray, folded: np.ndarray,
                      counts: np.ndarray, state: Any) -> Any:
        """Vectorized ``combine`` over one partition's arrivals.

        ``folded[i]`` is the left fold of ``merge_ufunc`` over vertex
        ``vertices[i]``'s bag in arrival order and ``counts[i]`` the bag's
        length — 0 only for ``combine_all_vertices`` vertices nothing
        arrived at, where ``folded[i]`` is unspecified filler.  Element
        ``i`` of the result must be bit-identical to
        ``combine(vertices[i], bag_i, state)``.  An app whose
        ``combine`` may return ``None`` answers ``(values, present)``
        instead — "None is a mask": where ``present[i]`` is False the
        vertex gets no output (no update, no output bytes), exactly as
        when ``combine`` returns ``None``, and ``values[i]`` is ignored;
        ``values`` is an array or a ragged column like a plain answer.
        Apps whose ``combine`` reads more than its bag keep the default,
        and the engine hands ``combine`` the bags (as it does when this
        returns ``None``).  It, and that ``combine`` fallback, may run
        concurrently for different partitions and may only read
        ``state``.
        """
        return None

    # -- virtual-vertex variants ----------------------------------------
    def virtual_transfer(self, u: int, state: Any) -> Iterable[tuple]:
        """Yield ``(virtual_key, value)`` pairs from vertex ``u``."""
        raise JobError(f"{self.name}: virtual_transfer() not implemented")

    def virtual_combine(self, key: Any, values: list, state: Any) -> Any:
        """Fold the values that arrived at virtual vertex ``key``."""
        raise JobError(f"{self.name}: virtual_combine() not implemented")

    # ------------------------------------------------------------------
    # Cost-model sizing hooks
    # ------------------------------------------------------------------
    def value_nbytes(self, value: Any) -> float:
        """On-wire payload size of one transfer value.

        The engine sizes a typed message column once per distinct value
        (see :func:`repro.fold.record_sizes`), so the size must depend
        on the value alone; a ragged column is charged in closed form,
        ``VALUE_BYTES`` per id.  A size is a whole number of bytes (the
        cluster's traffic counters count whole bytes): a fractional one
        raises :class:`~repro.errors.ByteSizeError`."""
        return float(VALUE_BYTES)

    def result_nbytes(self, v: Any, value: Any) -> float:
        """On-disk size of one combine output record."""
        return float(VALUE_BYTES)


def message_nbytes(app: PropagationApp, value: Any) -> float:
    """Full message size: destination id plus payload."""
    return VERTEX_ID_BYTES + app.value_nbytes(value)

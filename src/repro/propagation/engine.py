"""Single-iteration propagation execution (Algorithm 5) with optimizations.

One iteration is two barrier stages per partition:

* **Transfer** — scan the partition's adjacency, call ``transfer`` on each
  out-edge of each selected vertex, route the messages:

  - destination in the same partition and *inner* vertex: with local
    optimizations the combine runs immediately in memory (*local
    propagation*) — no intermediate disk I/O;
  - destination in the same partition but *boundary* vertex: spilled to
    local disk to wait for remote arrivals;
  - destination in a remote partition: grouped per remote partition; with
    an associative combine the group is merged first (*local combination*)
    so one value per distinct destination crosses the network; sends to a
    partition co-located on the same machine are free.

* **Combine** — stage the arrivals to disk, fold them with ``combine``,
  write the outputs.

Without local optimizations (levels O1/O2) every message is materialized
to disk and every cross-partition message crosses the network unmerged —
which is exactly the traffic gap Tables 2 and 3 measure.

Every app's messages travel one path, as ``(dests, values)`` columns.
Each partition's Transfer emits one column: ``transfer_array``'s where
the app has the hook and it answers, else the scalar ``transfer`` (or
``virtual_transfer``) loop's, its values an object column.  The route
plans, then applies: a :class:`~repro.core.partitioned.RoutePlan` lays
the column's rows — under local combination its distinct destinations,
merged once by the app's ``merge_ufunc`` (typed) or ``merge`` (object),
else its messages — out as local propagation, boundary spill and
per-partition cross runs.  A dense select-all array column reuses its
partition's held destination index (built on the caller at the first
such Transfer); any other column plans afresh.  Combine concatenates
each partition's arrivals in source order and folds them for
``combine_array`` or hands the scalar ``combine`` its bags.  Each
routed column is sized once (:func:`~repro.fold.record_sizes`).
``vectorized=False`` calls only the scalar UDFs and reads no held
index, which keeps it the oracle the hooks are held to;
docs/COST_MODEL.md has the layout and the closed-form charges.  A large
array-path Transfer runs its partitions on the partition pool, so the
UDFs may run concurrently and may only read the state.

**Frontier mode** (``frontier=True``, for apps with ``uses_frontier``)
scans only each partition's active vertices per iteration: the Transfer
read is priced by a top-down/bottom-up direction switch keyed on
frontier density (Buluç–Madduri), and each partition announces its
frontier summary (bitmap or index array, whichever is smaller) to the
other machines through the regular send path.  Message products, cpu
charges and all ``propagation.*`` counters stay bit-identical to the
dense path — only the transfer-task disk reads shrink and the
``frontier.*`` counters/exchange traffic appear.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.storage import PartitionStore
from repro.errors import JobError
from repro.graph.io import DEGREE_BYTES, VALUE_BYTES, VERTEX_ID_BYTES
from repro.hashing import stable_hash
from repro.fold import (MESSAGE_HEADER, RECORD_HEADER, Grouping, Ragged,
                        bags, concat_values, fold_by_dest, is_typed,
                        merge_outputs, object_column, record_sizes)
from repro.propagation.api import PropagationApp
from repro.runtime.events import Span, wall_timer
from repro.runtime.partition_pool import map_partitions
from repro.runtime.scheduler import StageScheduler
from repro.runtime.tasks import Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.partitioned import PartitionedGraph, RoutePlan

__all__ = ["IterationReport", "PropagationEngine", "virtual_partition"]


def virtual_partition(key: object, num_parts: int) -> int:
    """Deterministic partition of a virtual vertex key (hash routing).

    Uses :func:`repro.hashing.stable_hash`, never the salted built-in
    ``hash`` — re-executed tasks and sibling processes must route a key
    identically regardless of ``PYTHONHASHSEED``.
    """
    return stable_hash(key) % num_parts


@dataclass
class IterationReport:
    """Cost breakdown of one propagation iteration.

    The ``frontier_*`` fields are populated only in frontier mode: the
    total active vertices scanned, the frontier-summary bytes exchanged
    between machines, the per-partition top-down/bottom-up direction
    flips relative to the previous iteration, and the number of
    partitions scanned bottom-up.
    """

    transfer_stage: Span
    combine_stage: Span
    messages_emitted: int = 0
    messages_shipped: int = 0
    network_bytes: float = 0.0
    spill_bytes: float = 0.0
    locally_propagated: int = 0
    frontier_active: int = 0
    frontier_exchange_bytes: float = 0.0
    frontier_direction_switches: int = 0
    frontier_bottom_up_scans: int = 0

    @property
    def elapsed(self) -> float:
        return self.combine_stage.end - self.transfer_stage.start


@dataclass
class _FrontierInfo:
    """Frontier-mode plan for one partition in one iteration.

    ``active`` holds the partition's active vertices ascending — the
    same enumeration order as the dense path's select-filtered scan, so
    both paths emit the identical message sequence.  ``read_bytes``
    prices the planned scan (frontier-row gather or full sequential
    scan) and replaces the dense transfer-task read; ``resident_bytes``
    is the matching working set for the memory-penalty rule.
    ``exchange_sends`` carries the frontier summary to every other
    machine hosting partitions, priced through the regular Task send
    path so ``reconcile()`` stays exact.  ``m_f``: the edges scanned.
    """

    active: np.ndarray
    m_f: int
    direction: str
    read_bytes: float
    resident_bytes: float
    summary_bytes: float
    exchange_sends: list[tuple[int, float]]
    switched: bool


#: messages as aligned ``(dests, values)`` arrays, in arrival order
Columns = tuple[np.ndarray, np.ndarray]
#: one stage's combine outputs: ``{vertex: value}`` from the scalar
#: loop, ``(vertices, values)`` columns from ``combine_array``
Outputs = dict | Columns


@dataclass
class _PartitionTransfer:
    """Products of one partition's Transfer stage: its accounting and its
    messages as columns.  ``local`` is the boundary spill, ``cross``
    every cross-partition message bucketed by destination partition —
    partition ``q``'s slice is ``cross_offsets[q]:cross_offsets[q + 1]``,
    in emission order.
    """

    spill_bytes: float = 0.0
    cpu_ops: float = 0.0
    output_bytes: float = 0.0
    messages: int = 0
    locally_propagated: int = 0
    #: wire bytes to each destination partition that is sent anything
    send_bytes: dict[int, float] = field(default_factory=dict)
    #: cross-partition entries on the wire (raw, or one per distinct
    #: destination when local combination merged them)
    shipped: int = 0
    #: local propagation: its outputs and every vertex it visited
    inner_out: Outputs = field(default_factory=dict)
    inner_seen: Any = ()
    local: Columns | None = None
    cross: Columns | None = None
    cross_offsets: np.ndarray | None = None


class PropagationEngine:
    """Executes propagation iterations on a partitioned graph."""

    #: Random-access multiplier for top-down frontier gathers: reading
    #: the adjacency rows of scattered active vertices costs this factor
    #: over a sequential scan of the same bytes.  The direction switch
    #: compares the penalized top-down gather against one full
    #: sequential (bottom-up) scan — the Buluç–Madduri/Beamer frontier
    #: density criterion expressed in bytes.
    RANDOM_GATHER_FACTOR = 4.0

    def __init__(
        self,
        pgraph: PartitionedGraph,
        store: PartitionStore,
        cluster: Cluster,
        local_opts: bool = True,
        values_io_fraction: np.ndarray | None = None,
        assignment: np.ndarray | None = None,
        vectorized: bool | None = None,
        frontier: bool = False,
    ) -> None:
        """``values_io_fraction[p]`` scales the per-iteration value I/O of
        partition ``p`` (used by cascaded propagation to model skipped
        intermediate reads/writes).  ``assignment[p]`` is the machine the
        job manager dispatches partition ``p``'s tasks to (must hold a
        replica); defaults to the primaries.  ``vectorized`` picks the
        UDFs: ``None`` uses an array hook wherever one answers,
        ``False`` calls only the scalar ones (the equivalence oracle),
        ``True`` requires the hooks and raises :class:`JobError` if the
        app lacks them or a hook declines.  ``frontier=True``
        enables sparse active-set execution for apps with
        ``uses_frontier = True``: each iteration scans only the app's
        active mask, prices the Transfer read by the chosen scan
        direction, and exchanges per-partition frontier summaries —
        message products and all ``propagation.*`` counters stay
        bit-identical to the dense path."""
        self.pgraph = pgraph
        self.store = store
        self.cluster = cluster
        self.local_opts = local_opts
        self.vectorized = vectorized
        self.frontier = frontier
        if values_io_fraction is None:
            values_io_fraction = np.ones(pgraph.num_parts)
        self.values_io_fraction = values_io_fraction
        if assignment is None:
            assignment = store.placement_array()
        self.assignment = np.asarray(assignment, dtype=np.int64)
        #: per-partition scan direction of the previous iteration
        #: (frontier mode); reset with the engine on job restart, which
        #: keeps the switch counter deterministic along the restart path.
        self._directions: dict[int, str] = {}
        self._out_degrees: np.ndarray | None = None

    def machine_of(self, partition: int) -> int:
        return int(self.assignment[partition])

    def _memory_penalty(self, machine: int, working_set: float) -> float:
        """Random-I/O slowdown when the working set exceeds memory (P2)."""
        spec = self.cluster.machine(machine).spec
        if working_set > spec.memory_bytes:
            return spec.random_io_penalty
        return 1.0

    # ------------------------------------------------------------------
    def run_iteration(
        self,
        app: PropagationApp,
        state: Any,
        scheduler: StageScheduler,
    ) -> tuple[Outputs, IterationReport]:
        """Execute one iteration; returns (combine outputs, report).

        The outputs are ``(vertices, values)`` columns when every
        partition's Combine answered ``combine_array``, else one
        ``{vertex: value}`` dict.
        """
        num_parts = self.pgraph.num_parts
        timer = wall_timer()
        plans = self._plan_frontier(app, state) if self.frontier else None
        finfos: Sequence[_FrontierInfo | None] = plans or [None] * num_parts
        transfers = self._run_transfers(app, state, finfos)
        transfer_tasks = [
            self._transfer_task(p, transfers[p], finfos[p])
            for p in range(num_parts)
        ]
        transfer_wall = timer.elapsed()
        transfer_result = scheduler.run_stage(transfer_tasks)

        timer = wall_timer()
        # who sends each partition messages, ascending: itself (its
        # spill) and every partition with a cross slice for it
        senders: list[list[int]] = [[] for _ in range(num_parts)]
        for p, t in enumerate(transfers):
            for q in (p, *t.send_bytes):
                senders[q].append(p)
        combines = [self._run_combine_array(app, state, q, transfers,
                                            senders[q])
                    for q in range(num_parts)]
        outs: list[Outputs] = [out for _, out in combines]
        if self.local_opts:
            outs.extend(t.inner_out for t in transfers)
        combined = merge_outputs(outs)
        combine_wall = timer.elapsed()
        combine_result = scheduler.run_stage([task for task, _ in combines])

        report = IterationReport(
            transfer_stage=transfer_result,
            combine_stage=combine_result,
            messages_emitted=sum(t.messages for t in transfers),
            messages_shipped=sum(t.shipped for t in transfers),
            network_bytes=sum(nbytes for t in transfers
                              for nbytes in t.send_bytes.values()),
            spill_bytes=sum(t.spill_bytes for t in transfers),
            locally_propagated=sum(t.locally_propagated for t in transfers),
        )
        if plans is not None:
            report.frontier_active = sum(
                int(i.active.size) for i in plans)
            report.frontier_exchange_bytes = sum(
                nbytes for i in plans for _, nbytes in i.exchange_sends)
            report.frontier_direction_switches = sum(
                1 for i in plans if i.switched)
            report.frontier_bottom_up_scans = sum(
                1 for i in plans if i.direction == "bottom-up")
        self._observe_iteration(scheduler, report,
                                transfer_wall + combine_wall)
        return combined, report

    def _observe_iteration(self, scheduler: StageScheduler,
                           report: IterationReport,
                           udf_wall_seconds: float) -> None:
        """Record the iteration's span and metrics on the job's stream.

        The UDF wall time (running transfer/combine in Python, outside
        the simulated cost model) lands on the iteration span and the
        ``wall.udf_seconds`` counter, keeping simulator overhead
        separable from simulated cost.
        """
        stream = scheduler.events
        iteration = int(stream.metrics.get("propagation.iterations"))
        stream.span(Span(
            name=f"iteration[{iteration}]",
            kind="iteration",
            start=report.transfer_stage.start,
            end=report.combine_stage.end,
            wall_self_seconds=udf_wall_seconds,
        ))
        m = stream.metrics
        m.add("propagation.iterations")
        m.add("propagation.messages_emitted", report.messages_emitted)
        m.add("propagation.messages_shipped", report.messages_shipped)
        m.add("propagation.network_bytes", report.network_bytes)
        m.add("propagation.spill_bytes", report.spill_bytes)
        m.add("propagation.locally_propagated", report.locally_propagated)
        if self.frontier:
            m.add("frontier.active", report.frontier_active)
            m.add("frontier.exchange_bytes",
                  report.frontier_exchange_bytes)
            m.add("frontier.direction_switches",
                  report.frontier_direction_switches)
            m.add("frontier.bottom_up_scans",
                  report.frontier_bottom_up_scans)
        m.add("wall.udf_seconds", udf_wall_seconds)
        if scheduler.sanitizer is not None:
            scheduler.sanitizer.on_superstep(stream, scheduler.cluster)

    # ------------------------------------------------------------------
    # Frontier mode (sparse active sets)
    # ------------------------------------------------------------------
    def _plan_frontier(
        self, app: PropagationApp, state: Any
    ) -> list[_FrontierInfo]:
        """Per-partition frontier plan: active slice, direction, pricing.

        The scan direction is chosen by comparing priced reads: top-down
        gathers exactly the active vertices' adjacency rows and values
        at random-access cost (``RANDOM_GATHER_FACTOR``×), bottom-up
        scans the whole partition sequentially once.  Dense frontiers
        therefore flip to bottom-up and sparse ones stay top-down —
        frontier density keys the switch, in byte form.  The frontier
        summary each partition announces to remote machines is the
        smaller of a vertex bitmap and an index array of the active ids.
        """
        if not app.uses_frontier:
            raise JobError(
                f"{app.name}: frontier mode requires a frontier app "
                "(uses_frontier=True with a frontier() hook)"
            )
        if app.uses_virtual_vertices:
            raise JobError(
                f"{app.name}: frontier mode does not support "
                "virtual-vertex apps"
            )
        pg = self.pgraph
        mask = np.asarray(app.frontier(state))
        if mask.dtype != np.bool_ or mask.shape != (pg.num_vertices,):
            raise JobError(
                f"{app.name}: frontier() must return a boolean mask "
                "over all vertices"
            )
        if self._out_degrees is None:
            self._out_degrees = pg.graph.out_degrees()
        deg = self._out_degrees
        machines = sorted({self.machine_of(p)
                           for p in range(pg.num_parts)})
        infos: list[_FrontierInfo] = []
        for p in range(pg.num_parts):
            verts = pg.partition_vertices[p]
            active = verts[mask[verts]]
            n_p = int(verts.size)
            m_f = int(deg[active].sum()) if active.size else 0
            row_bytes = float(
                active.size * (VERTEX_ID_BYTES + DEGREE_BYTES)
                + m_f * VERTEX_ID_BYTES
                + active.size * VALUE_BYTES
            )
            top_down = self.RANDOM_GATHER_FACTOR * row_bytes
            bottom_up = float(pg.partition_bytes(p) + n_p * VALUE_BYTES)
            if active.size and top_down >= bottom_up:
                direction = "bottom-up"
                read_bytes = bottom_up
                resident = bottom_up
            else:
                direction = "top-down"
                read_bytes = top_down
                resident = row_bytes
            prev = self._directions.get(p)
            switched = prev is not None and prev != direction
            self._directions[p] = direction
            summary = float(min((n_p + 7) // 8,
                                active.size * VERTEX_ID_BYTES))
            mine = self.machine_of(p)
            exchange = ([(m, summary) for m in machines if m != mine]
                        if summary > 0 else [])
            infos.append(_FrontierInfo(
                active=active,
                m_f=m_f,
                direction=direction,
                read_bytes=read_bytes,
                resident_bytes=resident,
                summary_bytes=summary,
                exchange_sends=exchange,
                switched=switched,
            ))
        return infos

    # ------------------------------------------------------------------
    # Transfer stage
    # ------------------------------------------------------------------
    def _run_transfers(
        self, app: PropagationApp, state: Any,
        finfos: Sequence[_FrontierInfo | None],
    ) -> list[_PartitionTransfer]:
        """Run every partition's transfer UDFs and route the messages.

        Each partition emits its column from ``transfer_array`` where
        the app qualifies and the hook answers, else from the scalar
        loop — a decline falls back for that partition only.  In
        frontier mode (``finfos[p]`` given) both scan exactly the planned
        active vertices — the mask is authoritative and must agree with
        ``select`` (the UDF002 frontier contract), which is what keeps
        frontier and dense runs message-for-message identical.
        """
        hooks = self._fast_path_ok(app)
        if self.vectorized and not hooks:
            raise JobError(
                f"{app.name}: vectorized Transfer requested but the app "
                "does not support the fast path"
            )

        pg = self.pgraph  # held indexes: built here, read by the lanes
        held = ([pg.dest_index(p) for p in range(pg.num_parts)]
                if hooks and not self.frontier and self.local_opts
                and app.is_associative else None)

        def transfer(p: int) -> _PartitionTransfer:
            emitted = (self._emit_array(app, state, p, finfos[p], held)
                       if hooks else None)
            if emitted is None:
                if self.vectorized:
                    raise JobError(
                        f"{app.name}: vectorized Transfer requested but "
                        f"transfer_array() declined on partition {p}"
                    )
                emitted = self._emit_scalar(app, state, p, finfos[p])
            return self._route_messages(app, state, p, *emitted)

        scanned = (sum(i.m_f for i in finfos if i is not None)
                   if self.frontier else pg.graph.num_edges)
        return map_partitions(transfer, pg.num_parts, scanned if hooks else 0)

    def _fast_path_ok(self, app: PropagationApp) -> bool:
        """Whether the app's Transfer may take ``transfer_array``."""
        if self.vectorized is False:
            return False
        cls = type(app)
        if cls.transfer_array is PropagationApp.transfer_array:
            return False  # hook not implemented
        if app.uses_virtual_vertices:
            return False
        if (cls.select is not PropagationApp.select
                and cls.select_array is PropagationApp.select_array):
            return False  # scalar select overridden without array twin
        return True

    def _emit_array(
        self, app: PropagationApp, state: Any, p: int,
        finfo: _FrontierInfo | None = None,
        held: list[RoutePlan] | None = None,
    ) -> tuple[np.ndarray, Any, float, RoutePlan | None] | None:
        """Partition ``p``'s messages from one ``transfer_array`` call
        over its (selected) out-edges: ``(dests, values, scan ops,
        held[p] when all are selected)``, or None when the hook
        declines.  Every scanned edge routes a message —
        ``transfer_array`` has no per-edge None, so apps whose scalar
        ``transfer`` may return None must decline (see
        tests/test_observability.py::TestNoneTransferContract)."""
        pg = self.pgraph
        verts = pg.partition_vertices[p]
        plan = None
        if finfo is not None:
            # the frontier plan already filtered the partition's active
            # vertices (ascending — the dense scan's enumeration order)
            src, dst = pg.partition_out_edges(p, finfo.active)
        else:
            mask = app.select_array(verts, state)
            if mask is None:  # select-all: the cached gather, held plan
                src, dst = pg.partition_out_edges(p)
                plan = None if held is None else held[p]
            else:
                selected = verts[np.asarray(mask, dtype=bool)]
                src, dst = pg.partition_out_edges(p, selected)
        values = app.transfer_array(src, dst, state)
        if values is None:
            return None
        if not isinstance(values, Ragged):
            values = np.asarray(values)
        return dst, values, float(src.size), plan

    def _emit_scalar(
        self, app: PropagationApp, state: Any, p: int,
        finfo: _FrontierInfo | None = None,
    ) -> tuple[np.ndarray, np.ndarray, float, None]:
        """Partition ``p``'s messages from the scalar UDFs: ``(dests,
        values, scan ops, no plan)`` with the values (and virtual keys) as object
        columns; one op per scanned edge, or per visited vertex for a
        virtual-vertex app.

        In frontier mode the loop walks the planned active vertices
        directly and skips the per-vertex ``select`` call — the dense
        scan charges nothing for that call, so as long as ``select``
        agrees with the mask (the frontier contract) both emit identical
        messages with identical cpu charges.
        """
        pg = self.pgraph
        dests: list[Any] = []
        values: list[Any] = []
        scanned = 0
        if app.uses_virtual_vertices:
            for u in pg.partition_vertices[p].tolist():
                scanned += 1
                if app.select(u, state):
                    for key, value in app.virtual_transfer(u, state):
                        dests.append(key)
                        values.append(value)
            return (object_column(dests), object_column(values),
                    float(scanned), None)
        graph = pg.graph
        for u in (finfo.active if finfo is not None
                  else pg.partition_vertices[p]).tolist():
            if finfo is None and not app.select(u, state):
                continue
            for v in graph.out_neighbors(u).tolist():
                scanned += 1
                value = app.transfer(u, v, state)
                if value is not None:
                    dests.append(v)
                    values.append(value)
        return (np.array(dests, dtype=np.int64), object_column(values),
                float(scanned), None)

    def _dest_parts(self, app: PropagationApp,
                    dests: np.ndarray) -> np.ndarray:
        """The partition each destination lives in: ``parts`` of a
        vertex, :func:`virtual_partition` of a virtual key."""
        if not app.uses_virtual_vertices:
            return self.pgraph.parts[dests]
        num_parts = self.pgraph.num_parts
        return np.fromiter(
            (virtual_partition(key, num_parts) for key in dests.tolist()),
            dtype=np.intp, count=dests.size)

    def _route_messages(
        self, app: PropagationApp, state: Any, p: int, dst: np.ndarray,
        values: Any, scan_ops: float, plan: RoutePlan | None = None,
    ) -> _PartitionTransfer:
        """Route partition ``p``'s emitted column by ``plan``: its held
        index for a dense select-all column, else a fresh plan, whose
        rows are the distinct destinations when local optimizations fold
        an associative app's column (by its ``merge_ufunc`` over a typed
        column, its ``merge`` over an object one), else the messages; a
        virtual key is never inner.  Laid out in route order, the inner,
        spill and cross runs are slices.  Local propagation combines the
        inner rows now: the folded slice by ``combine_array`` where it
        applies and answers, else the inner messages by
        :meth:`_combine_columns`.  The charge: ``scan_ops``, +1 per
        routed message, +1 per merged cross message."""
        result = _PartitionTransfer(messages=int(dst.size),
                                    cpu_ops=scan_ops + int(dst.size))
        if plan is None:
            grouping = (Grouping(dst) if self.local_opts
                        and app.is_associative else None)
            rows = dst if grouping is None else grouping.uniq
            plan = self.pgraph.route_plan(
                grouping, self._dest_parts(app, rows),
                ~self.pgraph.boundary_mask[rows] if self.local_opts
                and not app.uses_virtual_vertices else None, p)
        emitted = (dst, values)
        a, b = plan.inner, plan.spill
        counts = None
        if plan.grouping is None:
            dst, values = dst[plan.order], values[plan.order]
        else:
            grouping = plan.grouping.at(dst)
            values = grouping.fold(
                values, app.merge_ufunc
                if is_typed(values) and app.merge_ufunc is not None
                else app.merge)
            dst, counts = grouping.uniq, grouping.counts
        if self.local_opts and not app.uses_virtual_vertices:
            seen = dst[:a]
            combined = None
            if counts is not None and self._combines_array(app, values):
                combined = self._combine_folded(app, state, seen,
                                                values[:a], counts[:a])
            if combined is None:
                inner = (dst[:a], values[:a])
                if counts is not None:  # the messages, not their fold
                    raw = np.isin(emitted[0], seen)
                    inner = (emitted[0][raw], emitted[1][raw])
                combined = self._combine_columns(app, state, *inner)
                seen = np.unique(seen)
            result.inner_out, cpu_ops, result.output_bytes = combined
            result.cpu_ops += cpu_ops
            result.inner_seen = seen
            result.locally_propagated = int(seen.size)

        # every message sized once (the hook once per distinct value)
        sizes = record_sizes(values, MESSAGE_HEADER, (
            None if type(app).value_nbytes is PropagationApp.value_nbytes
            else app.value_nbytes))
        offsets = plan.offsets.astype(np.intp)
        runs = sizes.segments(np.concatenate(([0, a], b + offsets)))
        result.local, result.cross = ((dst[a:b], values[a:b]),
                                      (dst[b:], values[b:]))
        result.spill_bytes = float(runs[1])
        if counts is not None:
            result.cpu_ops += float(counts[b:].sum())  # the merge work
        result.cross_offsets = offsets
        result.shipped = int(offsets[-1])
        result.send_bytes = {int(q): float(runs[2 + q])
                             for q in np.flatnonzero(np.diff(offsets))}
        return result

    def _transfer_task(
        self, p: int, t: _PartitionTransfer,
        finfo: _FrontierInfo | None = None,
    ) -> Task:
        pg = self.pgraph
        machine = self.machine_of(p)
        sends = [(self.machine_of(q), nbytes)
                 for q, nbytes in sorted(t.send_bytes.items())
                 if nbytes > 0]
        if finfo is None:
            # Cascaded phases evaluate the cascadable vertices'
            # iterations in one scan of the partition: both the
            # adjacency and the value reads of iterations inside a
            # phase shrink by the fraction.
            io_fraction = float(self.values_io_fraction[p])
            values_bytes = pg.partition_size(p) * VALUE_BYTES * io_fraction
            disk_read = pg.partition_bytes(p) * io_fraction + values_bytes
            resident = pg.partition_bytes(p) + values_bytes
        else:
            # Frontier mode (cascading is disallowed): read what the
            # planned scan direction needs, and announce the frontier
            # summary to every other machine — both priced through the
            # regular task accounting so reconcile() stays exact.
            disk_read = finfo.read_bytes
            resident = finfo.resident_bytes
            sends.extend(finfo.exchange_sends)
        fetches: list[tuple[int, float]] = []
        if machine not in self.store.replicas(p):
            # non-local dispatch: pull the partition from its primary
            fetches.append((self.store.primary(p),
                            float(pg.partition_bytes(p))))
        working_set = resident + t.spill_bytes
        return Task(
            name=f"transfer[{p}]",
            machine=machine,
            kind="transfer",
            partition=p,
            disk_read_bytes=disk_read,
            cpu_ops=t.cpu_ops,
            disk_write_bytes=t.spill_bytes + t.output_bytes,
            sends=sends,
            fetches=fetches,
            disk_penalty=self._memory_penalty(machine, working_set),
        )

    # ------------------------------------------------------------------
    # Combine stage
    # ------------------------------------------------------------------
    def _run_combine_array(
        self, app: PropagationApp, state: Any, q: int,
        transfers: list[_PartitionTransfer], senders: list[int],
    ) -> tuple[Task, Outputs]:
        """Route + Combine of partition ``q``, sent messages by
        ``senders`` (ascending, ``q`` among them).

        The arrival order is the contract: source partitions ascending —
        ``q``'s own boundary spill at position ``q``, cross slices
        around it — and emission order within a source.
        """
        sources: dict[int, float] = {}
        arrivals: list[Columns] = []
        for p in senders:
            t = transfers[p]
            assert (t.local is not None and t.cross is not None
                    and t.cross_offsets is not None)
            if p == q:
                arrivals.append(t.local)
            else:
                lo, hi = t.cross_offsets[q:q + 2]
                arrivals.append((t.cross[0][lo:hi], t.cross[1][lo:hi]))
                sources[p] = t.send_bytes[q]
        pad = None
        if app.combine_all_vertices and not app.uses_virtual_vertices:
            pad = self.pgraph.partition_vertices[q]
            pad = np.delete(pad, np.searchsorted(pad, transfers[q].inner_seen))
        out, cpu_ops, output_bytes = self._combine_columns(
            app, state, np.concatenate([a[0] for a in arrivals]),
            concat_values([a[1] for a in arrivals]), pad)
        return (self._combine_task(q, sources, transfers[q], cpu_ops,
                                   output_bytes), out)

    def _combine_columns(
        self, app: PropagationApp, state: Any, dests: np.ndarray,
        values: np.ndarray, pad: np.ndarray | None = None,
    ) -> tuple[Outputs, float, float]:
        """Combine arrival columns; returns (outputs, cpu ops, output
        bytes).

        ``pad`` (ascending, a superset of the arrival vertices) lists
        the vertices to combine whether or not anything arrived —
        ``combine_all_vertices``.  A typed column of an app with
        ``combine_array`` takes one order-exact fold and one hook call;
        otherwise — an object column from the scalar UDFs, so always
        under ``vectorized=False`` — the scalar ``combine`` runs over
        the same grouping's :func:`~repro.fold.bags`, padded vertices
        last.  Either way the charge is the scalar one: one op per
        arrival plus one per combined vertex.
        """
        if self._combines_array(app, values):
            vertices, folded, counts = fold_by_dest(
                dests, values, app.merge_ufunc)
            if pad is not None:
                at = np.searchsorted(pad, vertices)
                padded = np.zeros(pad.size, dtype=folded.dtype)
                padded[at] = folded
                lengths = np.zeros(pad.size, dtype=counts.dtype)
                lengths[at] = counts
                vertices, folded, counts = pad, padded, lengths
            answered = self._combine_folded(app, state, vertices, folded,
                                            counts)
            if answered is not None:
                return answered
        grouping = Grouping(dests, ranked=True)
        keys = grouping.uniq.tolist()
        grouped = bags(grouping, values)
        if pad is not None:
            extra = pad[~np.isin(pad, grouping.uniq)].tolist()
            keys += extra
            grouped += [[] for _ in extra]
        combine = (app.virtual_combine if app.uses_virtual_vertices
                   else app.combine)
        combined: dict = {}
        output_bytes = 0.0
        for v, bag in zip(keys, grouped):
            result = combine(v, bag, state)
            if result is not None:
                combined[v] = result
                output_bytes += app.result_nbytes(v, result)
        return combined, float(dests.size + len(keys)), output_bytes

    @staticmethod
    def _combines_array(app: PropagationApp, values: Any) -> bool:
        """Whether a typed column combines by ``merge_ufunc`` and
        ``combine_array``."""
        return (type(app).combine_array is not PropagationApp.combine_array
                and app.merge_ufunc is not None and is_typed(values))

    @staticmethod
    def _combine_folded(
        app: PropagationApp, state: Any, vertices: np.ndarray,
        folded: Any, counts: np.ndarray,
    ) -> tuple[Outputs, float, float] | None:
        """``combine_array`` over folded columns: (outputs, cpu ops,
        output bytes), None when it declines.  The charge is the scalar
        one: one op per folded message plus one per vertex, and output
        bytes for the vertices with an output — a ``(values, present)``
        answer has none where ``present`` is False."""
        out = app.combine_array(vertices, folded, counts, state)
        if out is None:
            return None
        cpu_ops = float(counts.sum() + vertices.size)
        if isinstance(out, tuple):  # "None is a mask"
            present = np.asarray(out[1], dtype=bool)
            vertices, out = vertices[present], out[0][present]
        if isinstance(out, Ragged):
            output_bytes = out.nbytes(RECORD_HEADER)
        elif type(app).result_nbytes is PropagationApp.result_nbytes:
            out = np.asarray(out)
            output_bytes = float(out.size * VALUE_BYTES)
        else:
            out = np.asarray(out)
            output_bytes = float(sum(
                app.result_nbytes(v, o)
                for v, o in zip(vertices.tolist(), out.tolist())))
        return (vertices, out), cpu_ops, output_bytes

    def _combine_task(
        self, p: int, sources: dict[int, float],
        transfer: _PartitionTransfer, cpu_ops: float, output_bytes: float,
    ) -> Task:
        pg = self.pgraph
        incoming = float(sum(sources.values()))
        staged = incoming + transfer.spill_bytes
        machine = self.machine_of(p)
        inbound = [
            (self.machine_of(src), nbytes)
            for src, nbytes in sorted(sources.items())
        ]
        working_set = pg.partition_bytes(p) + staged + output_bytes
        return Task(
            name=f"combine[{p}]",
            machine=machine,
            kind="combine",
            partition=p,
            disk_read_bytes=staged,
            cpu_ops=cpu_ops,
            disk_write_bytes=incoming + output_bytes,
            sends=[],
            receives=inbound,
            input_transfers=inbound,
            disk_penalty=self._memory_penalty(machine, working_set),
        )

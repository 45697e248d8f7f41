"""MapReduce execution on partitioned graphs, GFS/MapReduce-style.

One round = three phases folded into two barrier stages:

* **Map** — one task per graph partition on the machine storing it: read
  the partition, run ``map``, spill the emitted pairs to local disk, then
  *shuffle*: hash-partition the pairs by key across all machines.  The
  shuffle is oblivious to the graph partitioning — ``(R - 1) / R`` of the
  data crosses the network no matter how well the graph was cut, which is
  the structural handicap Figure 7 quantifies.
* **Reduce** — one task per machine: stage the received pairs, group by
  key, run ``reduce``, write outputs.

Every app's records travel one path, as ``(keys, values)`` columns.
Each partition's map emits one column: ``map_array``'s where the app
qualifies (``vectorized``) and the hook answers, else the scalar
``map``'s, whose ``emit`` appends to it — keys as an int64 column when
every key is an integer, else as an object column, values as an object
column.  A declining ``map_array`` falls back for its partition alone.
The shuffle hash-partitions each column with
:func:`repro.hashing.stable_hash_array` (an object column: with
:func:`~repro.hashing.stable_hash` per key) and buckets it per reducer
with a stable radix sort of the narrowed reducer ids.  Each reducer groups its
records in arrival order with a :class:`repro.fold.Grouping` — no sort,
no per-record dict insert — and hands a typed column to
``reduce_array``; an object column, or a declining ``reduce_array``,
takes the scalar ``reduce`` per group over the grouping's
:func:`~repro.fold.bags`, for that reducer alone.  Each column is sized
once (:func:`_record_sizes`): in closed form under the default hooks
and for ragged values, one ``value_nbytes`` call per distinct value of
a typed column, one hook call per record only where the app sizes keys
or output records itself.  The round
returns columns when every reducer answered ``reduce_array``, else one
dict; ``vectorized=False`` calls only the scalar UDFs, which keeps it
the oracle the hooks are held to (tests/test_mr_reference.py keeps the
per-record dict round as the reference for both).

The integer keys a fixed graph emits repeat round after round, so the
engine plans them once: per partition a :class:`_ShufflePlan` (the
combiner's grouping, the reducer permutation and its bounds), per
reducer its grouping and its output keys' writeback homes.  A later
round reuses either only after its keys are shown to reproduce it —
compared record for record with the held copy (:func:`_same_keys`),
never trusted by array identity.  A shuffle mismatch rebuilds that
partition's plan and every reducer's grouping, an output mismatch that
reducer's homes; output records are still sized every round.  An
object key column is shuffle-planned afresh every round: ``==`` and
``stable_hash`` disagree across types (``1 == 1.0``).  Only the host's
recomputation goes: the simulated job still spills, shuffles, sorts and
writes back every round.  The engine is per job (a restart builds a new
one with the new assignment), and so is everything it holds.

The **map-side combiner** (``combiner``) is Hadoop-style: each mapper
folds its output per key before the shuffle — ``combine_ufunc`` over a
typed column, the scalar ``combine`` per group over an object one —
shrinking spill and network volume at the price of one cpu charge per
folded record plus one per distinct key.  The pre-combine volume is
kept on the report so the shuffle reduction is an observable quantity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.storage import PartitionStore
from repro.errors import JobError
from repro.fold import (MESSAGE_HEADER, RECORD_HEADER, Grouping, Ragged,
                        Sizes, bags, concat_values, is_typed, merge_outputs,
                        object_column, record_sizes)
from repro.graph.io import VERTEX_ID_BYTES
from repro.hashing import stable_hash, stable_hash_array
from repro.mapreduce.api import Emit, MapReduceApp, kv_nbytes
from repro.runtime.events import Span, wall_timer
from repro.runtime.scheduler import StageScheduler
from repro.runtime.tasks import Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.partitioned import PartitionedGraph

__all__ = ["MapReduceEngine", "RoundReport"]

#: records as aligned ``(keys, values)`` columns, in emission order
Columns = tuple[np.ndarray, Any]


def _key_column(keys: list[Any]) -> np.ndarray:
    """Scalar-emitted keys as a column: int64 when every key is an
    integer (``3`` and ``np.int64(3)`` alike), else an object column."""
    types = dict.fromkeys(map(type, keys))  # distinct, in arrival order
    if all(issubclass(t, (int, np.integer)) for t in types):
        try:
            return np.array(keys, dtype=np.int64)
        except OverflowError:
            pass
    return object_column(keys)


def _scalar_columns(run: Callable[[Emit], Any]) -> Columns:
    """The pairs ``run(emit)`` emits through scalar UDFs, as a key
    column and an object value column."""
    keys: list[Any] = []
    values: list[Any] = []

    def emit(key: Any, value: Any) -> None:
        keys.append(key)
        values.append(value)

    run(emit)
    return _key_column(keys), object_column(values)


@cache
def _sized(cls: type, *hooks: str) -> bool:
    """Whether the app class overrides any of the named sizing hooks."""
    return any(getattr(cls, hook) is not getattr(MapReduceApp, hook)
               for hook in hooks)


def _record_sizes(app: MapReduceApp, keys: np.ndarray, values: Any,
                  output: bool = False) -> Sizes:
    """Each record's shuffle bytes (``output``: its output bytes).

    A ragged column is charged in closed form whatever the hooks say —
    ``<key, ids>`` on the wire, ``<ID, d, ids>`` as output.  An app that
    sizes keys (for outputs: or whole records) gets one hook call per
    record; any other column is sized by :func:`~repro.fold.record_sizes`
    with the default key bytes as header, calling an overridden
    ``value_nbytes`` once per distinct value of a typed column."""
    if isinstance(values, Ragged):
        return record_sizes(values, RECORD_HEADER if output
                            else MESSAGE_HEADER)
    per_record = ("key_nbytes", "output_nbytes") if output else (
        "key_nbytes",)
    if _sized(type(app), *per_record):
        size = app.output_nbytes if output else partial(kv_nbytes, app)
        listed = values if isinstance(values, list) else values.tolist()
        return Sizes.of([size(key, value)
                         for key, value in zip(keys.tolist(), listed)],
                        f"{type(app).__qualname__}."
                        + ("output_nbytes" if output
                           else "key_nbytes + value_nbytes"))
    return record_sizes(values, float(VERTEX_ID_BYTES), (
        app.value_nbytes if _sized(type(app), "value_nbytes") else None))


def _reducer_ids(keys: np.ndarray, num_reducers: int) -> np.ndarray:
    """The shuffle's hash partitioner, one reducer id per key."""
    if keys.dtype == object:
        hashed = np.fromiter((stable_hash(key) for key in keys.tolist()),
                             dtype=np.int64, count=keys.size)
    else:
        hashed = stable_hash_array(keys)
    return hashed % num_reducers


@dataclass
class RoundReport:
    """Cost breakdown of one MapReduce round."""

    map_stage: Span
    reduce_stage: Span
    map_records: int = 0
    shuffle_bytes: float = 0.0
    network_bytes: float = 0.0
    #: records actually shuffled (== ``map_records`` without a combiner)
    shuffle_records: int = 0
    #: shuffle volume before map-side combining (== ``shuffle_bytes``
    #: without a combiner)
    shuffle_bytes_precombine: float = 0.0

    @property
    def elapsed(self) -> float:
        return self.reduce_stage.end - self.map_stage.start

    @property
    def combine_reduction(self) -> float:
        """Fraction of the pre-combine shuffle volume the combiner cut."""
        if self.shuffle_bytes_precombine <= 0.0:
            return 0.0
        return 1.0 - self.shuffle_bytes / self.shuffle_bytes_precombine


@dataclass
class _MapOutput:
    """One map task's shuffle chunks and cost bookkeeping.

    ``chunks`` maps reducer id to that reducer's share of this mapper's
    value column, in emission order (its keys are the plan's), so
    reducers see each key's bag in the scalar order.
    """

    plan: _ShufflePlan
    records: int = 0
    shuffled: int = 0
    spill: float = 0.0
    spill_precombine: float = 0.0
    cpu_ops: float = 0.0
    sends: dict[int, float] = field(default_factory=dict)
    chunks: dict[int, Any] = field(default_factory=dict)


def _same_keys(keys: np.ndarray, held: np.ndarray) -> bool:
    """Whether ``keys`` equal the ``held`` copy record for record (same
    dtype and shape): the one test before a held plan is reused."""
    return (keys.shape == held.shape and keys.dtype == held.dtype
            and bool(np.array_equal(keys, held)))


@dataclass(frozen=True)
class _ShufflePlan:
    """One partition's graph-only shuffle work for one key column.

    ``held`` is a read-only copy of the raw keys and ``combine`` their
    grouping for the map-side combiner (None without it).  The shuffled
    keys — the raw ones, or the combined ``combine.uniq`` — permuted by
    ``order`` (the stable sort of their reducer ids, held narrow) go to
    reducer ``r`` in ``[bounds[r], bounds[r + 1])``; ``reducers`` lists
    those with records.
    """

    num_reducers: int
    held: np.ndarray
    combine: Grouping | None
    order: np.ndarray
    bounds: list[int]
    reducers: list[int]

    @classmethod
    def build(cls, keys: np.ndarray, combiner: bool,
              num_reducers: int) -> _ShufflePlan:
        combine = (Grouping(keys, ranked=True).narrow() if combiner
                   else None)
        shuffled = keys if combine is None else combine.uniq
        if shuffled.size:
            # narrow ids take NumPy's radix sort; a stable sort gives
            # the same permutation at any width
            rids = _reducer_ids(shuffled, num_reducers).astype(
                np.min_scalar_type(num_reducers - 1))
            counts = np.bincount(rids, minlength=num_reducers)
            order = np.argsort(rids, kind="stable")
        else:
            counts = np.zeros(num_reducers, dtype=np.intp)
            order = np.zeros(0, dtype=np.intp)
        held = keys.copy()
        order = order.astype(np.min_scalar_type(max(order.size - 1, 0)))
        order.flags.writeable = held.flags.writeable = False
        return cls(num_reducers, held, combine, order,
                   [0] + np.cumsum(counts).tolist(),
                   np.flatnonzero(counts).tolist())

    def matches(self, keys: np.ndarray, combiner: bool,
                num_reducers: int) -> bool:
        """Whether ``keys`` reproduce this plan: the same reducers and
        combiner mode, and the held keys record for record."""
        return (num_reducers == self.num_reducers
                and combiner == (self.combine is not None)
                and _same_keys(keys, self.held))

    def permutation(self) -> np.ndarray:
        return self.order.astype(np.intp, copy=False)

    def sorted_keys(self) -> np.ndarray:
        """The shuffled keys in reducer order (rebuilt, not held)."""
        shuffled = self.held if self.combine is None else self.combine.uniq
        return shuffled[self.permutation()]


class MapReduceEngine:
    """Executes MapReduce rounds over a partitioned graph on a cluster."""

    def __init__(
        self,
        pgraph: PartitionedGraph,
        store: PartitionStore,
        cluster: Cluster,
        assignment: np.ndarray | None = None,
        vectorized: bool | None = None,
        combiner: bool = False,
    ) -> None:
        self.pgraph = pgraph
        self.store = store
        self.cluster = cluster
        if assignment is None:
            assignment = store.placement_array()
        self.assignment = np.asarray(assignment, dtype=np.int64)
        #: None = use an array hook wherever one answers, False = scalar
        #: UDFs only (the oracle), True = require the hooks (JobError if
        #: the app lacks them or ``map_array`` declines).
        self.vectorized = vectorized
        #: fold map output per key before the shuffle (needs
        #: ``combine`` — plus ``combine_ufunc`` for ``map_array``).
        self.combiner = combiner
        #: typed key columns' shuffle plans, by partition index
        self._plans: dict[int, _ShufflePlan] = {}
        #: each reducer's grouping (None: received nothing), valid while
        #: no partition's plan has been rebuilt since it was built
        self._reducer_plans: list[Grouping | None] | None = None
        #: each reducer's held writeback homes (see _charge_outputs)
        self._charges: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Hook gating
    # ------------------------------------------------------------------
    def _fast_path_ok(self, app: MapReduceApp) -> bool:
        """Whether the app's map may take ``map_array``."""
        if self.vectorized is False:
            return False
        cls = type(app)
        why = None
        if cls.map_array is MapReduceApp.map_array:
            why = "map_array() is not implemented"
        elif cls.key_nbytes is not MapReduceApp.key_nbytes:
            why = "non-default key sizing needs per-record calls"
        elif self.combiner and app.combine_ufunc is None:
            why = "combiner=True needs combine_ufunc"
        if why is None:
            return True
        if self.vectorized:
            raise JobError(
                f"{app.name}: vectorized=True but the MapReduce fast "
                f"path is unavailable ({why})"
            )
        return False

    # ------------------------------------------------------------------
    # Round driver
    # ------------------------------------------------------------------
    def run_round(
        self,
        app: MapReduceApp,
        state: Any,
        scheduler: StageScheduler,
    ) -> tuple[Any, RoundReport]:
        """Run one map+shuffle+reduce round; returns (outputs, report).

        ``outputs`` is ``reduce_array``'s ``(keys, values)`` columns in
        reducer order when every reducer answered it, else one
        ``{key: value}`` dict.  Fold either into the state with
        :func:`repro.core.surfer.apply_outputs`.
        """
        timer = wall_timer()
        num_reducers = self.cluster.num_machines
        if self.combiner and type(app).combine is MapReduceApp.combine:
            raise JobError(f"{app.name}: combiner=True but combine() is "
                           "not implemented")
        hooks = self._fast_path_ok(app)

        # -------- Map phase: run UDFs, bucket emissions per reducer ----
        per_part = [self._map_partition(app, state, p, num_reducers, hooks)
                    for p in range(self.pgraph.num_parts)]
        bucket_sources: list[dict[int, float]] = [
            {} for _ in range(num_reducers)
        ]
        map_tasks: list[Task] = []
        for p, mo in enumerate(per_part):
            machine = int(self.assignment[p])
            for r, nbytes in mo.sends.items():
                src_map = bucket_sources[r]
                src_map[machine] = src_map.get(machine, 0.0) + nbytes
            cpu = mo.cpu_ops + self.pgraph.partition_edge_count(p)
            fetches: list[tuple[int, float]] = []
            if machine not in self.store.replicas(p):
                fetches.append((self.store.primary(p),
                                float(self.pgraph.partition_bytes(p))))
            spec = self.cluster.machine(machine).spec
            working_set = self.pgraph.partition_bytes(p) + mo.spill
            penalty = (spec.random_io_penalty
                       if working_set > spec.memory_bytes else 1.0)
            map_tasks.append(Task(
                name=f"map[{p}]",
                machine=machine,
                kind="map",
                partition=p,
                # partition scan plus re-reading the spill to serve the
                # shuffle (map outputs are persisted, then served)
                disk_read_bytes=self.pgraph.partition_bytes(p) + mo.spill,
                cpu_ops=cpu,
                disk_write_bytes=mo.spill,  # map-output spill
                sends=sorted(mo.sends.items()),
                fetches=fetches,
                disk_penalty=penalty,
            ))
        map_wall = timer.elapsed()
        map_result = scheduler.run_stage(map_tasks)
        timer = wall_timer()

        # -------- Reduce phase ------------------------------------------
        groupings = self._reducer_plans
        if groupings is None:
            plans = [mo.plan for mo in per_part]
            groupings = self._reducer_groupings(plans, num_reducers)
            if all(plan.held.dtype != object for plan in plans):
                self._reducer_plans = groupings
        outs: list[Any] = []
        reduce_tasks: list[Task] = []
        for r, grouping in enumerate(groupings):
            cpu = out_bytes = 0.0
            writeback: dict[int, float] = {}
            if grouping is not None:
                chunks = [mo.chunks[r] for mo in per_part if r in mo.chunks]
                keys, values, answered, cpu = self._reduce(
                    app, state, concat_values(chunks), grouping)
                out_bytes, writeback = self._charge_outputs(app, r, keys,
                                                            values)
                outs.append((keys, values) if answered else dict(
                    zip(keys.tolist(), values.tolist())))
            staged = float(sum(bucket_sources[r].values()))
            inbound = sorted(bucket_sources[r].items())
            reduce_tasks.append(Task(
                name=f"reduce[{r}]",
                machine=r,
                kind="reduce",
                # stage read + external-sort merge pass over the staged data
                disk_read_bytes=2.0 * staged,
                cpu_ops=cpu,
                disk_write_bytes=2.0 * staged + out_bytes,
                sends=sorted(writeback.items()),
                receives=inbound,
                input_transfers=inbound,
            ))
        outputs = merge_outputs(outs)
        reduce_wall = timer.elapsed()
        reduce_result = scheduler.run_stage(reduce_tasks)

        network_bytes = sum(
            nbytes
            for r, srcs in enumerate(bucket_sources)
            for machine, nbytes in srcs.items()
            if machine != r
        )
        report = RoundReport(
            map_stage=map_result,
            reduce_stage=reduce_result,
            map_records=sum(mo.records for mo in per_part),
            shuffle_bytes=sum(mo.spill for mo in per_part),
            network_bytes=network_bytes,
            shuffle_records=sum(mo.shuffled for mo in per_part),
            shuffle_bytes_precombine=sum(mo.spill_precombine
                                         for mo in per_part),
        )
        self._observe_round(scheduler, report, map_wall + reduce_wall)
        return outputs, report

    # ------------------------------------------------------------------
    # Map phase
    # ------------------------------------------------------------------
    def _map_partition(self, app: MapReduceApp, state: Any, p: int,
                       num_reducers: int, hooks: bool) -> _MapOutput:
        """Partition ``p``'s map, combiner and hash shuffle: its column
        from ``map_array`` (``hooks``) or, if that declines, from the
        scalar ``map``, sized by :func:`_record_sizes`."""
        kv = app.map_array(p, self.pgraph, state) if hooks else None
        if kv is None:
            if self.vectorized:
                raise JobError(
                    f"{app.name}: vectorized=True but map_array() "
                    "declined")
            keys, values = _scalar_columns(partial(app.map, p, self.pgraph,
                                                   state))
        else:
            keys, values = np.asarray(kv[0]), kv[1]
            if not isinstance(values, Ragged):
                values = np.asarray(values)
        plan = self._shuffle_plan(p, keys, num_reducers)
        mo = _MapOutput(plan, records=int(keys.size),
                        cpu_ops=float(keys.size))
        sizes = _record_sizes(app, keys, values)
        mo.spill = mo.spill_precombine = sizes.total()
        if plan.combine is not None:
            keys = plan.combine.uniq
            if is_typed(values):
                values = plan.combine.fold(values, app.combine_ufunc)
            else:
                values = object_column([
                    app.combine(key, bag, state) for key, bag in
                    zip(keys.tolist(), bags(plan.combine, values))])
            mo.cpu_ops += float(mo.records + keys.size)
            sizes = _record_sizes(app, keys, values)
            mo.spill = sizes.total()
        mo.shuffled = int(plan.order.size)
        order = plan.permutation()
        sv = values[order]
        bounds = plan.bounds
        sends = sizes.take(order).segments(bounds)
        for r in plan.reducers:
            mo.chunks[r] = sv[bounds[r]:bounds[r + 1]]
            mo.sends[r] = float(sends[r])
        return mo

    def _shuffle_plan(self, p: int, keys: np.ndarray,
                      num_reducers: int) -> _ShufflePlan:
        """Partition ``p``'s plan for ``keys``: the held one if typed
        ``keys`` reproduce it, else a new one — and then every reducer's
        grouping is rebuilt this round too.  Object keys are planned
        afresh and never held."""
        plan = self._plans.get(p)
        if (plan is None or keys.dtype == object
                or not plan.matches(keys, self.combiner, num_reducers)):
            plan = _ShufflePlan.build(keys, self.combiner, num_reducers)
            if keys.dtype != object:
                self._plans[p] = plan
            self._reducer_plans = None
        return plan

    @staticmethod
    def _reducer_groupings(plans: list[_ShufflePlan],
                           num_reducers: int) -> list[Grouping | None]:
        """Each reducer's grouping of the keys the partitions' plans
        send it, in arrival order (partition order, emission order
        within); None for a reducer they send nothing."""
        keys_of: list[list[np.ndarray]] = [[] for _ in range(num_reducers)]
        for plan in plans:
            shuffled, bounds = plan.sorted_keys(), plan.bounds
            for r in plan.reducers:
                keys_of[r].append(shuffled[bounds[r]:bounds[r + 1]])
        return [Grouping(np.concatenate(keys), ranked=True).narrow()
                if keys else None for keys in keys_of]

    # ------------------------------------------------------------------
    # Reduce phase — per-reducer group-by + UDF
    # ------------------------------------------------------------------
    @staticmethod
    def _reduce(app: MapReduceApp, state: Any, values: Any,
                grouping: Grouping) -> tuple[np.ndarray, Any, bool, float]:
        """One reducer's group-by in arrival order (partition order,
        emission order within) — each key's bag is the scalar oracle's.

        ``grouping`` (ranked, narrowed) groups the reducer's keys.  A
        typed column — only ``map_array`` emits one — goes to
        ``reduce_array``; an object one, or a declined hook, to the
        scalar ``reduce`` per group in grouping order.  Returns the
        output columns, whether ``reduce_array`` answered, and the cpu
        charge.
        """
        uniq = grouping.uniq
        cpu = float(grouping.index.size + uniq.size)
        if (is_typed(values)
                and type(app).reduce_array is not MapReduceApp.reduce_array):
            gid = grouping.index.astype(np.intp, copy=False)
            out = app.reduce_array(uniq, gid, values, state)
            if out is not None:
                return np.asarray(out[0]), out[1], True, cpu

        def run(emit: Emit) -> None:
            for key, bag in zip(uniq.tolist(), bags(grouping, values)):
                app.reduce(key, bag, state, emit)

        out_keys, out_values = _scalar_columns(run)
        return out_keys, out_values, False, cpu

    def _charge_outputs(self, app: MapReduceApp, r: int, keys: np.ndarray,
                        values: Any) -> tuple[float, dict[int, float]]:
        """Output bytes and per-home writeback bytes of reducer ``r``,
        each record sized once by :func:`_record_sizes`.  The homes of
        its integer keys (``ok``: which are vertices; their machines,
        its ``bincount`` and the nonzero machines) depend on the keys
        alone, so they are held with a read-only copy of the keys and
        replayed while a round's keys equal it (:func:`_same_keys`)."""
        sizes = _record_sizes(app, keys, values, output=True)
        out_bytes = sizes.total()
        if not app.writeback_to_partitions:
            return out_bytes, {}
        num_vertices = self.pgraph.num_vertices
        if keys.dtype == object:  # only integer keys are vertices
            keys = np.fromiter(
                (int(key) if isinstance(key, (int, np.integer))
                 and 0 <= key < num_vertices else -1
                 for key in keys.tolist()),
                dtype=np.int64, count=keys.size)
        elif keys.dtype.kind not in "iu":
            return out_bytes, {}
        held = self._charges.get(r)
        if held is None or not _same_keys(keys, held[0]):
            ok = (keys >= 0) & (keys < num_vertices)
            homes = self.assignment[self.pgraph.parts[keys[ok]]]
            counts = np.bincount(homes)
            held = self._charges[r] = (keys.copy(), ok, homes, counts,
                                       np.flatnonzero(counts).tolist())
            for array in held[:4]:
                array.flags.writeable = False
        __, ok, homes, counts, machines = held
        per_home = sizes.take(ok).by(homes, counts.size, counts)
        return out_bytes, {h: float(per_home[h]) for h in machines}

    def _observe_round(self, scheduler: StageScheduler,
                       report: RoundReport,
                       udf_wall_seconds: float) -> None:
        """Record the round's span and metrics on the job's stream."""
        stream = scheduler.events
        rounds = int(stream.metrics.get("mapreduce.rounds"))
        stream.span(Span(
            name=f"round[{rounds}]",
            kind="round",
            start=report.map_stage.start,
            end=report.reduce_stage.end,
            wall_self_seconds=udf_wall_seconds,
        ))
        m = stream.metrics
        m.add("mapreduce.rounds")
        m.add("mapreduce.map_records", report.map_records)
        m.add("mapreduce.shuffle_bytes", report.shuffle_bytes)
        m.add("mapreduce.network_bytes", report.network_bytes)
        m.add("mapreduce.shuffle_records", report.shuffle_records)
        m.add("mapreduce.shuffle_bytes_precombine",
              report.shuffle_bytes_precombine)
        m.add("wall.udf_seconds", udf_wall_seconds)
        if scheduler.sanitizer is not None:
            scheduler.sanitizer.on_superstep(stream, scheduler.cluster)

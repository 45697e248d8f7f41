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

Two opt-in layers sit on top of that round (mirroring the propagation
engine's Transfer fast path):

* **Array fast path** (``vectorized``) — apps that implement
  ``map_array`` emit columnar ``(keys, values)`` arrays; the engine
  hash-partitions them with :func:`repro.hashing.stable_hash_array` and
  buckets them per reducer with a stable radix sort of the narrowed
  reducer ids.  Each reducer groups its records in arrival order with
  a :class:`repro.fold.Grouping` — no sort, no per-record dict insert —
  and hands them to ``reduce_array``, whose ``(keys, values)`` columns
  the round concatenates in reducer order, charges in closed form and
  returns as columns for ``update_array``.  If any reducer declines
  ``reduce_array``, the whole round falls back to sorted bags, scalar
  ``reduce`` calls and the oracle's dict.  Outputs and every cost
  counter are bit-identical to the scalar oracle.

  The keys a fixed graph emits repeat round after round, so the engine
  plans them once: per partition a :class:`_ShufflePlan` (the
  combiner's grouping, the reducer permutation and its bounds), per
  reducer its grouping.  A later round reuses a plan only after its
  keys are shown to reproduce it — compared record for record with the
  copy the plan holds, never trusted by array identity — and any
  mismatch rebuilds that partition's plan and every reducer's.  Only
  the host's recomputation goes: the simulated job still spills,
  shuffles, sorts and writes back every round.  The engine is per job
  (a restart builds a new one), and so are its plans.
* **Map-side combiner** (``combiner``) — Hadoop-style: each mapper folds
  its output per key (``combine`` scalar / ``combine_ufunc`` array)
  before the shuffle, shrinking spill and network volume at the price of
  one cpu charge per folded record plus one per distinct key.  The
  pre-combine volume is kept on the report so the shuffle reduction is
  an observable quantity.  Both the scalar and the array path implement
  it, so the bit-identity contract holds in either combiner mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.storage import PartitionStore
from repro.errors import JobError
from repro.fold import MESSAGE_HEADER, RECORD_HEADER, Grouping, Ragged
from repro.graph.io import VALUE_BYTES
from repro.hashing import stable_hash, stable_hash_array
from repro.mapreduce.api import MapReduceApp, kv_nbytes
from repro.runtime.events import wall_timer
from repro.runtime.scheduler import StageScheduler
from repro.runtime.tasks import StageResult, Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.partitioned import PartitionedGraph

__all__ = ["MapReduceEngine", "RoundReport", "reducer_of"]


def reducer_of(key: object, num_reducers: int) -> int:
    """Hash partitioner of the shuffle (Knuth hash for int keys).

    Built on :func:`repro.hashing.stable_hash` so every mapper — in any
    process, under any ``PYTHONHASHSEED`` — sends a key to the same
    reducer.
    """
    return stable_hash(key) % num_reducers


def _as_pairs(out: Any) -> list[tuple[Any, Any]]:
    """One reducer's output — pairs, columns or None — as the oracle's
    Python-typed ``(key, value)`` pairs."""
    if out is None:
        return []
    if isinstance(out, list):
        return out
    keys, values = out
    if not isinstance(values, list):
        values = values.tolist()
    return list(zip(keys.tolist(), values))


def _concat_columns(columns: list[tuple[np.ndarray, Any]]) -> Any:
    """The reducers' ``(keys, values)`` columns end to end, in reducer
    order; an empty round is the oracle's empty dict."""
    if not columns:
        return {}
    keys = np.concatenate([k for k, _ in columns])
    parts = [v for _, v in columns]
    if all(isinstance(v, (np.ndarray, Ragged)) for v in parts):
        return keys, np.concatenate(parts)
    return keys, list(chain.from_iterable(parts))


def _records_nbytes(values: np.ndarray | Ragged, rec_bytes: float) -> float:
    """Shuffle bytes of a value column: ``rec_bytes`` per record, or the
    ragged charge (``VERTEX_ID_BYTES + VALUE_BYTES·len`` each)."""
    if isinstance(values, Ragged):
        return values.nbytes(MESSAGE_HEADER)
    return float(values.size) * rec_bytes


@dataclass
class RoundReport:
    """Cost breakdown of one MapReduce round."""

    map_stage: StageResult
    reduce_stage: StageResult
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
        return self.reduce_stage.end_time - self.map_stage.start_time

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
    output: a list of ``(key, value)`` pairs on the scalar path, or a
    value column on the fast path (its keys are the partition's plan's)
    — both in emission order, so reducers see identical per-key bags
    either way.
    """

    records: int = 0
    shuffled: int = 0
    spill: float = 0.0
    spill_precombine: float = 0.0
    cpu_ops: float = 0.0
    sends: dict[int, float] = field(default_factory=dict)
    chunks: dict[int, Any] = field(default_factory=dict)


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
            rids = (stable_hash_array(shuffled) % num_reducers).astype(
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
                and keys.shape == self.held.shape
                and keys.dtype == self.held.dtype
                and bool(np.array_equal(keys, self.held)))

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
        #: None = auto (fast path when the app supports it), False =
        #: scalar oracle, True = require the fast path (JobError if the
        #: app cannot take it).
        self.vectorized = vectorized
        #: fold map output per key before the shuffle (needs
        #: ``combine`` — plus ``combine_ufunc`` on the fast path).
        self.combiner = combiner
        #: array rounds' shuffle plans, by partition index
        self._plans: dict[int, _ShufflePlan] = {}
        #: each reducer's grouping (None: received nothing), valid while
        #: no partition's plan has been rebuilt since it was built
        self._reducer_plans: list[Grouping | None] | None = None

    # ------------------------------------------------------------------
    # Fast-path gating
    # ------------------------------------------------------------------
    def _fast_path_ok(self, app: MapReduceApp) -> bool:
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

    def _check_combiner(self, app: MapReduceApp) -> None:
        if type(app).combine is MapReduceApp.combine:
            raise JobError(
                f"{app.name}: combiner=True but combine() is not "
                "implemented"
            )

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

        ``outputs`` is the oracle's ``{key: value}`` dict, or — when
        every reducer of an array round answered ``reduce_array`` — its
        ``(keys, values)`` columns in reducer order.  Fold either into
        the state with :func:`repro.core.surfer.apply_outputs`.
        """
        timer = wall_timer()
        num_reducers = self.cluster.num_machines
        if self.combiner:
            self._check_combiner(app)
        use_fast = self._fast_path_ok(app)

        # -------- Map phase: run UDFs, bucket emissions per reducer ----
        per_part = None
        if use_fast:
            per_part = self._map_phase_vectorized(app, state, num_reducers)
            if per_part is None:
                if self.vectorized:
                    raise JobError(
                        f"{app.name}: vectorized=True but map_array() "
                        "declined the round (or emitted plain values "
                        "under a non-default value_nbytes)"
                    )
                use_fast = False
        if per_part is None:
            per_part = self._map_phase_scalar(app, state, num_reducers)

        bucket_sources: list[dict[int, float]] = [
            {} for _ in range(num_reducers)
        ]
        map_tasks: list[Task] = []
        map_records = 0
        shuffle_records = 0
        shuffle_bytes = 0.0
        shuffle_pre = 0.0
        for p, mo in enumerate(per_part):
            machine = int(self.assignment[p])
            map_records += mo.records
            shuffle_records += mo.shuffled
            shuffle_bytes += mo.spill
            shuffle_pre += mo.spill_precombine
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
                sends=[(r, b) for r, b in sorted(mo.sends.items())],
                fetches=fetches,
                disk_penalty=penalty,
            ))
        map_wall = timer.elapsed()
        map_result = scheduler.run_stage(map_tasks)
        timer = wall_timer()

        # -------- Reduce phase ------------------------------------------
        inputs = [[mo.chunks[r] for mo in per_part if r in mo.chunks]
                  for r in range(num_reducers)]
        if use_fast:
            if self._reducer_plans is None:
                self._reducer_plans = self._reducer_groupings(num_reducers)
            reduced = [
                self._reduce_bucket_vectorized(app, state, chunks, grouping)
                for chunks, grouping in zip(inputs, self._reducer_plans)]
        else:
            reduced = [self._reduce_bucket_scalar(app, state, chunks)
                       for chunks in inputs]
        # columnar or dict as a whole: one reducer that declined
        # reduce_array (its output is pairs) makes the round the oracle's
        columnar = use_fast and not any(
            isinstance(out, list) for out, _ in reduced)
        outputs: Any = {}
        reduce_tasks: list[Task] = []
        for r, (out, cpu) in enumerate(reduced):
            if not columnar:
                outputs.update(_as_pairs(out))
            out_bytes, writeback = self._charge_outputs(app, out)
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
        if columnar:
            outputs = _concat_columns(
                [out for out, _ in reduced if out is not None])
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
            map_records=map_records,
            shuffle_bytes=shuffle_bytes,
            network_bytes=network_bytes,
            shuffle_records=shuffle_records,
            shuffle_bytes_precombine=shuffle_pre,
        )
        self._observe_round(scheduler, report, map_wall + reduce_wall)
        return outputs, report

    # ------------------------------------------------------------------
    # Map phase — scalar oracle
    # ------------------------------------------------------------------
    def _map_phase_scalar(
        self, app: MapReduceApp, state: Any, num_reducers: int
    ) -> list[_MapOutput]:
        per_part: list[_MapOutput] = []
        for p in range(self.pgraph.num_parts):
            emitted: list[tuple[Any, Any]] = []

            def emit(key, value, _out=emitted):
                _out.append((key, value))

            app.map(p, self.pgraph, state, emit)
            mo = _MapOutput(records=len(emitted),
                            cpu_ops=float(len(emitted)))
            if self.combiner:
                mo.spill_precombine = float(sum(
                    kv_nbytes(app, key, value) for key, value in emitted
                ))
                folded: dict[Any, list] = {}
                for key, value in emitted:
                    folded.setdefault(key, []).append(value)
                pairs = []
                for key, values in folded.items():
                    pairs.append((key, app.combine(key, values, state)))
                    mo.cpu_ops += len(values) + 1.0
            else:
                pairs = emitted
            for key, value in pairs:
                nbytes = kv_nbytes(app, key, value)
                mo.spill += nbytes
                r = reducer_of(key, num_reducers)
                mo.chunks.setdefault(r, []).append((key, value))
                mo.sends[r] = mo.sends.get(r, 0.0) + nbytes
            mo.shuffled = len(pairs)
            if not self.combiner:
                mo.spill_precombine = mo.spill
            per_part.append(mo)
        return per_part

    # ------------------------------------------------------------------
    # Map phase — array fast path
    # ------------------------------------------------------------------
    def _map_phase_vectorized(
        self, app: MapReduceApp, state: Any, num_reducers: int
    ) -> list[_MapOutput] | None:
        """Columnar map + combine + hash shuffle; None = app declined.

        A :class:`~repro.fold.Ragged` value column is charged in closed
        form whatever the app's ``value_nbytes``; plain values under a
        non-default ``value_nbytes`` decline the round.
        """
        sized = type(app).value_nbytes is not MapReduceApp.value_nbytes
        # a sized app's values are ragged, never charged per record
        rec_bytes = (0.0 if sized else
                     float(app.key_nbytes(None) + app.value_nbytes(None)))
        per_part: list[_MapOutput] = []
        for p in range(self.pgraph.num_parts):
            kv = app.map_array(p, self.pgraph, state)
            if kv is None:
                return None
            keys = np.asarray(kv[0])
            values = kv[1]
            if not isinstance(values, Ragged):
                if sized:
                    return None
                values = np.asarray(values)
            plan = self._shuffle_plan(p, keys, num_reducers)
            mo = _MapOutput(records=int(keys.size),
                            cpu_ops=float(keys.size))
            mo.spill_precombine = _records_nbytes(values, rec_bytes)
            if plan.combine is not None:
                values = plan.combine.fold(values, app.combine_ufunc)
                mo.cpu_ops += float(mo.records + plan.order.size)
            mo.shuffled = int(plan.order.size)
            mo.spill = _records_nbytes(values, rec_bytes)
            if not self.combiner:
                mo.spill_precombine = mo.spill
            sv = values[plan.permutation()]
            bounds = plan.bounds
            for r in plan.reducers:
                chunk = mo.chunks[r] = sv[bounds[r]:bounds[r + 1]]
                mo.sends[r] = _records_nbytes(chunk, rec_bytes)
            per_part.append(mo)
        return per_part

    def _shuffle_plan(self, p: int, keys: np.ndarray,
                      num_reducers: int) -> _ShufflePlan:
        """Partition ``p``'s plan for ``keys``: the held one if ``keys``
        reproduce it, else a new one — and then every reducer's
        grouping is rebuilt this round too."""
        plan = self._plans.get(p)
        if plan is None or not plan.matches(keys, self.combiner,
                                            num_reducers):
            plan = self._plans[p] = _ShufflePlan.build(
                keys, self.combiner, num_reducers)
            self._reducer_plans = None
        return plan

    def _reducer_groupings(self, num_reducers: int) -> list[Grouping | None]:
        """Each reducer's grouping of the keys the partitions' current
        plans send it, in arrival order (partition order, emission
        order within); None for a reducer they send nothing."""
        keys_of: list[list[np.ndarray]] = [[] for _ in range(num_reducers)]
        for p in range(self.pgraph.num_parts):
            plan = self._plans[p]
            shuffled, bounds = plan.sorted_keys(), plan.bounds
            for r in plan.reducers:
                keys_of[r].append(shuffled[bounds[r]:bounds[r + 1]])
        return [Grouping(np.concatenate(keys), ranked=True).narrow()
                if keys else None for keys in keys_of]

    # ------------------------------------------------------------------
    # Reduce phase — per-reducer group-by + UDF
    # ------------------------------------------------------------------
    def _reduce_bucket_scalar(
        self, app: MapReduceApp, state: Any, chunk_list: list
    ) -> tuple[list, float]:
        grouped: dict[Any, list] = {}
        for chunk in chunk_list:  # partition order, emission order within
            for key, value in chunk:
                grouped.setdefault(key, []).append(value)
        emitted_out: list[tuple[Any, Any]] = []

        def emit(key, value, _out=emitted_out):
            _out.append((key, value))

        cpu = 0.0
        for key, values in grouped.items():
            app.reduce(key, values, state, emit)
            cpu += len(values) + 1.0
        return emitted_out, cpu

    def _reduce_bucket_vectorized(
        self, app: MapReduceApp, state: Any, chunk_list: list,
        grouping: Grouping | None,
    ) -> tuple[Any, float]:
        """Group-by in arrival order (partition order, emission order
        within) — each key's bag is the scalar dict-insert oracle's.

        ``grouping`` (ranked, narrowed) groups the concatenated chunk
        keys.  Returns ``reduce_array``'s ``(keys, values)`` columns; the scalar
        ``reduce`` pairs over sorted bags if it declines; None for a
        reducer that received nothing.
        """
        if grouping is None:
            return None, 0.0
        values = np.concatenate(chunk_list)
        uniq, counts = grouping.uniq, grouping.counts
        gid = grouping.index.astype(np.intp, copy=False)
        cpu = float(gid.size + uniq.size)
        if type(app).reduce_array is not MapReduceApp.reduce_array:
            out = app.reduce_array(uniq, gid, values, state)
            if out is not None:
                out_keys, out_values = out
                return (np.asarray(out_keys), out_values), cpu
        emitted_out: list[tuple[Any, Any]] = []

        def emit(key, value, _out=emitted_out):
            _out.append((key, value))

        bags = values[np.argsort(gid, kind="stable")]
        bounds = [0] + np.cumsum(counts, dtype=np.intp).tolist()
        for i, key in enumerate(uniq.tolist()):
            app.reduce(key, bags[bounds[i]:bounds[i + 1]].tolist(),
                       state, emit)
        return emitted_out, cpu

    def _charge_outputs(self, app: MapReduceApp,
                        out: Any) -> tuple[float, dict[int, float]]:
        """Output bytes and per-home writeback bytes of one reducer.

        Columns under default sizing are charged in closed form: every
        record costs the same integer-valued byte count, so the products
        equal the per-pair sums of the scalar loop bit for bit.  Ragged
        values are too, whatever ``output_nbytes`` says: the record
        ``<ID, d, ids>`` costs ``VERTEX_ID_BYTES + DEGREE_BYTES +
        VALUE_BYTES·len``.
        """
        ragged = isinstance(out, tuple) and isinstance(out[1], Ragged)
        if ragged or (isinstance(out, tuple) and type(app).output_nbytes
                      is MapReduceApp.output_nbytes):
            keys = out[0]
            sizes = (RECORD_HEADER + VALUE_BYTES * out[1].lengths()
                     if ragged else None)
            rec = (0.0 if ragged else
                   float(app.key_nbytes(None) + app.value_nbytes(None)))
            writeback: dict[int, float] = {}
            if app.writeback_to_partitions and keys.dtype.kind in "iu":
                ok = (keys >= 0) & (keys < self.pgraph.num_vertices)
                homes = self.assignment[self.pgraph.parts[keys[ok]]]
                counts = np.bincount(homes)
                per_home = (counts * rec if sizes is None else
                            np.bincount(homes, weights=sizes[ok]))
                writeback = {int(h): float(per_home[h])
                             for h in np.flatnonzero(counts)}
            if sizes is None:
                return rec * keys.size, writeback
            return out[1].nbytes(RECORD_HEADER), writeback
        out_bytes = 0.0
        writeback = {}
        num_vertices = self.pgraph.num_vertices
        for key, value in _as_pairs(out):
            nbytes = app.output_nbytes(key, value)
            out_bytes += nbytes
            if app.writeback_to_partitions and isinstance(
                key, (int, np.integer)
            ) and 0 <= key < num_vertices:
                home = int(self.assignment[
                    self.pgraph.partition_of(int(key))
                ])
                writeback[home] = writeback.get(home, 0.0) + nbytes
        return out_bytes, writeback

    def _observe_round(self, scheduler: StageScheduler,
                       report: RoundReport,
                       udf_wall_seconds: float) -> None:
        """Record the round's span and metrics on the job's stream."""
        stream = scheduler.events
        rounds = int(stream.metrics.get("mapreduce.rounds"))
        stream.emit(
            name=f"round[{rounds}]",
            kind="round",
            start=report.map_stage.start_time,
            end=report.reduce_stage.end_time,
            wall_self_seconds=udf_wall_seconds,
        )
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

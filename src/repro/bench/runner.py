"""Config-driven experiment orchestration: the ``repro bench`` engine.

Every experiment the repo benches is described by one TOML file under
``src/repro/bench/configs/`` — workload, graph-generator parameters,
cluster shape, engine flags and repetitions — instead of an ad-hoc
script.  The runner loads those configs, selects a *suite*
(``smoke`` / ``paper`` / ``full``), executes each workload with
noise-aware min-of-N wall-clock sampling, verifies the event stream
reconciles with the cluster cost counters, and returns ``repro-bench/v1``
records that :mod:`repro.bench.regress` gates against the committed
``BENCH_PR*.json`` history and :mod:`repro.bench.trajectory` renders as
the cross-PR report.

The config schema is the spec dataclasses below (``[graph]`` =
:class:`GraphSpec`, ``[cluster]`` = :class:`ClusterSpec`, ``[sampling]`` =
:class:`SamplingSpec`, each ``[[workload]]`` = :class:`WorkloadSpec`,
``[chaos]`` = :class:`ChaosSpec`); ``docs/BENCHMARKS.md`` has an annotated
example.

Chaos experiments (``kind = "chaos"``) run a seeded
:func:`~repro.runtime.chaos.run_chaos_sweep` instead of plain jobs and
record the fault-free baseline next to the most-restarted schedule,
each with its *own* wall clock.
"""

from __future__ import annotations

import contextlib
import functools
import pathlib
import tempfile
import tomllib
import types
import typing
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable

from repro.apps import APP_REGISTRY, EXTENSION_APPS, make_app
from repro.errors import BenchConfigError, BenchRunError
from repro.bench.benchjson import job_record
from repro.bench.memory import measure_peak_rss
from repro.bench.workloads import (
    STANDARD_COMMUNITIES,
    STANDARD_COMMUNITY_SIZE,
    STANDARD_K,
    TOPOLOGIES,
    Workload,
    make_cluster,
    standard_graph,
    topology_by_name,
)
from repro.runtime.events import reconcile, wall_timer

__all__ = [
    "SUITES",
    "DEFAULT_CONFIG_DIR",
    "GraphSpec",
    "ClusterSpec",
    "SamplingSpec",
    "WorkloadSpec",
    "ChaosSpec",
    "ExperimentConfig",
    "SuiteResult",
    "load_config",
    "discover_configs",
    "select_suite",
    "run_experiment",
    "run_suite",
    "run_workload",
    "chaos_job",
    "timed_job",
    "timed_min_of_n",
]

#: the three execution tiers, cheapest first
SUITES = ("smoke", "paper", "full")

#: the committed experiment configs shipped with the package
DEFAULT_CONFIG_DIR = pathlib.Path(__file__).resolve().parent / "configs"

#: the standard composite-social recipe (p_r matches standard_graph)
_STANDARD_RECIPE = (STANDARD_COMMUNITIES, STANDARD_COMMUNITY_SIZE,
                    STANDARD_K, 0.05)

ENGINES = ("propagation", "mapreduce")
_APPS = (*APP_REGISTRY, *EXTENSION_APPS)


# ----------------------------------------------------------------------
# Shared timing plumbing (also used by repro.bench.experiments)
# ----------------------------------------------------------------------
def timed_job(run: Callable[[], Any]) -> tuple[Any, float]:
    """Run one job closure; returns ``(job, wall_seconds)``.

    Build the Surfer *outside* the closure: deployment setup
    (partitioning above all) must never land in the timed region.
    """
    timer = wall_timer()
    job = run()
    return job, timer.elapsed()


def _simulated_signature(job: Any) -> tuple:
    m = job.metrics
    return (m.response_time, m.total_machine_time,
            int(m.network_bytes), int(m.disk_bytes))


def timed_min_of_n(run: Callable[[], Any], n: int = 1) -> tuple[Any, float]:
    """Noise-aware sampling: run ``n`` times, keep the min wall clock.

    Simulated metrics are deterministic, so repetitions only de-noise
    the *real* wall clock; the sampler asserts that determinism and
    raises :class:`BenchRunError` if two repetitions disagree on the
    simulated numbers (that is a correctness bug, not noise).
    """
    if n < 1:
        raise BenchRunError(f"repetitions must be >= 1, got {n}")
    best_job: Any = None
    best_wall = float("inf")
    signature: tuple | None = None
    for _ in range(n):
        job, wall = timed_job(run)
        sig = _simulated_signature(job)
        if signature is None:
            signature = sig
        elif sig != signature:
            raise BenchRunError(
                "nondeterministic simulated metrics across repetitions: "
                f"{signature} vs {sig}"
            )
        if wall < best_wall:
            best_job, best_wall = job, wall
    return best_job, best_wall


# ----------------------------------------------------------------------
# Config model.  The spec dataclasses *are* the TOML schema: parse_config
# derives the allowed keys and each value's type from their fields (an
# ``int`` field takes a positive integer, a ``float`` a positive number,
# a ``bool`` never passes for either) plus the rules given to _rule().
# ----------------------------------------------------------------------
def _rule(default: Any = MISSING, **rules: Any) -> Any:
    """A spec field with extra rules: ``choices`` (allowed values),
    ``signed`` (any integer, not only positive ones) or ``range``
    (inclusive numeric bounds)."""
    return field(default=default, metadata=rules)


@dataclass(frozen=True)
class GraphSpec:
    """``[graph]``: graph generator parameters.

    ``kind = "social"`` (default) is the paper's composite social graph
    (``communities``/``community_size``/``k``/``p_r``); ``kind = "web"``
    is :func:`~repro.graph.generators.web_feeder_graph` (``core``/
    ``feeders``), the no-inlink-feeder shape the sparse-frontier
    benchmarks use; ``kind = "rmat_shard"`` streams an R-MAT graph
    (``rmat_scale``/``edge_factor``) into an on-disk shard store and
    runs the workloads out-of-core through
    :class:`~repro.graph.store.ShardBackedGraph` with a
    contiguous-range plan whose partitions alias the shards.
    """

    communities: int = STANDARD_COMMUNITIES
    community_size: int = STANDARD_COMMUNITY_SIZE
    k: int = STANDARD_K
    p_r: float = _rule(0.05, range=(0, 1))
    seed: int = _rule(2010, signed=True)
    kind: str = _rule("social", choices=("social", "web", "rmat_shard"))
    core: int = 32
    feeders: int = 480
    rmat_scale: int = 16
    edge_factor: int = 8


@dataclass(frozen=True)
class ClusterSpec:
    """``[cluster]``: simulated cluster shape and deployment knobs."""

    topology: str = _rule("T1", choices=tuple(TOPOLOGIES))
    machines: int = 32
    parts: int = 64
    layout: str = _rule("bandwidth-aware",
                        choices=("bandwidth-aware", "oblivious"))
    replication: int = 3
    seed: int = _rule(2010, signed=True)


@dataclass(frozen=True)
class SamplingSpec:
    """``[sampling]``: wall_clock_s = min over this many runs."""

    repetitions: int = 1


@dataclass(frozen=True)
class WorkloadSpec:
    """One ``[[workload]]``: a named job on the experiment's deployment."""

    name: str
    app: str = _rule(choices=_APPS)
    engine: str = _rule(choices=ENGINES)
    iterations: int | None = None
    vectorized: bool | None = None
    local_opts: bool = True
    combiner: bool = False
    #: sparse active-set Transfer (propagation engine, frontier apps)
    frontier: bool = False
    #: stop at the app's convergence test instead of the full budget
    #: (default: the app's own — extension apps do, the paper's six not)
    until_convergence: bool | None = None
    app_args: dict[str, Any] = field(default_factory=dict)
    #: per-workload cluster-size override (fig11-style sweeps)
    machines: int | None = None
    #: per-workload partition override; ``"auto"`` = the paper's
    #: memory/machine rule (experiments.parts_for)
    parts: int | str | None = None
    #: scale the graph with the machine count (weak scaling)
    scale_graph_by_machines: bool = False
    #: suite override; defaults to the experiment's suites
    suites: tuple[str, ...] | None = None
    #: record real peak RSS around the run (optional bench metric)
    measure_rss: bool = False
    #: hard ceiling on the measured peak (bytes); breach = BenchRunError
    max_peak_rss_bytes: float | None = None


@dataclass(frozen=True)
class ChaosSpec:
    """``[chaos]``: a seeded fault-schedule sweep (kind = "chaos")."""

    app: str = _rule(choices=_APPS)
    engine: str = _rule("propagation", choices=ENGINES)
    iterations: int = 4
    schedules: int = 12
    seed: int = _rule(2010, signed=True)
    checkpoint_interval: int = 1
    max_restarts: int = 3
    prefix: str = "chaos"


@dataclass(frozen=True)
class ExperimentConfig:
    """One parsed + validated experiment TOML."""

    name: str
    description: str
    suites: tuple[str, ...]
    kind: str  # "jobs" | "chaos"
    graph: GraphSpec
    cluster: ClusterSpec
    repetitions: int
    workloads: tuple[WorkloadSpec, ...] = ()
    chaos: ChaosSpec | None = None
    source: str = "<memory>"

    def workloads_for(self, suite: str) -> tuple[WorkloadSpec, ...]:
        """The workloads this suite selects (chaos: all-or-nothing)."""
        if suite not in self.suites and not any(
            suite in (w.suites or ()) for w in self.workloads
        ):
            return ()
        if self.kind == "chaos":
            return ()
        return tuple(w for w in self.workloads
                     if suite in (w.suites or self.suites))


# ----------------------------------------------------------------------
# Parsing + validation
# ----------------------------------------------------------------------
_EXPERIMENT_KEYS = {"name", "description", "suites", "kind"}
_TOP_KEYS = {"experiment", "graph", "cluster", "sampling", "workload",
             "chaos"}


def _unknown_keys(table: dict, allowed: typing.Collection[str], where: str,
                  errors: list[str]) -> None:
    for key in table:
        if key not in allowed:
            errors.append(f"{where}: unknown key {key!r} "
                          f"(allowed: {sorted(allowed)})")


def _number(value: Any, integral: bool) -> bool:
    # isinstance(True, int) is True — a bool is never a number here
    kinds = (int,) if integral else (int, float)
    return isinstance(value, kinds) and not isinstance(value, bool)


def _expected(value: Any, hint: Any, rules: typing.Mapping[str, Any],
              ) -> str | None:
    """What a field annotated ``hint`` wants, when ``value`` is not it."""
    union = typing.get_origin(hint) in (typing.Union, types.UnionType)
    wanted = []
    for kind in (typing.get_args(hint) if union else (hint,)):
        kind = typing.get_origin(kind) or kind
        if kind is type(None):
            continue  # optional: TOML has no null, absence is the None
        if kind is bool:
            ok, want = isinstance(value, bool), "a bool"
        elif kind is int and rules.get("signed"):
            ok, want = _number(value, integral=True), "an integer"
        elif kind is int:
            ok = _number(value, integral=True) and value >= 1
            want = "a positive integer"
        elif kind is float and "range" in rules:
            lo, hi = rules["range"]
            ok = _number(value, integral=False) and lo <= value <= hi
            want = f"a number in [{lo}, {hi}]"
        elif kind is float:
            ok = _number(value, integral=False) and value > 0
            want = "a positive number"
        elif kind is str:
            ok = isinstance(value, str) and value != ""
            want = "a non-empty string"
        elif kind is dict:
            ok, want = isinstance(value, dict), "a table"
        else:
            return None  # list-valued fields (suites) have explicit rules
        if ok:
            return None
        wanted.append(want)
    return " or ".join(wanted)


def _parse_spec(cls: Any, table: Any, where: str,
                errors: list[str]) -> dict[str, Any]:
    """Validate one TOML table against a spec dataclass's fields.

    Appends every violation to ``errors`` and returns the valid values:
    ``cls(**values)`` succeeds whenever this call added no error.
    """
    if not isinstance(table, dict):
        errors.append(f"{where}: not a table")
        return {}
    hints = typing.get_type_hints(cls)
    specs = {f.name: f for f in fields(cls)}
    _unknown_keys(table, specs, where, errors)
    values: dict[str, Any] = {}
    for name, spec in specs.items():
        required = (spec.default is MISSING
                    and spec.default_factory is MISSING)
        if name not in table and not required:
            continue
        value = table.get(name)
        choices = spec.metadata.get("choices")
        if choices is not None and value not in choices:
            errors.append(f"{where}: unknown {name} {value!r} — {name} "
                          f"must be one of {list(choices)}")
            continue
        want = _expected(value, hints[name], spec.metadata)
        if want is not None:
            errors.append(f"{where}: {name} must be {want}, "
                          f"got {value!r}")
            continue
        values[name] = value
    return values


def _suites_field(value: Any, where: str,
                  errors: list[str]) -> tuple[str, ...]:
    if (not isinstance(value, list) or not value
            or not all(isinstance(s, str) for s in value)):
        errors.append(f"{where}: suites must be a non-empty string list")
        return ()
    bad = [s for s in value if s not in SUITES]
    if bad:
        errors.append(f"{where}: unknown suites {bad} "
                      f"(known: {list(SUITES)})")
    return tuple(value)


def _parse_workload(table: Any, index: int,
                    errors: list[str]) -> dict[str, Any]:
    name = table.get("name") if isinstance(table, dict) else None
    where = f"[[workload]] #{index + 1}" + (f" ({name})" if name else "")
    values = _parse_spec(WorkloadSpec, table, where, errors)
    parts = values.get("parts")
    if isinstance(parts, str) and parts != "auto":
        errors.append(f"{where}: parts must be a positive integer or "
                      f"\"auto\", got {parts!r}")
    if (values.get("frontier")
            and values.get("engine", "propagation") != "propagation"):
        errors.append(f"{where}: frontier = true requires the "
                      f"propagation engine")
    if "suites" in values:
        values["suites"] = _suites_field(values["suites"], where,
                                         errors) or None
    return values


def parse_config(doc: dict, source: str = "<memory>") -> ExperimentConfig:
    """Validate a decoded TOML document into an :class:`ExperimentConfig`.

    Collects *every* violation and raises one :class:`BenchConfigError`
    naming them all.
    """
    errors: list[str] = []
    _unknown_keys(doc, _TOP_KEYS, "top level", errors)

    exp = doc.get("experiment")
    if not isinstance(exp, dict):
        raise BenchConfigError(source, ["missing [experiment] table"])
    _unknown_keys(exp, _EXPERIMENT_KEYS, "[experiment]", errors)
    name = exp.get("name")
    if not isinstance(name, str) or not name:
        errors.append("[experiment]: name must be a non-empty string")
        name = "<unnamed>"
    suites = _suites_field(exp.get("suites"), "[experiment]", errors)
    kind = exp.get("kind", "jobs")
    if kind not in ("jobs", "chaos"):
        errors.append(f"[experiment]: kind must be \"jobs\" or "
                      f"\"chaos\", got {kind!r}")
        kind = "jobs"

    graph = _parse_spec(GraphSpec, doc.get("graph", {}), "[graph]", errors)
    cluster = _parse_spec(ClusterSpec, doc.get("cluster", {}), "[cluster]",
                          errors)
    sampling = _parse_spec(SamplingSpec, doc.get("sampling", {}),
                           "[sampling]", errors)

    workloads: list[dict[str, Any]] = []
    chaos: dict[str, Any] | None = None
    if kind == "chaos":
        if "workload" in doc:
            errors.append("chaos experiments take a [chaos] table, "
                          "not [[workload]] entries")
        if not isinstance(doc.get("chaos"), dict):
            errors.append("kind = \"chaos\" requires a [chaos] table")
        else:
            chaos = _parse_spec(ChaosSpec, doc["chaos"], "[chaos]", errors)
            chaos.setdefault("prefix", name)
    else:
        raw = doc.get("workload", [])
        if not isinstance(raw, list) or not raw:
            errors.append("jobs experiments need at least one "
                          "[[workload]] entry")
            raw = []
        workloads = [_parse_workload(tbl, i, errors)
                     for i, tbl in enumerate(raw)]
        names = [w.get("name") for w in workloads]
        for dup in sorted({n for n in names if n and names.count(n) > 1}):
            errors.append(f"duplicate workload name {dup!r}")
        if graph.get("kind") == "rmat_shard":
            # the shard count must equal the explicit partition count
            # before the graph exists, so the auto rule and weak
            # scaling have nothing to size against
            for w in workloads:
                if w.get("parts") == "auto":
                    errors.append(f"workload {w.get('name')!r}: parts = "
                                  f"\"auto\" is not supported with "
                                  f"kind = \"rmat_shard\"")
                if w.get("scale_graph_by_machines"):
                    errors.append(f"workload {w.get('name')!r}: "
                                  f"scale_graph_by_machines is not "
                                  f"supported with kind = "
                                  f"\"rmat_shard\"")

    if errors:
        raise BenchConfigError(source, errors)
    return ExperimentConfig(
        name=name,
        description=str(exp.get("description", "")),
        suites=suites,
        kind=kind,
        graph=GraphSpec(**graph),
        cluster=ClusterSpec(**cluster),
        repetitions=SamplingSpec(**sampling).repetitions,
        workloads=tuple(WorkloadSpec(**w) for w in workloads),
        chaos=ChaosSpec(**chaos) if chaos is not None else None,
        source=source,
    )


def load_config(path: str | pathlib.Path) -> ExperimentConfig:
    """Parse one TOML config file (raises :class:`BenchConfigError`)."""
    path = pathlib.Path(path)
    try:
        with open(path, "rb") as fh:
            doc = tomllib.load(fh)
    except tomllib.TOMLDecodeError as exc:
        raise BenchConfigError(str(path), [f"TOML parse error: {exc}"])
    return parse_config(doc, source=str(path))


def discover_configs(
    config_dir: str | pathlib.Path | None = None,
) -> list[ExperimentConfig]:
    """All ``*.toml`` configs in a directory, sorted by experiment name."""
    directory = pathlib.Path(config_dir) if config_dir else DEFAULT_CONFIG_DIR
    if not directory.is_dir():
        raise BenchConfigError(str(directory), ["not a directory"])
    configs = [load_config(p) for p in sorted(directory.glob("*.toml"))]
    names = [c.name for c in configs]
    for dup in sorted({n for n in names if names.count(n) > 1}):
        raise BenchConfigError(
            str(directory), [f"duplicate experiment name {dup!r}"]
        )
    return sorted(configs, key=lambda c: c.name)


def select_suite(
    configs: list[ExperimentConfig], suite: str,
) -> list[ExperimentConfig]:
    """The configs a suite runs (chaos: experiment-level membership)."""
    if suite not in SUITES:
        raise BenchConfigError(
            "<suite>", [f"unknown suite {suite!r} (known: {list(SUITES)})"]
        )
    selected = []
    for cfg in configs:
        if cfg.kind == "chaos":
            if suite in cfg.suites:
                selected.append(cfg)
        elif cfg.workloads_for(suite):
            selected.append(cfg)
    return selected


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _build_graph(spec: GraphSpec, scale: float = 1.0):
    """The experiment graph; the standard recipe goes through the
    memoized :func:`standard_graph` so bisection caches are shared."""
    from repro.graph.generators import (
        composite_social_graph,
        web_feeder_graph,
    )

    if spec.kind == "web":
        return web_feeder_graph(
            core=spec.core,
            feeders=max(0, int(spec.feeders * scale)),
            seed=spec.seed,
        )
    recipe = (spec.communities, spec.community_size, spec.k, spec.p_r)
    if recipe == _STANDARD_RECIPE:
        return standard_graph(seed=spec.seed, scale=scale)
    return composite_social_graph(
        num_communities=max(2, int(spec.communities * scale)),
        community_size=spec.community_size,
        k=spec.k,
        p_r=spec.p_r,
        seed=spec.seed,
    )


def _shard_surfer(cfg: ExperimentConfig, machines: int, parts: int,
                  store_root: pathlib.Path):
    """An out-of-core Surfer: streamed R-MAT -> shard store -> range plan.

    The store is built (or reused) under ``store_root`` with one shard
    per partition, so the contiguous-range plan's partitions alias the
    shards and every partition load is a zero-copy memmap view.  All of
    this is deployment setup and stays outside the timed region.
    """
    from repro.core.range_plan import contiguous_range_plan
    from repro.core.surfer import Surfer
    from repro.graph.store import build_shard_store, open_shard_graph
    from repro.graph.stream import stream_rmat

    spec = cfg.graph
    path = store_root / (f"rmat{spec.rmat_scale}x{spec.edge_factor}"
                         f"_seed{spec.seed}_p{parts}")
    if not path.exists():
        build_shard_store(
            stream_rmat(spec.rmat_scale, edge_factor=spec.edge_factor,
                        seed=spec.seed),
            path,
            num_shards=parts,
        )
    graph = open_shard_graph(path)
    cluster = make_cluster(topology_by_name(cfg.cluster.topology,
                                            machines))
    plan = contiguous_range_plan(
        graph, cluster.topology, parts, seed=cfg.cluster.seed,
        offsets=graph.store.vertex_starts,
    )
    return Surfer(graph, cluster, seed=cfg.cluster.seed,
                  replication=cfg.cluster.replication, plan=plan)


def _deploy(cfg: ExperimentConfig, graph: Any, machines: int,
            parts: int) -> Any:
    """The Surfer ``[cluster]`` describes over an in-memory ``graph``."""
    return Workload(
        graph=graph,
        cluster=make_cluster(topology_by_name(cfg.cluster.topology,
                                              machines)),
        num_parts=parts,
        seed=cfg.cluster.seed,
        replication=cfg.cluster.replication,
    ).surfer(cfg.cluster.layout)


def run_workload(surfer: Any, workload: WorkloadSpec,
                 **job_options: Any) -> Any:
    """Run one named job on a deployed Surfer; returns its ``JobResult``.

    The launch every entry point shares — ``repro bench``, ``repro run``
    / ``profile`` / ``chaos``, chaos experiments: the spec names the app,
    engine, step count and engine flags (unset ones take the app's
    defaults from :func:`repro.apps.make_app`); ``job_options`` are the
    per-run extras of :meth:`Surfer.run <repro.core.surfer.Surfer.run>`
    a spec does not describe (``fault_plan``, ``checkpoint``,
    ``sanitize``).
    """
    app, steps, until = make_app(workload.app, workload.engine,
                                 **workload.app_args)
    if workload.until_convergence is not None:
        until = workload.until_convergence
    return surfer.run(
        app, workload.iterations or steps,
        local_opts=workload.local_opts, frontier=workload.frontier,
        combiner=workload.combiner, vectorized=workload.vectorized,
        until_convergence=until, **job_options,
    )


def chaos_job(workload: WorkloadSpec, policy: Any) -> Callable[..., Any]:
    """The ``run_job`` of a chaos sweep: ``workload`` under each fault
    plan, checkpointing under ``policy`` whenever there is a plan."""
    def run_job(surfer: Any, plan: Any) -> Any:
        return run_workload(
            surfer, workload, fault_plan=plan,
            checkpoint=policy if plan is not None else None,
        )
    return run_job


def _run_jobs_experiment(
    cfg: ExperimentConfig,
    workloads: tuple[WorkloadSpec, ...],
    repetitions: int,
    progress: Callable[[str], None] | None,
) -> dict[str, dict]:
    from repro.bench.experiments import parts_for

    records: dict[str, dict] = {}
    surfers: dict[tuple, Any] = {}
    with contextlib.ExitStack() as stack:
        store_root: pathlib.Path | None = None
        for wl in workloads:
            machines = wl.machines or cfg.cluster.machines
            if cfg.graph.kind == "rmat_shard":
                parts = int(wl.parts) if wl.parts is not None \
                    else cfg.cluster.parts
                key = (machines, parts, 1.0)
                if key not in surfers:
                    if store_root is None:
                        store_root = pathlib.Path(stack.enter_context(
                            tempfile.TemporaryDirectory(
                                prefix="repro-shard-bench-")))
                    surfers[key] = _shard_surfer(cfg, machines, parts,
                                                 store_root)
            else:
                scale = (machines / float(cfg.cluster.machines)
                         if wl.scale_graph_by_machines else 1.0)
                graph = _build_graph(cfg.graph, scale)
                if wl.parts == "auto":
                    parts = parts_for(graph, machines)
                else:
                    parts = int(wl.parts) if wl.parts is not None \
                        else cfg.cluster.parts
                key = (machines, parts, scale)
                if key not in surfers:
                    surfers[key] = _deploy(cfg, graph, machines, parts)
            run = functools.partial(run_workload, surfers[key], wl)

            peak: int | None = None
            rss_degraded = False
            if wl.measure_rss:
                (job, wall), rss = measure_peak_rss(
                    lambda: timed_min_of_n(run, repetitions))
                peak, rss_degraded = rss.bytes, rss.degraded
                if (wl.max_peak_rss_bytes is not None and peak is not None
                        and peak > wl.max_peak_rss_bytes):
                    raise BenchRunError(
                        f"workload {wl.name!r} peak RSS {peak:,} bytes "
                        f"exceeds the configured ceiling "
                        f"{int(wl.max_peak_rss_bytes):,} bytes"
                    )
            else:
                job, wall = timed_min_of_n(run, repetitions)
            if job.failed:
                raise BenchRunError(
                    f"workload {wl.name!r} failed: {job.error}"
                )
            issues = reconcile(job)
            if issues:
                raise BenchRunError(
                    f"workload {wl.name!r} does not reconcile: "
                    + "; ".join(issues)
                )
            records[wl.name] = job_record(job, wall,
                                          peak_rss_bytes=peak,
                                          rss_degraded=rss_degraded)
            if progress is not None:
                rss = ("" if peak is None
                       else f", peak RSS {peak / 2**20:,.0f} MiB"
                       + (" (degraded)" if rss_degraded else ""))
                progress(f"  {wl.name}: makespan "
                         f"{records[wl.name]['makespan_s']:,.1f}s sim, "
                         f"wall {wall:.3f}s (min of {repetitions})"
                         f"{rss}")
    return records


def _run_chaos_experiment(
    cfg: ExperimentConfig,
    progress: Callable[[str], None] | None,
) -> dict[str, dict]:
    from repro.runtime.chaos import run_chaos_sweep
    from repro.runtime.checkpoint import CheckpointPolicy

    spec = cfg.chaos
    assert spec is not None  # validated at parse time
    surfer = _deploy(cfg, _build_graph(cfg.graph), cfg.cluster.machines,
                     cfg.cluster.parts)
    run_job = chaos_job(
        WorkloadSpec(spec.prefix, app=spec.app, engine=spec.engine,
                     iterations=spec.iterations, until_convergence=False),
        CheckpointPolicy(interval=spec.checkpoint_interval,
                         max_restarts=spec.max_restarts))
    report = run_chaos_sweep(surfer, run_job, spec.schedules, spec.seed)
    if not report.ok:
        raise BenchRunError(
            "chaos sweep violated the recovery invariant:\n"
            + report.summary()
        )
    records = {
        f"{spec.prefix}_baseline":
            job_record(report.baseline, report.baseline_wall_s),
    }
    if report.restarted_job is not None:
        records[f"{spec.prefix}_restarted"] = job_record(
            report.restarted_job, report.restarted_wall_s
        )
    if progress is not None:
        progress(f"  {spec.prefix}: {len(report.outcomes)} schedules, "
                 f"{report.total_restarts} restarts, "
                 f"{report.clean_failures} clean failures")
    return records


def run_experiment(
    cfg: ExperimentConfig,
    suite: str | None = None,
    repetitions: int | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict[str, dict]:
    """Execute one experiment; returns ``{workload_name: record}``.

    ``suite=None`` runs every workload; otherwise only those the suite
    selects.  ``repetitions`` overrides the config's min-of-N count.
    """
    reps = repetitions if repetitions is not None else cfg.repetitions
    if cfg.kind == "chaos":
        return _run_chaos_experiment(cfg, progress)
    workloads = (cfg.workloads if suite is None
                 else cfg.workloads_for(suite))
    return _run_jobs_experiment(cfg, workloads, reps, progress)


@dataclass
class SuiteResult:
    """Everything one ``repro bench`` invocation produced."""

    suite: str
    records: dict[str, dict]
    experiments: list[str]


def run_suite(
    suite: str,
    config_dir: str | pathlib.Path | None = None,
    repetitions: int | None = None,
    progress: Callable[[str], None] | None = None,
) -> SuiteResult:
    """Run every experiment a suite selects, in name order."""
    configs = select_suite(discover_configs(config_dir), suite)
    records: dict[str, dict] = {}
    for cfg in configs:
        if progress is not None:
            progress(f"experiment {cfg.name} ({cfg.source})")
        result = run_experiment(cfg, suite=suite,
                                repetitions=repetitions,
                                progress=progress)
        overlap = set(result) & set(records)
        if overlap:
            raise BenchRunError(
                f"experiment {cfg.name!r} re-defines workload(s) "
                f"{sorted(overlap)} already produced by another config"
            )
        records.update(result)
    return SuiteResult(
        suite=suite,
        records=records,
        experiments=[c.name for c in configs],
    )

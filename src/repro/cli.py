"""Command-line interface: run jobs and regenerate experiments.

``python -m repro <command>``:

* ``run`` — deploy a synthetic graph and run one application on a chosen
  topology/primitive, printing metrics and the utilization report;
* ``profile`` — like ``run``, but with full observability: writes a
  Chrome-trace JSON (chrome://tracing, Perfetto), prints the metrics
  registry and verifies the trace reconciles with the cluster counters;
* ``chaos`` — run a seeded randomized fault-schedule sweep against one
  application with checkpoint/restore enabled, verifying every schedule
  ends bit-identical to the fault-free baseline or as a cleanly-reported
  failure (exit 1 on any violation);
* ``experiment`` — run paper tables/figures/ablations from the
  :data:`repro.bench.experiments.EXPERIMENTS` registry (or ``all``),
  print each in the paper's arrangement (every simulated cost of a
  recorded job to the last digit) and exit 1 if any reported shape is
  broken; ``--out DIR`` also writes ``DIR/<name>.txt``, the form of the
  committed ``benchmarks/results/`` baseline;
* ``partition`` — partition a graph and save the plan to a ``.npz`` file;
* ``info`` — describe a saved plan;
* ``graphinfo`` — profile a synthetic or edge-list graph;
* ``store`` — stream a generator into an on-disk sharded CSR store
  (``store build``) or describe an existing one (``store info``).
"""

from __future__ import annotations

import argparse
import sys

from repro.apps import APP_ORDER, EXTENSION_APPS
from repro.bench.workloads import (
    TOPOLOGIES,
    make_cluster,
    topology_by_name,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Surfer reproduction: large graph processing in the "
                    "cloud (SIGMOD 2010)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_job_options(p) -> None:
        """The named job and its deployment: declared once for
        ``run`` / ``profile`` / ``chaos``."""
        p.add_argument("app",
                       choices=list(APP_ORDER) + list(EXTENSION_APPS))
        p.add_argument("--engine", choices=("propagation", "mapreduce"),
                       default="propagation")
        p.add_argument("--frontier", action="store_true",
                       help="sparse active-set propagation: Transfer "
                            "scans only frontier vertices "
                            "(propagation engine, frontier apps only)")
        p.add_argument("--topology", choices=list(TOPOLOGIES), default="T1")
        p.add_argument("--layout",
                       choices=("bandwidth-aware", "oblivious"),
                       default="bandwidth-aware")
        p.add_argument("--machines", type=int, default=16)
        p.add_argument("--parts", type=int, default=32)
        p.add_argument("--iterations", type=int, default=None)
        p.add_argument("--communities", type=int, default=16)
        p.add_argument("--community-size", type=int, default=256)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--replication", type=int, default=3,
                       help="partition replication factor "
                            "(default %(default)s)")
        p.add_argument("--checkpoint-interval", type=int, default=0,
                       help="checkpoint every N supersteps/rounds and "
                            "restart from checkpoint on data loss "
                            "(0 = disabled)")
        p.add_argument("--max-restarts", type=int, default=3,
                       help="job-level restart budget (with "
                            "--checkpoint-interval)")

    def add_run_options(p) -> None:
        add_job_options(p)
        p.add_argument("--no-local-opts", action="store_true")
        p.add_argument("--kill", action="append", default=[],
                       metavar="M@T",
                       help="kill machine M at simulated time T "
                            "(repeatable), e.g. --kill 3@10.5")
        p.add_argument("--sanitize", action="store_true",
                       help="run under SimSan: BSP write-race detection, "
                            "shadow-counter conservation and span-frame "
                            "checks (observe-only; also enabled by "
                            "REPRO_SANITIZE=1)")

    run = sub.add_parser("run", help="run one application")
    add_run_options(run)

    prof = sub.add_parser(
        "profile",
        help="run one application with full observability "
             "(Chrome trace, metrics)",
    )
    add_run_options(prof)
    prof.add_argument("--trace", default=None,
                      help="Chrome-trace JSON output path "
                           "(default trace_<app>.json)")

    chaos = sub.add_parser(
        "chaos",
        help="seeded randomized fault-schedule sweep with "
             "checkpoint/restore (recovery invariant check)",
    )
    add_job_options(chaos)
    # a sweep runs the job once per schedule: smaller deployment, and
    # replication low enough / checkpoints on so restarts get exercised
    chaos.set_defaults(machines=8, parts=16, communities=4,
                       community_size=32, replication=2,
                       checkpoint_interval=1)
    chaos.add_argument("--schedules", type=int, default=50,
                       help="random fault schedules to run (default 50)")

    from repro.bench.experiments import EXPERIMENTS

    exp = sub.add_parser(
        "experiment",
        help="run paper tables/figures/ablations and check their shapes "
             "(exit 1 on a broken shape)",
    )
    exp.add_argument("names", nargs="+", metavar="NAME",
                     choices=[*EXPERIMENTS, "all"],
                     help="registry name(s), or 'all': "
                          + ", ".join(EXPERIMENTS))
    exp.add_argument("--out", default=None, metavar="DIR",
                     help="also write each rendered table to "
                          "DIR/<name>.txt (nothing is written without "
                          "it); --out benchmarks/results rewrites the "
                          "committed baseline")

    part = sub.add_parser("partition",
                          help="partition a synthetic graph, save the plan")
    part.add_argument("output", help="plan file (.npz)")
    part.add_argument("--topology", choices=list(TOPOLOGIES), default="T1")
    part.add_argument("--machines", type=int, default=16)
    part.add_argument("--parts", type=int, default=32)
    part.add_argument("--layout",
                      choices=("bandwidth-aware", "oblivious"),
                      default="bandwidth-aware")
    part.add_argument("--communities", type=int, default=16)
    part.add_argument("--community-size", type=int, default=256)
    part.add_argument("--seed", type=int, default=0)

    info = sub.add_parser("info", help="describe a saved plan")
    info.add_argument("plan", help="plan file (.npz)")

    ginfo = sub.add_parser("graphinfo",
                           help="profile a synthetic or edge-list graph")
    ginfo.add_argument("--edge-list", default=None,
                       help="read the graph from an edge-list file")
    ginfo.add_argument("--communities", type=int, default=16)
    ginfo.add_argument("--community-size", type=int, default=256)
    ginfo.add_argument("--seed", type=int, default=0)
    ginfo.add_argument("--no-ier", action="store_true",
                       help="skip the (slow) partition-quality curve")

    store = sub.add_parser(
        "store",
        help="build or inspect an on-disk sharded CSR graph store "
             "(the out-of-core XL path)",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    sbuild = store_sub.add_parser(
        "build",
        help="stream a synthetic generator into a shard store without "
             "materializing the edge set in RAM",
    )
    sbuild.add_argument("output", help="store directory to create")
    sbuild.add_argument("--kind",
                        choices=("rmat", "small-world", "web"),
                        default="rmat")
    sbuild.add_argument("--shards", type=int, default=8,
                        help="shard count (match the planned partition "
                             "count so partitions alias shards)")
    sbuild.add_argument("--scale", type=int, default=16,
                        help="R-MAT scale: n = 2^scale")
    sbuild.add_argument("--edge-factor", type=int, default=8,
                        help="R-MAT edges per vertex (before dedup)")
    sbuild.add_argument("--vertices", type=int, default=4096,
                        help="small-world vertex count")
    sbuild.add_argument("--k", type=int, default=4,
                        help="small-world out-degree")
    sbuild.add_argument("--rewire-p", type=float, default=0.05,
                        help="small-world rewire probability")
    sbuild.add_argument("--core", type=int, default=32,
                        help="web-feeder core size")
    sbuild.add_argument("--feeders", type=int, default=480,
                        help="web-feeder feeder count")
    sbuild.add_argument("--seed", type=int, default=0)
    sinfo = store_sub.add_parser("info",
                                 help="describe an existing shard store")
    sinfo.add_argument("path", help="store directory")

    check = sub.add_parser(
        "check",
        help="run the domain-aware static-analysis gate "
             "(determinism lints, UDF contracts, counter conservation, "
             "typing)",
    )
    check.add_argument("paths", nargs="*", default=["src"],
                       help="files/directories to scan (default: src)")
    check.add_argument("--json", dest="json_path", default=None,
                       help="write the repro-check/v1 findings document "
                            "to this path")
    check.add_argument("--no-contracts", dest="contracts",
                       action="store_false",
                       help="skip the dynamic UDF contract verification "
                            "over the app registries (run by default)")
    return parser


def _make_graph(args, symmetrize: bool = False):
    from repro.graph.generators import composite_social_graph

    graph = composite_social_graph(
        num_communities=args.communities,
        community_size=args.community_size,
        seed=args.seed,
    )
    return graph.symmetrized() if symmetrize else graph


def _job_spec(args, local_opts: bool = True):
    """The job ``args`` names, as a ``WorkloadSpec``.

    Argument errors are reported here — before anything is generated or
    partitioned — as a message on stderr and ``None``.
    """
    from repro.apps import make_app
    from repro.bench.workloads import WorkloadSpec
    from repro.errors import JobError

    try:
        make_app(args.app, args.engine)
        if args.frontier and args.engine == "mapreduce":
            raise JobError("--frontier requires the propagation engine")
    except JobError as exc:
        print(exc, file=sys.stderr)
        return None
    return WorkloadSpec(args.app, args.engine, iterations=args.iterations,
                        frontier=args.frontier, local_opts=local_opts)


def _deploy(args):
    """The Surfer ``args`` describes: generate, partition, place, deploy.

    The one deployment behind ``run`` / ``profile`` / ``chaos``.
    """
    from repro.apps import SYMMETRIC_APPS
    from repro.core import Surfer

    graph = _make_graph(args, symmetrize=args.app in SYMMETRIC_APPS)
    cluster = make_cluster(topology_by_name(args.topology, args.machines))
    return Surfer(graph, cluster, num_parts=args.parts,
                  layout=args.layout, seed=args.seed,
                  replication=args.replication)


def _deploy_and_run(args):
    """Deploy per ``args`` and run the job.

    Shared by ``run`` and ``profile``.  Returns ``(job, wall_clock_s)``,
    or ``(None, 0.0)`` on an argument error (already printed).
    """
    from repro.bench.workloads import run_workload
    from repro.runtime.checkpoint import CheckpointPolicy
    from repro.runtime.events import wall_timer

    spec = _job_spec(args, local_opts=not args.no_local_opts)
    if spec is None:
        return None, 0.0
    fault_plan = _parse_kills(args.kill)
    surfer = _deploy(args)
    graph = surfer.graph
    print(f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges"
          f" | ier {surfer.pgraph.inner_edge_ratio:.1%}"
          f" | {args.topology}, {args.machines} machines")
    policy = None
    if args.checkpoint_interval > 0:
        policy = CheckpointPolicy(interval=args.checkpoint_interval,
                                  max_restarts=args.max_restarts)
    timer = wall_timer()
    job = run_workload(
        surfer, spec, fault_plan=fault_plan, checkpoint=policy,
        # True opts in; None defers to the REPRO_SANITIZE environment switch
        sanitize=True if args.sanitize else None,
    )
    return job, timer.elapsed()


def _parse_kills(specs):
    """``--kill M@T`` arguments into a FaultPlan (None when empty)."""
    from repro.cluster.faults import FaultPlan
    from repro.errors import FaultInjectionError

    if not specs:
        return None
    plan = FaultPlan()
    for spec in specs:
        machine, _, time = spec.partition("@")
        try:
            plan.add_kill(int(machine), float(time))
        except ValueError:
            raise SystemExit(f"bad --kill {spec!r}: expected M@T, "
                             f"e.g. 3@10.5")
        except FaultInjectionError as exc:
            raise SystemExit(f"bad --kill {spec!r}: {exc}")
    return plan


def _print_metrics(job) -> None:
    m = job.metrics
    print(f"response time : {m.response_time:12,.1f}s simulated")
    print(f"machine time  : {m.total_machine_time:12,.1f}s")
    print(f"network I/O   : {m.network_bytes:12,d} B")
    print(f"disk I/O      : {m.disk_bytes:12,d} B")


def _cmd_run(args) -> int:
    from repro.runtime.monitor import JobMonitor

    job, _ = _deploy_and_run(args)
    if job is None:
        return 2
    if job.failed:
        print(f"job FAILED: {job.error}", file=sys.stderr)
    _print_metrics(job)
    print()
    print(JobMonitor(job.events).report())
    return 1 if job.failed else 0


def _cmd_profile(args) -> int:
    from repro.runtime.events import reconcile, write_chrome_trace
    from repro.runtime.monitor import JobMonitor

    job, wall = _deploy_and_run(args)
    if job is None:
        return 2
    if job.failed:
        print(f"job FAILED: {job.error}", file=sys.stderr)
    _print_metrics(job)
    print(f"wall clock    : {wall:12,.3f}s real")
    print()
    print(JobMonitor(job.events).report())
    print(job.events.metrics.report())
    print()

    problems = reconcile(job)
    if problems:
        print("trace does NOT reconcile with cluster counters:",
              file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
    else:
        print("trace reconciles with cluster counters "
              "(makespan, disk, network)")

    trace_path = args.trace or f"trace_{args.app}.json"
    write_chrome_trace(job.events, trace_path)
    print(f"chrome trace  : {trace_path} "
          f"({len(job.events.spans)} spans, "
          f"{len(job.events.instants)} instants) — load in "
          "chrome://tracing or https://ui.perfetto.dev")
    return 1 if problems else 0


def _cmd_chaos(args) -> int:
    from repro.bench.workloads import chaos_job
    from repro.runtime.chaos import run_chaos_sweep
    from repro.runtime.checkpoint import CheckpointPolicy
    from repro.runtime.events import wall_timer

    spec = _job_spec(args)
    if spec is None:
        return 2
    run_job = chaos_job(spec, CheckpointPolicy(
        interval=args.checkpoint_interval, max_restarts=args.max_restarts))
    surfer = _deploy(args)
    graph = surfer.graph
    print(f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges"
          f" | {args.topology}, {args.machines} machines, "
          f"replication {args.replication}")
    timer = wall_timer()
    report = run_chaos_sweep(surfer, run_job, args.schedules, args.seed)
    wall = timer.elapsed()
    print(report.summary())
    print(f"wall clock: {wall:,.1f}s real")
    return 0 if report.ok else 1


def _cmd_experiment(args) -> int:
    import pathlib

    from repro.bench.experiments import EXPERIMENTS
    from repro.errors import BenchRunError

    names = list(EXPERIMENTS) if "all" in args.names else args.names
    out = pathlib.Path(args.out) if args.out else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    broken = 0
    for name in names:
        exp = EXPERIMENTS[name]
        try:
            result = exp.run()
        except BenchRunError as exc:
            # a failed or unreconciled job: no table, and no cost to print
            print(f"  BROKEN SHAPE [{name}]: {exc}\n")
            broken += 1
            continue
        text = exp.render(result)
        print(text)
        shapes = exp.check(result)
        for shape in shapes:
            print(f"  BROKEN SHAPE [{name}]: {shape}")
        if not shapes:
            print(f"  shape reproduced [{name}] — paper: {exp.paper}")
        print()
        if out is not None:
            (out / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        broken += len(shapes)
    if broken:
        print(f"{broken} broken shape(s)", file=sys.stderr)
    return 1 if broken else 0


def _cmd_partition(args) -> int:
    from repro.core.bandwidth_aware import (
        bandwidth_aware_partition,
        oblivious_partition,
    )
    from repro.core.persist import save_plan
    from repro.partitioning.metrics import inner_edge_ratio
    from repro.runtime.events import wall_timer

    graph = _make_graph(args)
    topology = topology_by_name(args.topology, args.machines)
    timer = wall_timer()
    build = (bandwidth_aware_partition if args.layout == "bandwidth-aware"
             else oblivious_partition)
    plan = build(graph, topology, args.parts, seed=args.seed)
    elapsed = timer.elapsed()
    save_plan(plan, args.output)
    print(f"partitioned {graph.num_vertices} vertices / "
          f"{graph.num_edges} edges into {plan.num_parts} parts "
          f"in {elapsed:.1f}s wall")
    print(f"inner edge ratio {inner_edge_ratio(graph, plan.parts):.1%}, "
          f"layout {plan.method}")
    print(f"plan saved to {args.output}")
    return 0


def _cmd_graphinfo(args) -> int:
    from repro.graph.analysis import profile_graph
    from repro.graph.io import read_edge_list

    if args.edge_list:
        graph = read_edge_list(args.edge_list)
    else:
        graph = _make_graph(args)
    profile = profile_graph(graph, seed=args.seed,
                            with_ier=not args.no_ier)
    print(profile.report())
    return 0


def _cmd_info(args) -> int:
    import numpy as np

    from repro.core.persist import load_plan

    plan = load_plan(args.plan)
    sizes = np.bincount(plan.parts, minlength=plan.num_parts)
    print(f"method    : {plan.method}")
    print(f"partitions: {plan.num_parts} "
          f"(sizes {sizes.min()}..{sizes.max()} vertices)")
    print(f"vertices  : {plan.parts.size}")
    print(f"machines  : {len(set(int(m) for m in plan.placement))} used")
    if plan.node_cuts:
        root = plan.node_cuts.get((0, 0))
        print(f"root cut  : {root} (weighted)")
    return 0


def _cmd_store(args) -> int:
    from repro.graph.store import ShardStore, build_shard_store
    from repro.runtime.events import wall_timer

    if args.store_command == "build":
        from repro.errors import GraphError
        from repro.graph.stream import (
            stream_rmat,
            stream_small_world,
            stream_web_feeder,
        )

        timer = wall_timer()
        try:
            if args.kind == "rmat":
                stream = stream_rmat(args.scale,
                                     edge_factor=args.edge_factor,
                                     seed=args.seed)
            elif args.kind == "small-world":
                stream = stream_small_world(args.vertices, k=args.k,
                                            rewire_p=args.rewire_p,
                                            seed=args.seed)
            else:
                stream = stream_web_feeder(args.core, args.feeders,
                                           seed=args.seed)
            store = build_shard_store(stream, args.output,
                                      num_shards=args.shards)
        except GraphError as exc:
            raise SystemExit(f"store build: {exc}")
        elapsed = timer.elapsed()
        print(f"built {args.output}: {store.num_vertices:,} vertices, "
              f"{store.num_edges:,} edges in {store.num_shards} "
              f"shard(s), {elapsed:.1f}s wall")
        print(f"largest shard: {store.largest_shard_edges():,} edges "
              f"({store.largest_shard_edges() * 8 / 2**20:,.1f} MiB "
              f"of indices)")
        return 0

    store = ShardStore(args.path)
    print(f"format    : {store.manifest['format']}")
    print(f"vertices  : {store.num_vertices:,}")
    print(f"edges     : {store.num_edges:,}")
    print(f"shards    : {store.num_shards}")
    print(f"dedup     : {store.manifest['dedup']} | drop_self_loops: "
          f"{store.manifest['drop_self_loops']}")
    for s in range(store.num_shards):
        lo = int(store.vertex_starts[s])
        hi = int(store.vertex_starts[s + 1])
        print(f"  shard {s:3d}: vertices [{lo:,}, {hi:,}), "
              f"{store.shard_edge_count(s):,} edges")
    return 0


def _cmd_check(args) -> int:
    from repro.analysis.runner import check_paths

    report = check_paths(list(args.paths), contracts_pass=args.contracts)
    print(report.render())
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json(list(args.paths)))
        print(f"findings JSON written to {args.json_path}")
    return report.exit_code


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "profile": _cmd_profile,
        "chaos": _cmd_chaos,
        "experiment": _cmd_experiment,
        "partition": _cmd_partition,
        "info": _cmd_info,
        "graphinfo": _cmd_graphinfo,
        "store": _cmd_store,
        "check": _cmd_check,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

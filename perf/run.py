#!/usr/bin/env python3
"""The pipeline benchmark's one command.

One run, as the benchmark driver calls it::

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name with its unit and, as the last line of standard
output, one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

Without ``--trace`` it runs the suite: each selected workload in a fresh
child process, first untraced, then traced, one after the other, and
writes the results and one span file per workload under ``perf/out/``::

    python3 perf/run.py --seed 2010 [--workload NAME] [--out FILE]

``--compare A.json B.json`` judges two such result files against the
bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
REPO = PERF_DIR.parent

# One thread, fixed string hashing: the machine has two cores and the
# program under test is single-threaded.  NumPy's huge-page advice is off
# because this kernel (THP defrag = madvise) then compacts memory inside
# every first touch of a large array and never gets a huge page for it:
# the same R-MAT generation took 1.4 s without the advice and 2.7-6 s with.
# The two glibc thresholds are fixed because the defaults adapt while the
# process runs: whether the heap was trimmed after set-up differed from run
# to run and made peak RSS bimodal (144 or 157 MB on rmat_ooc_bfs).  With
# them the heap is never trimmed, VmHWM is its high-water mark (152-157 MB)
# and the timings do not move.
PINNED_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "NUMPY_MADVISE_HUGEPAGE": "0",
              "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
              "MALLOC_TRIM_THRESHOLD_": str(16 << 30)}


def benchmark_spec() -> dict:
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv: list[str], spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=2010)
    parser.add_argument("--seconds", type=float,
                        help="timed job seconds per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one run in this process: 0 end-to-end, "
                             "1 per-layer; omit to run the suite")
    parser.add_argument("--tiny", action="store_true",
                        help="the small size preset the tests use")
    parser.add_argument("--out", help="write the full results as JSON")
    parser.add_argument("--spans",
                        help="with --trace: write the span file here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    return args


def pin_environment() -> None:
    """Re-exec once with the pinned variables, before NumPy is loaded."""
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        sys.stdout.flush()
        os.execv(sys.executable, [sys.executable, *sys.argv])


def use_repo_imports() -> None:
    """Import ``perf.*`` and ``repro.*`` from this checkout.

    The script's own directory leaves ``sys.path`` so that ``perf/trace.py``
    cannot shadow the standard library's ``trace``.
    """
    sys.path[:] = [p for p in sys.path
                   if Path(p or ".").resolve() != PERF_DIR]
    sys.path[:0] = [str(REPO), str(REPO / "src")]


# ----------------------------------------------------------------------
def one_run(args: argparse.Namespace) -> int:
    """A single run in this process (the driver's contract)."""
    try:
        from perf import harness, workloads
    except ModuleNotFoundError as exc:
        raise SystemExit(f"the program under test is not importable from "
                         f"{REPO / 'src'}: {exc}") from None

    result = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        sizes=workloads.TINY if args.tiny else workloads.FULL,
        spans_path=args.spans)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in args.spec[section]}
    values = getattr(result, section)
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {unknown}")
    # a layer the workload never enters did no work: its metrics read 0
    values = {name: float(values.get(name, 0.0)) for name in units}

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  samples {result.samples}")
    print(f"-- {section}")
    for name, value in values.items():
        print(f"{name:44s} {value:>22.6f} {units[name]}")
    for name, value in result.raw.items():
        print(f"{'as measured: ' + name:44s} {value:>22.6f} s")
    print(f"ops_total = {result.attempted}  ops_failed = {result.failed}")
    for failure in result.failures:
        print(f"FAILED {failure}")
    if result.missing_targets:
        print("trace.missing_targets: " + ", ".join(result.missing_targets))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({**dataclasses.asdict(result), "metrics": values},
                      handle)
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


# ----------------------------------------------------------------------
def provenance(seed: int, seconds: float, tiny: bool) -> dict[str, object]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, check=True,
            capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"commit": commit, "seed": seed, "seconds": seconds,
            "sizes": "tiny" if tiny else "full", "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def child_run(args: argparse.Namespace, name: str, trace: int,
              out: Path) -> dict | None:
    """One run in a fresh child process; its full result, or None."""
    part = out.with_name(f"{out.stem}.{name}.trace{trace}.json")
    command = [sys.executable, str(PERF_DIR / "run.py"),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--out", str(part)]
    if args.tiny:
        command.append("--tiny")
    if trace:
        command += ["--spans",
                    str(out.with_name(f"{out.stem}.{name}.spans.json"))]
    done = subprocess.run(command, env={**os.environ, **PINNED_ENV},
                          stdout=subprocess.PIPE, text=True)
    # everything but the machine-readable last line
    sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
    if done.returncode != 0:
        print(f"{name} --trace {trace} exited {done.returncode}")
        return None
    with open(part, encoding="utf-8") as handle:
        run = json.load(handle)
    part.unlink()
    return run


def suite(args: argparse.Namespace) -> int:
    """Every selected workload, untraced then traced, one child each."""
    out_dir = PERF_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    out = Path(args.out) if args.out else (
        out_dir / f"results-seed{args.seed}.json")
    names = ([args.workload] if args.workload
             else [w["name"] for w in args.spec["workloads"]])
    results = {}
    for name in names:
        untraced = child_run(args, name, 0, out)
        traced = untraced and child_run(args, name, 1, out)
        if not traced:
            return 1
        results[name] = {
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
            "as_measured": untraced["raw"],
            "samples": {**traced["samples"], **untraced["samples"]},
            "spread": untraced["spread"],
            "counts": untraced["counts"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failures": untraced["failures"] + traced["failures"],
            "missing_targets": traced["missing_targets"],
        }
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"schema": "perf-results/v1",
                   "provenance": provenance(args.seed, args.seconds,
                                            args.tiny),
                   "workloads": results}, handle, indent=1)
    print(f"results: {out}")
    print("ops_failed = "
          f"{sum(len(r['failures']) for r in results.values())}")
    return 0


def main(argv: list[str]) -> int:
    spec = benchmark_spec()
    args = parse_args(argv, spec)
    use_repo_imports()
    if args.compare:
        from perf import compare
        return compare.main(spec, *args.compare)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    args.spec = spec
    if args.trace is None:
        return suite(args)
    pin_environment()
    return one_run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

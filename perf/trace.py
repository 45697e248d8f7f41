"""Outside-in tracing: spans and call counts around public ``repro`` entry points.

Nothing under ``src/`` knows about this module.  :class:`Tracer` wraps a
fixed table of public functions and methods (:data:`TARGETS`) with timing
or counting shims, from here, and removes them again.  A module-level
function is rebound in *every* loaded ``repro.*`` module that holds a
reference to it, so ``from x import y`` call sites are covered too.  A
target that no longer resolves is remembered in ``Tracer.missing`` and
skipped — the benchmark keeps running when a refactor deletes one.

Spans live in memory as ``[name, start, end, parent, phase, rep]`` rows and
are written out (Chrome-trace JSON, loadable in ``chrome://tracing`` or
Perfetto) once the run ends.  A span's *self time* is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterator

__all__ = ["Target", "TARGETS", "Tracer", "SpanStats"]


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``attr`` is ``func`` or ``Class.method``."""

    name: str
    module: str
    attr: str
    count_only: bool = False

    def __str__(self) -> str:
        return f"{self.module}:{self.attr}"


# span name -> the layer is the part before the first dot
TARGETS: tuple[Target, ...] = (
    Target("graph.generate", "repro.graph.generators",
           "composite_social_graph"),
    Target("graph.generate", "repro.graph.generators", "rmat"),
    Target("graph.store_build", "repro.graph.store", "build_shard_store"),
    Target("graph.store_open", "repro.graph.store", "open_shard_graph"),
    Target("partitioning.wgraph", "repro.partitioning.wgraph",
           "WGraph.from_digraph"),
    Target("partitioning.bisect", "repro.partitioning.recursive",
           "recursive_bisection"),
    Target("partitioning.multilevel", "repro.partitioning.bisect",
           "multilevel_bisection"),
    Target("partitioning.coarsen", "repro.partitioning.coarsen",
           "coarsen_until"),
    Target("partitioning.initial", "repro.partitioning.ggp",
           "gggp_bisection"),
    Target("partitioning.fm_refine", "repro.partitioning.refine",
           "fm_refine"),
    Target("partitioning.kway_balance", "repro.partitioning.kway",
           "kway_refine_balance"),
    Target("core.place", "repro.core.bandwidth_aware",
           "bandwidth_aware_partition"),
    Target("core.place", "repro.core.bandwidth_aware",
           "oblivious_partition"),
    Target("core.place", "repro.core.range_plan", "contiguous_range_plan"),
    Target("core.plan_build", "repro.core.partitioned",
           "PartitionedGraph.__init__"),
    Target("core.plan_build", "repro.core.partitioned",
           "RangePartitionedGraph.__init__"),
    Target("core.deploy", "repro.core.surfer", "Surfer.__init__"),
    Target("propagation.iteration", "repro.propagation.engine",
           "PropagationEngine.run_iteration"),
    Target("mapreduce.round", "repro.mapreduce.engine",
           "MapReduceEngine.run_round"),
    Target("runtime.schedule", "repro.runtime.scheduler",
           "StageScheduler.run_stage"),
    Target("runtime.reconcile", "repro.runtime.events", "reconcile"),
    Target("propagation.messagebox_add_calls", "repro.propagation.api",
           "MessageBox.add", count_only=True),
)


@dataclass
class SpanStats:
    """Inclusive seconds, self seconds and call count of one span name."""

    total: float = 0.0
    self_time: float = 0.0
    count: int = 0


class Tracer:
    """Span recorder plus the install/uninstall of the wrapper table."""

    def __init__(self, workload: str,
                 targets: tuple[Target, ...] = TARGETS) -> None:
        self.workload = workload
        self.targets = targets
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        #: call-count deltas of each ``rep()`` block, keyed like the spans
        self.rep_counts: dict[tuple[str, int], Counter[str]] = {}
        self.missing: list[str] = []
        self.phase = ""
        self.rep_index = 0
        self._stack: list[int] = []
        #: (owner, attribute, original value or _ABSENT) in install order
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether the wrapper table is currently installed."""
        return bool(self._patches)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """An explicit span around a block of the benchmark's own code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextlib.contextmanager
    def rep(self, phase: str, index: int) -> Iterator[None]:
        """Root span of one repetition; tags every span opened inside."""
        self.phase, self.rep_index = phase, index
        before = self.counts.copy()
        try:
            with self.span(f"bench.{phase}"):
                yield
        finally:
            self.rep_counts[(phase, index)] = self.counts - before
            self.phase = ""

    def rep_walls(self, phase: str) -> list[float]:
        """Wall seconds of each repetition of ``phase``, in order."""
        root = f"bench.{phase}"
        return [s[2] - s[1] for s in self.spans if s[0] == root]

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append([name, 0.0, 0.0, parent, self.phase,
                           self.rep_index])
        self.spans[index][1] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _timed(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return wrapper

    def _counted(self, name: str,
                 fn: Callable[..., Any]) -> Callable[..., Any]:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def count_calls(self, obj: Any, attr: str, name: str) -> None:
        """Count calls of one *instance's* method while tracing is on.

        The shim is an instance attribute, so it dies with the object and
        never touches the class.  A hook the object lacks is skipped.
        """
        bound = getattr(obj, attr, None)
        if self.active and callable(bound):
            setattr(obj, attr, self._counted(name, bound))

    # -- installing -----------------------------------------------------
    def install(self) -> None:
        """Wrap every resolvable target; remember the rest as missing."""
        if self.active:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for target in self.targets:
            try:
                owner, attr, raw = _resolve(target)
            except (ImportError, AttributeError):
                self.missing.append(str(target))
                continue
            wrap = self._counted if target.count_only else self._timed
            if inspect.ismodule(owner):
                self._rebind_everywhere(raw, wrap(target.name, raw))
            else:
                self._patch_class(owner, attr, raw, wrap, target.name)

    def _rebind_everywhere(self, original: Any, wrapper: Any) -> None:
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "repro"
                                      or modname.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._patches.append((module, key, original))

    def _patch_class(self, owner: type, attr: str, raw: Any,
                     wrap: Callable[..., Any], name: str) -> None:
        previous = vars(owner).get(attr, _ABSENT)
        if isinstance(raw, (classmethod, staticmethod)):
            shim: Any = type(raw)(wrap(name, raw.__func__))
        else:
            shim = wrap(name, raw)
        setattr(owner, attr, shim)
        self._patches.append((owner, attr, previous))

    def uninstall(self) -> None:
        """Put every original back, in reverse install order."""
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # -- reading --------------------------------------------------------
    def self_times(self) -> list[float]:
        """Self seconds per span: duration minus direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def aggregate(self) -> dict[tuple[str, int], dict[str, SpanStats]]:
        """Per ``(phase, rep)``: stats of every span name seen in it."""
        own = self.self_times()
        out: dict[tuple[str, int], dict[str, SpanStats]] = {}
        for s, self_time in zip(self.spans, own):
            stats = out.setdefault((s[4], s[5]), {}).setdefault(
                s[0], SpanStats())
            stats.total += s[2] - s[1]
            stats.self_time += self_time
            stats.count += 1
        return out

    def chrome_trace(self) -> dict[str, Any]:
        """The spans as Chrome-trace complete events (microseconds)."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = []
        for index, (s, self_time) in enumerate(
                zip(self.spans, self.self_times())):
            events.append({
                "name": s[0], "cat": s[0].split(".", 1)[0], "ph": "X",
                "ts": (s[1] - origin) * 1e6, "dur": (s[2] - s[1]) * 1e6,
                "pid": 1, "tid": 1,
                "args": {"id": index, "parent": s[3], "phase": s[4],
                         "rep": s[5], "workload": self.workload,
                         "self_us": self_time * 1e6},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"workload": self.workload,
                              "missing_targets": self.missing}}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


_ABSENT = object()


def _resolve(target: Target) -> tuple[Any, str, Any]:
    """``(owner, attribute, raw value)`` of a target, or raise."""
    module = importlib.import_module(target.module)
    owner: Any = module
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, inspect.getattr_static(owner, attr)

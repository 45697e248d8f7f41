"""Per-partition array work on the spare cores.

Surfer runs a stage's partitions side by side; :func:`map_partitions`
does the same for the simulator's NumPy work over CSR slices and
memmapped shards, which releases the GIL.  It only computes: callers
build tasks, reports and metrics from its results in partition order.
"""

from __future__ import annotations

import contextvars
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, TypeVar

__all__ = ["MIN_POOLED_WORK", "WORKERS", "map_partitions"]

T = TypeVar("T")

#: Smallest stage (edges scanned) the pool takes: pooled, the 16 small
#: Python-UDF partitions of ``social_ba_apps`` ran 1.38x slower on a
#: 2-core box (GIL convoys), 2^20-edge R-MAT Transfers ~1.3x faster.
MIN_POOLED_WORK = 1 << 17

#: One pool thread per spare core, as the caller works too.  Two beside
#: an idle caller were no faster on 2 cores and kept +15 % peak RSS in
#: glibc's per-thread malloc arenas; one plus the caller kept +7.6 %.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1) - 1


@functools.cache
def _executor(workers: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(workers, thread_name_prefix="partition")


def _lane(context: contextvars.Context, fn: Callable[[int], T],
          claim: Callable[[], int | None], results: list,
          failures: dict[int, BaseException]) -> None:
    # Partitions are claimed in ascending order, so once one has failed
    # every lower one is claimed already: no lane needs to claim more.
    while not failures and (p := claim()) is not None:
        try:
            results[p] = context.run(fn, p)
        except BaseException as exc:  # re-raised by map_partitions
            failures[p] = exc


def map_partitions(fn: Callable[[int], T], n: int, work: int) -> list[T]:
    """``[fn(p) for p in range(n)]``, shared with the pool when ``work``
    is at least :data:`MIN_POOLED_WORK` (0 keeps a stage serial).

    The caller and the pool threads each claim the next unclaimed
    partition until none is left, so a lane that starts late or meets a
    slow partition leaves the rest to the others.  Each lane runs in a
    copy of the caller's context (NumPy's ``errstate`` lives there).
    ``fn`` may only read shared state.  Once every lane has stopped, the
    exception of the lowest-numbered failing partition is raised, as
    the loop would.
    """
    lanes = min(WORKERS + 1, n)
    if lanes <= 1 or not work or work < MIN_POOLED_WORK:
        return [fn(p) for p in range(n)]
    results: list = [None] * n
    failures: dict[int, BaseException] = {}
    order: Iterator[int] = iter(range(n))
    lock = threading.Lock()

    def claim() -> int | None:
        with lock:
            return next(order, None)

    futures = [_executor(WORKERS).submit(
        _lane, contextvars.copy_context(), fn, claim, results, failures)
        for _ in range(1, lanes)]
    _lane(contextvars.copy_context(), fn, claim, results, failures)
    for future in futures:
        future.result()
    if failures:
        raise failures[min(failures)]
    return results

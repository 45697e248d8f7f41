"""A fixed reference load, timed beside every repetition.

The sandbox this benchmark runs in changes speed by a factor of two and
more from one minute to the next (other tenants of the same host), which
is far above any bound a regression gate could use.  So every timed
repetition is bracketed by *calibration points* — the best of a few passes
over a small frozen mix of interpreter work (dict and heap traffic), NumPy
work in cache (sort, scatter-add, gather) and NumPy work out of cache
(random gather and scatter over a 16 MB array, because a busy host slows
memory-bound code more than it slows tight loops) — and its wall time is
restated in *reference seconds*: the seconds it would have taken on a
machine on which one calibration pass takes ``NOMINAL_S``.

The load and ``NOMINAL_S`` are part of the benchmark's definition: changing
either rescales every timing metric, so they change only together with a
re-measured baseline.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

__all__ = ["NOMINAL_S", "Calibrator", "reference_seconds"]

#: one pass on this container at its undisturbed speed
NOMINAL_S = 0.03
PASSES_PER_POINT = 4


class Calibrator:
    """Owns the frozen inputs of the reference load."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        size = 1 << 17
        self._keys = rng.integers(0, size, size)
        self._weights = rng.random(size)
        self._py_keys = rng.integers(0, 100_000, 40_000).tolist()
        big = 1 << 21
        self._big = rng.random(big)
        self._big_index = rng.integers(0, big, 1 << 20)
        self._gathered = np.zeros(self._big_index.size)

    def one_pass(self) -> float:
        """Seconds of one pass over the reference load."""
        start = time.perf_counter()
        seen: dict[int, int] = {}
        for key in self._py_keys:
            seen[key] = seen.get(key, 0) + 1
        heap: list[tuple[int, int]] = []
        for key in self._py_keys[:8_000]:
            heapq.heappush(heap, (seen[key], key))
        while heap:
            heapq.heappop(heap)
        keys, weights = self._keys, self._weights
        order = np.argsort(keys, kind="stable")
        sums = np.bincount(keys[order], weights=weights[order],
                           minlength=keys.size)
        np.repeat(sums, 2)[keys].sum()
        np.take(self._big, self._big_index, out=self._gathered)
        self._big[self._big_index] = self._gathered  # writes back in place
        return time.perf_counter() - start

    def point(self) -> float:
        """One calibration point: the best of a few passes."""
        return min(self.one_pass() for _ in range(PASSES_PER_POINT))


def reference_seconds(walls: list[float], points: list[float]) -> list[float]:
    """Restate each wall time by the faster of its two bracketing points.

    ``points[i]`` was taken just before repetition ``i`` and
    ``points[i + 1]`` just after it.
    """
    return [wall * NOMINAL_S / min(before, after)
            for wall, before, after in zip(walls, points, points[1:])]

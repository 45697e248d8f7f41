"""``--compare A.json B.json``: judge B against A by the declared bounds.

Per workload and end-to-end metric it prints both values, the relative
change counted in the metric's better direction (positive = B is better),
the bound, and a verdict:

``ok``          B is not worse than A by more than the bound
``worse``       B is worse than A by more than the bound
``unresolved``  the spread between the repetitions inside either run is
                wider than the bound, so the two medians cannot be told
                apart at that resolution

Every exact count (simulated cost, registry counters, per-layer metrics of
unit ``count``) must be equal; differences are listed and fail the
comparison.
"""

from __future__ import annotations

import json
from typing import Any


def load(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    if doc.get("schema") != "perf-results/v1":
        raise SystemExit(f"{path}: not a perf-results/v1 file")
    return doc


def verdict(a: float, b: float, better: str, bound: float,
            spread: float) -> tuple[float, str]:
    """Relative change in the better direction, and its verdict."""
    if a == 0:
        change = 0.0 if b == 0 else float("-inf")
    else:
        change = ((a - b) if better == "lower" else (b - a)) / abs(a)
    if spread > bound:
        return change, "unresolved"
    return change, "ok" if change >= -bound else "worse"


def exact_differences(a: dict[str, Any], b: dict[str, Any],
                      count_metrics: set[str]) -> list[str]:
    out = []
    pairs = [("counts", set(a["counts"]) | set(b["counts"])),
             ("per_layer", count_metrics)]
    for section, names in pairs:
        for name in sorted(names):
            left = a.get(section, {}).get(name)
            right = b.get(section, {}).get(name)
            if left != right:
                out.append(f"{section}.{name}: {left!r} != {right!r}")
    return out


def main(spec: dict[str, Any], path_a: str, path_b: str) -> int:
    """Print the comparison; ``spec`` is the parsed BENCHMARK.json."""
    doc_a, doc_b = load(path_a), load(path_b)
    count_metrics = {m["name"] for m in spec["per_layer"]
                     if m["unit"] == "count"}
    bad = 0
    for workload in (w["name"] for w in spec["workloads"]):
        a = doc_a["workloads"].get(workload)
        b = doc_b["workloads"].get(workload)
        if a is None or b is None:
            print(f"{workload}: missing from one side, skipped")
            continue
        print(f"== {workload}")
        print(f"{'metric':22s} {'A':>18s} {'B':>18s} {'change':>9s} "
              f"{'bound':>6s}  verdict")
        spreads_a, spreads_b = a.get("spread", {}), b.get("spread", {})
        for metric in spec["end_to_end"]:
            name = metric["name"]
            spread = max(spreads_a.get(name, 0.0), spreads_b.get(name, 0.0))
            change, word = verdict(a["end_to_end"][name],
                                   b["end_to_end"][name],
                                   metric["better"], metric["bound"], spread)
            bad += word != "ok"
            print(f"{name:22s} {a['end_to_end'][name]:>18.6g} "
                  f"{b['end_to_end'][name]:>18.6g} {change:>+9.2%} "
                  f"{metric['bound']:>6.0%}  {word}")
        for line in exact_differences(a, b, count_metrics):
            bad += 1
            print(f"NOT EXACT {line}")
    print("no metric worse or unresolved, every count exact" if not bad
          else f"{bad} metric(s) worse, unresolved or not exact")
    return 1 if bad else 0

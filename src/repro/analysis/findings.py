"""Finding model, rule catalogue and suppression handling.

Every pass in :mod:`repro.analysis` reports :class:`Finding` objects —
one per violation, carrying the rule id, the file (as a repo-relative
path), the line and a human-readable message.  A finding can be
*suppressed* in source with an inline marker on the flagged line::

    key = hash(obj)  # repro: ignore[DET001] -- interned sentinel only

Suppressed findings are kept (and counted) so the report can show what
was waived, but they do not fail the gate.  The marker takes a
comma-separated rule list or ``*`` for all rules; everything after
``--`` is a free-form justification.
"""

from __future__ import annotations

import io
import json
import re
import tokenize
from dataclasses import asdict, dataclass

__all__ = [
    "Finding",
    "RULES",
    "collect_suppressions",
    "apply_suppressions",
    "render_findings",
    "findings_to_json",
]

#: rule id -> one-line summary (the full catalogue with rationale and
#: examples lives in docs/STATIC_ANALYSIS.md)
RULES: dict[str, str] = {
    "DET001": "salted hash()/id() used for routing or keying "
              "(use repro.hashing.stable_hash*)",
    "DET002": "unseeded random source outside the bench harness "
              "and fault-plan seeding",
    "DET003": "iteration over an unordered set feeding routing, "
              "partitioning or shuffle order without sorted()",
    "DET004": "wall clock (time.time/perf_counter) inside a "
              "simulated-time region (use runtime.events.wall_timer)",
    "DET005": "call into a helper whose return value carries "
              "nondeterminism (hash/id, unseeded RNG, wall clock, "
              "unordered set order) across a function boundary",
    "DET006": "function default argument evaluates a nondeterminism "
              "source at import time",
    "UDF001": "impure UDF body (I/O, global mutation, or a "
              "nondeterministic call in transfer/combine/map/reduce)",
    "UDF002": "combine/merge contract violation (not associative, not "
              "commutative, or ufunc/scalar disagreement)",
    "PAR001": "array fast-path hook without a scalar counterpart or a "
              "registered parity test",
    "CNT001": "counter incremented but not registered in "
              "runtime.events.CANONICAL_COUNTERS",
    "CNT002": "counter registered in CANONICAL_COUNTERS but never "
              "incremented by any scanned module",
    "TYP001": "missing parameter/return annotation in a strict-typed "
              "module",
    "OOC001": "O(graph) materialization of a memmap/shard-served value "
              "(np.asarray/np.array/.tolist/.copy on a whole-graph "
              "receiver)",
    "OOC002": "in-place write into a read-only-intent memmap slice "
              "(shared pages; mutation corrupts every reader)",
    "OOC003": "shard-backed Graph subclass without a raising "
              "GraphError guard on the whole-graph accessor",
    "SUP001": "stale '# repro: ignore[...]' marker: the suppressed "
              "rule no longer fires on that line",
    "E999": "source failed to parse (no other rule can run)",
}


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    message: str
    suppressed: bool = False

    def render(self) -> str:
        mark = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}: {self.rule}{mark} {self.message}"


_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*ignore\[([A-Z0-9*,\s]+)\]"
)


def collect_suppressions(source: str) -> dict[int, set[str]]:
    """Map line number -> rule ids suppressed on that line.

    Parsed from the token stream so markers inside string literals do
    not count.  ``*`` suppresses every rule on the line.  Sources that
    fail to tokenize yield no suppressions (the parse error surfaces
    as E999 instead).
    """
    out: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if match is None:
                continue
            rules = {r.strip() for r in match.group(1).split(",")}
            out.setdefault(tok.start[0], set()).update(r for r in rules if r)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return {}
    return out


def apply_suppressions(
    findings: list[Finding], suppressions: dict[str, dict[int, set[str]]]
) -> list[Finding]:
    """Mark findings whose line carries a matching ignore marker
    (``suppressions``: path -> line -> rule ids)."""
    out: list[Finding] = []
    for f in findings:
        rules = suppressions.get(f.path, {}).get(f.line, set())
        if f.rule in rules or "*" in rules:
            out.append(Finding(f.rule, f.path, f.line, f.message, True))
        else:
            out.append(f)
    return out


def render_findings(findings: list[Finding]) -> str:
    """Human-readable report, sorted by path then line then rule."""
    ordered = sorted(findings, key=lambda f: (f.path, f.line, f.rule))
    return "\n".join(f.render() for f in ordered)


def findings_to_json(
    findings: list[Finding], meta: dict[str, object] | None = None
) -> str:
    """Stable JSON document of a check run (the CI artifact format)."""
    active = [f for f in findings if not f.suppressed]
    doc: dict[str, object] = {
        "schema": "repro-check/v1",
        "rules": RULES,
        "counts": {
            "findings": len(active),
            "suppressed": len(findings) - len(active),
        },
        "findings": [
            asdict(f)
            for f in sorted(findings,
                            key=lambda f: (f.path, f.line, f.rule))
        ],
    }
    if meta:
        doc["meta"] = meta
    return json.dumps(doc, indent=1, sort_keys=True)

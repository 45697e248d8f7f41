"""``repro check`` orchestration: discover files, run every pass.

One :func:`check_paths` call is the whole gate.  Each file is read,
tokenized and parsed once (:func:`repro.analysis.callgraph.parse_file`);
the per-file passes — determinism lints (DET001–DET004), UDF purity
(UDF001), out-of-core safety (OOC001–OOC003), annotation completeness
(TYP001) and counter-use collection — read that one record.  The
cross-file passes then run once over the accumulated state —
interprocedural taint (DET005/DET006) over the project call graph,
CNT001/CNT002 against ``CANONICAL_COUNTERS`` and the dynamic
UDF002/PAR001 contract verification over the app registries.  Every
pass returns raw findings; the runner applies the inline suppression
markers once, and finally SUP001 re-audits every marker against
everything the other passes produced (a marker that no longer
suppresses anything is itself a finding).  CNT002 ("registered but
never touched") only fires when the scan actually covered the runtime
tree — a partial path list cannot prove a counter is unused.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.analysis import (
    contracts,
    counters,
    determinism,
    oocsafety,
    taint,
    typing_gate,
)
from repro.analysis.callgraph import (
    SourceFile,
    build_project_index,
    parse_file,
)
from repro.analysis.findings import (
    Finding,
    apply_suppressions,
    findings_to_json,
    render_findings,
)

__all__ = ["CheckReport", "iter_python_files", "check_paths",
           "check_stale_suppressions"]

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules",
                        ".mypy_cache", ".ruff_cache", ".pytest_cache"})


@dataclass
class CheckReport:
    """Everything one ``repro check`` run produced."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    contracts_ran: bool = False
    registry_audited: bool = False

    @property
    def active(self) -> list[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def exit_code(self) -> int:
        return 1 if self.active else 0

    def render(self) -> str:
        lines = []
        body = render_findings(self.findings)
        if body:
            lines.append(body)
        suppressed = len(self.findings) - len(self.active)
        summary = (
            f"repro check: {self.files_scanned} files, "
            f"{len(self.active)} finding(s), {suppressed} suppressed"
        )
        if self.contracts_ran:
            summary += ", contracts verified"
        lines.append(summary)
        return "\n".join(lines)

    def to_json(self, paths: list[str]) -> str:
        return findings_to_json(self.findings, meta={
            "paths": list(paths),
            "files_scanned": self.files_scanned,
            "contracts_ran": self.contracts_ran,
            "registry_audited": self.registry_audited,
        })


def iter_python_files(paths: list[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                out.append(path)
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in _SKIP_DIRS)
            for name in sorted(files):
                if name.endswith(".py"):
                    out.append(os.path.join(root, name))
    return sorted(set(out))


def check_stale_suppressions(
    findings: list[Finding],
    suppressions: dict[str, dict[int, set[str]]],
) -> list[Finding]:
    """SUP001: every inline marker must still suppress something.

    A marker rule is *stale* when no suppressed finding with that rule
    sits on its line after every other pass has run; a ``*`` marker is
    stale when nothing at all is suppressed on its line.  A stale
    marker is worse than dead weight — it silently waives whatever
    future finding lands on that line.  SUP001 findings can only be
    waived by an explicit ``SUP001`` marker (never by ``*``, which
    would let a stale ``*`` hide itself).
    """
    covered: dict[tuple[str, int], set[str]] = {}
    for f in findings:
        if f.suppressed:
            covered.setdefault((f.path, f.line), set()).add(f.rule)
    out: list[Finding] = []
    for path in sorted(suppressions):
        for line in sorted(suppressions[path]):
            rules = suppressions[path][line]
            hit = covered.get((path, line), set())
            stale = sorted(r for r in rules
                           if r not in ("*", "SUP001") and r not in hit)
            if "*" in rules and not hit:
                stale.append("*")
            if not stale:
                continue
            out.append(Finding(
                "SUP001", path, line,
                f"stale suppression marker [{', '.join(stale)}]: the "
                "rule no longer fires on this line — remove or update "
                "the marker before it silently waives a future finding",
                suppressed="SUP001" in rules,
            ))
    return out


#: the per-file passes: each reads one parsed file, returns raw findings
FILE_PASSES = (
    determinism.lint_file,
    contracts.check_udf_purity,
    oocsafety.check_ooc_safety,
    typing_gate.check_annotations,
)


def check_paths(paths: list[str], *, contracts_pass: bool = True
                ) -> CheckReport:
    """Run the full static-analysis gate over ``paths``."""
    report = CheckReport()
    raw: list[Finding] = []
    files: list[SourceFile] = []
    uses: list[counters.CounterUse] = []

    for path in iter_python_files(paths):
        try:
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            report.findings.append(
                Finding("E999", path, 1, f"unreadable source ({exc})"))
            continue
        report.files_scanned += 1
        file = parse_file(path, source)
        files.append(file)
        if file.error is not None:
            report.findings.append(Finding(
                "E999", path, file.error.lineno or 1,
                f"source failed to parse: {file.error.msg}"))
            continue
        for check in FILE_PASSES:
            raw.extend(check(file))
        uses.extend(counters.collect_counter_uses(file))

    suppressions = {file.path: file.suppressions for file in files}
    # interprocedural taint over the project call graph (only package
    # modules index; test files merely provide suppression context)
    raw.extend(taint.check_taint(build_project_index(files), suppressions))
    raw.extend(counters.check_counter_uses(uses))
    if any(file.mod == "runtime/events.py" for file in files):
        # the scan covered the runtime tree: absence is provable
        raw.extend(counters.check_registry_coverage(uses))
        report.registry_audited = True

    if contracts_pass:
        raw.extend(contracts.verify_registered_apps())
        report.contracts_ran = True

    report.findings.extend(apply_suppressions(raw, suppressions))
    # SUP001 runs last: it audits the markers against every pass above
    report.findings.extend(
        check_stale_suppressions(report.findings, suppressions))
    return report

"""The plain-text table every experiment renders to.

:mod:`repro.bench.experiments` arranges each result in the paper's
row/column layout as an :class:`ExperimentTable`, so shapes can be
compared side by side and the rendered text diffed against
``benchmarks/results/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ExperimentTable", "format_value"]


def format_value(value) -> str:
    if isinstance(value, float):
        if abs(value) >= 1000 or (value != 0 and abs(value) < 0.01):
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


@dataclass
class ExperimentTable:
    """A labelled table of experiment results."""

    title: str
    columns: list[str]
    rows: list[tuple[str, list]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, label: str, values: list) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row '{label}' has {len(values)} values for "
                f"{len(self.columns)} columns"
            )
        self.rows.append((label, list(values)))

    def cell(self, row_label: str, column: str):
        """Fetch one cell by labels (used by the shape checks)."""
        col = self.columns.index(column)
        for label, values in self.rows:
            if label == row_label:
                return values[col]
        raise KeyError(row_label)

    def render(self) -> str:
        """Plain-text rendering with aligned columns."""
        header = [""] + self.columns
        body = [[label] + [format_value(v) for v in values]
                for label, values in self.rows]
        widths = [
            max(len(str(row[i])) for row in [header] + body)
            for i in range(len(header))
        ]
        lines = [self.title]
        lines.append("  ".join(
            str(cell).ljust(widths[i]) for i, cell in enumerate(header)
        ).rstrip())
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(
                str(cell).ljust(widths[i]) for i, cell in enumerate(row)
            ).rstrip())
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()

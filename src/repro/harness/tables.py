"""Paper-vs-measured table formatting for the benchmark harness."""

from __future__ import annotations

import dataclasses
import typing


def format_table(
    headers: typing.Sequence[str],
    rows: typing.Sequence[typing.Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned plain-text table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


@dataclasses.dataclass
class ComparisonRow:
    """One paper-vs-measured row and the deviation it is allowed."""
    label: str
    paper: float
    measured: float
    tolerance_pct: float

    @property
    def deviation_pct(self) -> float:
        return 100.0 * (self.measured - self.paper) / self.paper


class ComparisonTable:
    """Collects (label, paper value, measured value, tolerance) rows.

    Each row is one figure the paper reports next to what this
    reproduction measures, with the percentage deviation the row may
    show; ``check`` holds every row to its own bound.  A row whose label
    is in :attr:`fit` is one a constant was chosen to hit; every other
    row is *predicted*: it follows from constants fit elsewhere.
    """

    def __init__(self, title: str, unit: str = "msec"):
        self.title = title
        self.unit = unit
        self.rows: typing.List[ComparisonRow] = []
        #: labels of the rows a calibration constant was chosen to hit
        self.fit: typing.Set[str] = set()

    def add(
        self, label: str, paper: float, measured: float, tolerance_pct: float
    ) -> ComparisonRow:
        if paper == 0:
            raise ValueError(f"{label}: a zero paper figure bounds no deviation")
        row = ComparisonRow(label, paper, measured, tolerance_pct)
        self.rows.append(row)
        return row

    def render(self) -> str:
        return format_table(
            ["quantity", f"paper ({self.unit})", f"measured ({self.unit})", "dev %", "tol %", "kind"],
            [
                (
                    r.label,
                    f"{r.paper:.2f}",
                    f"{r.measured:.2f}",
                    f"{r.deviation_pct:+.1f}",
                    f"{r.tolerance_pct:g}",
                    "fit" if r.label in self.fit else "predicted",
                )
                for r in self.rows
            ],
            title=f"== {self.title} ==",
        )

    def check(self) -> None:
        """Raise AssertionError if any row deviates more than its tolerance."""
        for row in self.rows:
            if abs(row.deviation_pct) > row.tolerance_pct:
                raise AssertionError(
                    f"{self.title}: {row.label} deviates {row.deviation_pct:+.1f}% "
                    f"(paper {row.paper}, measured {row.measured:.2f}, "
                    f"tolerance {row.tolerance_pct}%)"
                )

"""Experiment harness: run experiments, print paper-style ASCII tables and
assert qualitative shapes.

Each bench module builds an ``ExperimentTable`` with the same rows/series
the original paper reports, prints it (captured into bench output), and
asserts the expected *shape* (who wins, rough factors, crossovers).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ExperimentTable:
    """A printable result table for one experiment."""

    title: str
    columns: list[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row width {len(values)} != header width {len(self.columns)}"
            )
        self.rows.append(list(values))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def attach_metrics(self, snapshot: dict, match: str | None = None) -> None:
        """Attach a ``MetricsRegistry.snapshot()`` as note lines.

        ``match`` filters metric names by substring (e.g. ``"josie"``), so a
        bench can surface just the counters its experiment exercises.
        """

        def keep(name: str) -> bool:
            return match is None or match in name

        for name, value in snapshot.get("counters", {}).items():
            if keep(name):
                self.note(f"metric {name} = {value:g}")
        for name, value in snapshot.get("gauges", {}).items():
            if keep(name):
                self.note(f"metric {name} = {value:g}")
        for name, hist in snapshot.get("histograms", {}).items():
            if keep(name) and hist["count"]:
                mean = hist["sum"] / hist["count"]
                self.note(
                    f"metric {name}: count={hist['count']} "
                    f"mean={mean:.3f} max={hist['max']:g}"
                )

    def render(self) -> str:
        def fmt(v) -> str:
            if isinstance(v, float):
                return f"{v:.3f}"
            return str(v)

        cells = [self.columns] + [[fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(row[i]) for row in cells) for i in range(len(self.columns))
        ]
        sep = "-+-".join("-" * w for w in widths)
        lines = [f"== {self.title} =="]
        lines.append(" | ".join(c.ljust(w) for c, w in zip(cells[0], widths)))
        lines.append(sep)
        for row in cells[1:]:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        for n in self.notes:
            lines.append(f"note: {n}")
        return "\n".join(lines)

    def show(self) -> None:
        print("\n" + self.render() + "\n")

    def column_values(self, name: str) -> list:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]


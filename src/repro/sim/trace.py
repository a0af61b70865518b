"""Counterexample rendering: a table of register values per cycle."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence


class Trace:
    """A table of signal values over cycles."""

    def __init__(self, signals: Sequence[str]) -> None:
        self.signals = list(signals)
        self.rows: List[Dict[str, int]] = []

    def record(self, values: Mapping[str, int]) -> None:
        self.rows.append({name: values[name] for name in self.signals})

    def render(self, max_cycles: Optional[int] = None, base: str = "hex") -> str:
        """Render as an ASCII table (cycles as columns)."""
        rows = self.rows if max_cycles is None else self.rows[:max_cycles]
        if not rows:
            return "(empty trace)"

        def fmt(value: int) -> str:
            return f"{value:x}" if base == "hex" else str(value)

        name_w = max(len(s) for s in self.signals)
        cells = {
            s: [fmt(row[s]) for row in rows] for s in self.signals
        }
        col_w = [
            max(len(str(t)), max(len(cells[s][t]) for s in self.signals))
            for t in range(len(rows))
        ]
        header = " " * name_w + " | " + " ".join(
            str(t).rjust(col_w[t]) for t in range(len(rows))
        )
        lines = [header, "-" * len(header)]
        for s in self.signals:
            line = s.rjust(name_w) + " | " + " ".join(
                cells[s][t].rjust(col_w[t]) for t in range(len(rows))
            )
            lines.append(line)
        return "\n".join(lines)


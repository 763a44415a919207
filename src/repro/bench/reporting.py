"""Result tables for the benchmark harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence


@dataclass
class ExperimentResult:
    """One experiment's output: a labeled table, the paper's claims
    checked against it, and free-form notes.

    ``rows`` holds one entry per parameter point; each entry maps column
    name -> value (numbers are rendered with 3 significant digits).
    ``claims`` holds one ``(text, holds, measured)`` entry per claim.
    """

    experiment: str
    title: str
    headers: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)
    claims: list[tuple[str, bool, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def check(self, text: str, holds: bool, measured: str) -> None:
        """Record a paper claim, whether it holds and what was measured."""
        self.claims.append((text, bool(holds), measured))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def column(self, name: str) -> list[Any]:
        return [row.get(name) for row in self.rows]

    @staticmethod
    def _fmt(value: Any) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            if value == 0.0:
                return "0"
            if abs(value) >= 100:
                return f"{value:.0f}"
            if abs(value) >= 1:
                return f"{value:.2f}"
            return f"{value:.4f}"
        return str(value)

    def render(self) -> str:
        body = [[self._fmt(row.get(h)) for h in self.headers]
                for row in self.rows]
        widths = [max(len(h), *(len(r[i]) for r in body)) if body
                  else len(h) for i, h in enumerate(self.headers)]
        lines = [f"== {self.experiment}: {self.title} =="]
        lines.append("  ".join(h.rjust(w)
                               for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(c.rjust(w)
                                   for c, w in zip(row, widths)))
        for text, holds, measured in self.claims:
            verdict = "PASS" if holds else "FAIL"
            lines.append(f"claim {verdict}: {text} ({measured})")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()

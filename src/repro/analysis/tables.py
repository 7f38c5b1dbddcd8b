"""ASCII table rendering in the paper's layouts.

The benches print their regenerated tables through this module so
every table in EXPERIMENTS.md has a uniform, diff-friendly format.
"""

from typing import List, Sequence


def format_ratio(value, reference):
    """Render ``value`` with its ratio to ``reference`` in parens.

    Matches the paper's Table 3.4/4.1 style, e.g. ``1.68 (1.16)`` or
    ``4738 (102%)``.
    """
    if reference:
        return f"{value:g} ({value / reference:.2f})"
    return f"{value:g}"


def format_percent(value, reference):
    """``4738 (102%)`` — the Table 4.1 style for integer counts."""
    if reference:
        return f"{value:g} ({100.0 * value / reference:.0f}%)"
    return f"{value:g}"


class Table:
    """A fixed-column ASCII table with a title and optional notes."""

    def __init__(self, title, columns):
        self.title = title
        self.columns = list(columns)
        self.rows: List[Sequence[str]] = []
        self.notes: List[str] = []

    def add_row(self, *cells):
        """Append one row; every cell is rendered with ``str``."""
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        self.rows.append([str(cell) for cell in cells])

    def add_separator(self):
        """Append a horizontal rule between row groups."""
        self.rows.append(None)

    def add_note(self, note):
        """Append a note printed under the table."""
        self.notes.append(note)

    def render(self):
        """The table as text: title, ruled grid, then notes."""
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            if row is None:
                continue
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def line(char="-", junction="+"):
            return junction + junction.join(
                char * (w + 2) for w in widths
            ) + junction

        def fmt(cells):
            return "| " + " | ".join(
                cell.ljust(w) for cell, w in zip(cells, widths)
            ) + " |"

        # A trailing separator would double the table's bottom rule.
        rows = list(self.rows)
        while rows and rows[-1] is None:
            rows.pop()
        parts = [self.title, line("=")]
        parts.append(fmt(self.columns))
        parts.append(line("="))
        for row in rows:
            parts.append(line() if row is None else fmt(row))
        parts.append(line())
        for note in self.notes:
            parts.append(f"  note: {note}")
        return "\n".join(parts)

    def __str__(self):
        return self.render()

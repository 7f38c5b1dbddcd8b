"""Terminal charts for experiment output.

The benches and examples are terminal-first; :func:`line_plot`
renders multi-series line plots in plain ASCII so sweeps and
comparisons read at a glance in logs and ``benchmarks/results/``
artefacts.
"""

#: Glyphs cycled over line-plot series.
_SERIES_MARKS = "ox+*@%"


def line_plot(series, width=60, height=16, title=None,
              x_label="", y_label=""):
    """Render one or more ``(x, y)`` series on a character grid.

    Parameters
    ----------
    series:
        ``{name: [(x, y), ...]}``; each series gets its own mark.
    width, height:
        Plot area size in characters.
    """
    points = [
        (x, y) for data in series.values() for x, y in data
    ]
    if not points:
        return title or ""
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    x_span = (x_high - x_low) or 1
    y_span = (y_high - y_low) or 1

    grid = [[" "] * width for _ in range(height)]
    for index, (name, data) in enumerate(series.items()):
        mark = _SERIES_MARKS[index % len(_SERIES_MARKS)]
        for x, y in data:
            column = int((x - x_low) / x_span * (width - 1))
            row = int((y - y_low) / y_span * (height - 1))
            grid[height - 1 - row][column] = mark

    lines = [title] if title else []
    if y_label:
        lines.append(y_label)
    lines.append(f"{y_high:>10.4g} +" + "-" * width + "+")
    for row in grid:
        lines.append(" " * 11 + "|" + "".join(row) + "|")
    lines.append(f"{y_low:>10.4g} +" + "-" * width + "+")
    # x_low starts under the first plot column; x_high ends under the
    # right border.
    low_label, high_label = f"{x_low:.4g}", f"{x_high:.4g}"
    gap = max(1, width + 1 - len(low_label) - len(high_label))
    lines.append(" " * 12 + low_label + " " * gap + high_label)
    if x_label:
        lines.append(" " * 12 + x_label)
    legend = "   ".join(
        f"{_SERIES_MARKS[i % len(_SERIES_MARKS)]} = {name}"
        for i, name in enumerate(series)
    )
    lines.append(f"{'':12}{legend}")
    return "\n".join(lines)

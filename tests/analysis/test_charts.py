"""Tests for the ASCII line plot."""

import pytest

from repro.analysis.charts import line_plot


class TestLinePlot:
    def test_marks_and_legend(self):
        text = line_plot(
            {"miss": [(0, 1), (1, 2)], "ref": [(0, 2), (1, 4)]},
            width=20, height=5,
        )
        assert "o = miss" in text
        assert "x = ref" in text
        assert "o" in text and "x" in text

    @pytest.mark.parametrize("points, width, labels", [
        ([(40, 100), (64, 900)], 20, ("40", "64", "100", "900")),
        ([(x, 10 * x) for x in range(1, 33)], 30,
         ("1", "32", "10", "320")),
    ], ids=["memory-ratio", "length-1-to-32"])
    def test_axis_bounds_shown(self, points, width, labels):
        x_low, x_high, y_low, y_high = labels
        lines = line_plot({"s": points}, width=width,
                          height=5).splitlines()
        assert lines[0].split()[0] == y_high
        bottom = next(index for index, line in enumerate(lines)
                      if line.split()[0] == y_low)
        border, footer = lines[bottom], lines[bottom + 1]
        # x_low starts under the first plot column; x_high ends under
        # the right corner of the plot.
        assert footer.split() == [x_low, x_high]
        assert footer.index(x_low) == border.index("+") + 1
        assert footer.endswith(x_high)
        assert len(footer) == len(border)

    def test_flat_series_does_not_crash(self):
        text = line_plot({"s": [(0, 5), (1, 5)]}, width=10, height=3)
        assert "o" in text

    def test_empty(self):
        assert line_plot({}, title="t") == "t"

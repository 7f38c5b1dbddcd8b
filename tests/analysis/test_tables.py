"""Unit tests for the table renderer."""

import pytest

from repro.analysis import paper_data
from repro.analysis.experiments import (
    Table33Row,
    Table35Row,
    Table41Row,
    build_table_3_4,
    render_table_3_3,
    render_table_3_5,
    render_table_4_1,
)
from repro.analysis.tables import Table, format_percent, format_ratio


def paper_tables():
    """Every main table, rendered from the paper's published rows."""
    rows_33 = [
        Table33Row(workload, memory_mb, counts, elapsed, references=1)
        for (workload, memory_mb), (counts, elapsed)
        in paper_data.TABLE_3_3.items()
    ]
    rows_35 = [
        Table35Row(host, memory_mb, uptime, page_ins, modified, clean)
        for host, memory_mb, uptime, page_ins, modified, clean, _, _
        in paper_data.TABLE_3_5
    ]
    rows_41 = [
        Table41Row(workload, memory_mb, policy, page_ins, elapsed,
                   page_ins_pct, elapsed_pct)
        for (workload, memory_mb, policy),
            (page_ins, page_ins_pct, elapsed, elapsed_pct)
        in paper_data.TABLE_4_1.items()
    ]
    return {
        "3.3": render_table_3_3(rows_33),
        "3.4": build_table_3_4()[1],
        "3.5": render_table_3_5(rows_35),
        "4.1": render_table_4_1(rows_41),
    }


class TestFormatting:
    def test_format_ratio(self):
        assert format_ratio(1.68, 1.44) == "1.68 (1.17)"

    def test_format_ratio_zero_reference(self):
        assert format_ratio(5, 0) == "5"

    def test_format_percent(self):
        assert format_percent(4738, 4647) == "4738 (102%)"

    def test_format_percent_zero_reference(self):
        assert format_percent(10, 0) == "10"


class TestTable:
    def test_render_contains_everything(self):
        table = Table("Demo", ["a", "bb"])
        table.add_row(1, "xyz")
        table.add_note("a note")
        text = table.render()
        assert "Demo" in text
        assert "xyz" in text
        assert "note: a note" in text

    def test_columns_aligned(self):
        table = Table("T", ["col"])
        table.add_row("short")
        table.add_row("a much longer cell")
        lines = [
            line for line in table.render().splitlines()
            if line.startswith("|")
        ]
        assert len({len(line) for line in lines}) == 1

    def test_wrong_cell_count_rejected(self):
        table = Table("T", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_separator_renders_as_rule(self):
        table = Table("T", ["a"])
        table.add_row(1)
        table.add_separator()
        table.add_row(2)
        body = table.render().splitlines()
        rules = [line for line in body if line.startswith("+")]
        assert len(rules) >= 4  # header rules + separator + footer

    def test_trailing_separator_is_not_drawn(self):
        table = Table("T", ["a"])
        table.add_row(1)
        plain = table.render()
        table.add_separator()
        assert table.render() == plain

    @pytest.mark.parametrize("key", ["3.3", "3.4", "3.5", "4.1"])
    def test_no_table_has_two_consecutive_rules(self, key):
        lines = paper_tables()[key].render().splitlines()
        doubled = [index for index, (a, b)
                   in enumerate(zip(lines, lines[1:]))
                   if a.startswith("+") and b.startswith("+")]
        assert doubled == []

    def test_str_equals_render(self):
        table = Table("T", ["a"])
        table.add_row(1)
        assert str(table) == table.render()

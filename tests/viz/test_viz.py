"""Unit tests for ASCII charts and table/CSV writers."""

from __future__ import annotations

import math

import pytest

from repro.viz.ascii_chart import bar_chart, line_chart
from repro.viz.tables import (
    format_fixed_width_table,
    format_markdown_table,
    rows_to_csv_text,
    write_csv,
)


class TestLineChart:
    def test_basic_rendering(self):
        chart = line_chart(
            [1, 2, 4, 8],
            {"analysis": [1.0, 2.0, 3.0, 4.0], "simulation": [1.1, 2.1, 2.9, 4.2]},
            width=40,
            height=10,
            title="Latency",
            x_label="clusters",
            y_label="ms",
        )
        assert "Latency" in chart
        assert "legend" in chart
        assert "o analysis" in chart
        assert "x simulation" in chart
        assert "clusters" in chart

    def test_log_x_axis(self):
        chart = line_chart([1, 2, 4, 8, 256], {"s": [1, 2, 3, 4, 5]}, logx=True,
                           width=30, height=8)
        assert "1" in chart and "256" in chart

    def test_empty_data(self):
        assert line_chart([], {}) == "(no data)"

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            line_chart([1, 2], {"s": [1.0]})

    def test_too_small_chart_rejected(self):
        with pytest.raises(ValueError):
            line_chart([1, 2], {"s": [1.0, 2.0]}, width=5, height=2)

    def test_constant_series(self):
        chart = line_chart([1, 2, 3], {"flat": [2.0, 2.0, 2.0]}, width=20, height=6)
        assert "flat" in chart

    def test_single_x_value(self):
        chart = line_chart([512], {"s": [1.0]}, width=20, height=6)
        assert "512" in chart
        assert "legend" in chart

    def test_nan_values_skipped(self):
        chart = line_chart([1, 2, 3], {"s": [1.0, math.nan, 3.0]}, width=20, height=6)
        assert "legend" in chart

    def test_all_nan(self):
        assert "no finite data" in line_chart([1, 2], {"s": [math.nan, math.nan]})


class TestBarChart:
    def test_basic(self):
        chart = bar_chart(["icn1", "ecn1", "icn2"], [0.1, 0.5, 0.9], title="util")
        assert "util" in chart
        assert "icn2" in chart
        assert "#" in chart

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])

    def test_empty(self):
        assert bar_chart([], []) == "(no data)"

    def test_zero_values(self):
        chart = bar_chart(["a", "b"], [0.0, 0.0])
        assert "a" in chart


class TestTables:
    ROWS = [
        {"clusters": 1, "latency_ms": 0.1218, "case": "case-1"},
        {"clusters": 256, "latency_ms": 0.4946, "case": "case-1"},
    ]

    def test_markdown_table(self):
        table = format_markdown_table(self.ROWS)
        assert table.startswith("| clusters | latency_ms | case |")
        assert "| --- |" in table
        assert "case-1" in table

    def test_markdown_column_selection(self):
        table = format_markdown_table(self.ROWS, columns=["clusters"])
        assert "latency_ms" not in table

    def test_markdown_empty(self):
        assert format_markdown_table([]) == "(no data)"

    def test_fixed_width_empty(self):
        assert format_fixed_width_table([]) == "(no data)"

    def test_fixed_width_table_alignment(self):
        table = format_fixed_width_table(self.ROWS)
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(line.rstrip()) <= len(lines[0]) + 20 for line in lines)) >= 1
        assert "clusters" in lines[0]

    def test_float_formatting(self):
        rows = [{"x": 0.000012345, "y": 123456.789, "z": 0.5}]
        text = format_markdown_table(rows)
        assert "1.234e-05" in text or "1.235e-05" in text
        assert "0.5" in text

    def test_csv_text(self):
        csv_text = rows_to_csv_text(self.ROWS)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "clusters,latency_ms,case"
        assert len(lines) == 3
        assert rows_to_csv_text([]) == ""

    def test_write_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(str(path), self.ROWS)
        content = path.read_text()
        assert "clusters" in content
        assert "256" in content

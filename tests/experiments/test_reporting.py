"""Unit tests for experiment reporting helpers."""

from repro.experiments.reporting import (
    format_cell,
    format_table,
    log_series_bar,
)


class TestFormatCell:
    def test_float_precision(self):
        assert format_cell(3.14159, precision=2) == "3.14"

    def test_tiny_and_huge_use_scientific(self):
        assert "e" in format_cell(1e-7)
        assert "e" in format_cell(1e7)

    def test_zero_stays_fixed(self):
        assert format_cell(0.0) == "0.000"

    def test_non_floats_pass_through(self):
        assert format_cell(5) == "5"
        assert format_cell("x") == "x"
        assert format_cell(None) == "None"
        assert format_cell(True) == "True"


class TestFormatTable:
    def test_alignment_and_title(self):
        table = format_table(["a", "long_header"],
                             [[1, 2], [333, 4]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert all(len(line) == len(lines[1]) for line in lines[1:])

    def test_contains_all_cells(self):
        table = format_table(["x"], [["hello"], ["world"]])
        assert "hello" in table and "world" in table


class TestLogSeriesBar:
    def test_monotone_in_value(self):
        assert len(log_series_bar(10.0)) < len(log_series_bar(1000.0))

    def test_clamps_to_range(self):
        assert len(log_series_bar(1e9, lo=1, hi=100, width=10)) == 10
        assert len(log_series_bar(0.0001, lo=1, hi=100, width=10)) == 1

    def test_nonpositive_empty(self):
        assert log_series_bar(0.0) == ""

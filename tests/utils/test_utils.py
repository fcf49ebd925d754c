"""Tests for result aggregation and table rendering."""

import numpy as np
import pytest

from repro.eval import ContinualResult
from repro.utils import (
    aggregate_runs,
    format_heatmap,
    format_series,
    format_table,
)


def _result(acc_values):
    r = ContinualResult(2)
    r.record_row([acc_values[0]])
    r.record_row([acc_values[1], acc_values[2]])
    r.elapsed_seconds = 1.0
    return r


class TestAggregation:
    def test_mean_and_std(self):
        agg = aggregate_runs("m", [_result([1.0, 0.8, 0.9]), _result([1.0, 0.9, 0.9])])
        assert agg.acc_mean == pytest.approx((0.85 + 0.9) / 2)
        assert agg.n_runs == 2
        assert agg.elapsed_mean == pytest.approx(1.0)

    def test_text_is_percent(self):
        agg = aggregate_runs("m", [_result([1.0, 0.8, 0.9])])
        assert agg.acc_text().startswith("85.00")

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            aggregate_runs("m", [])


class TestTables:
    def test_format_table_aligns_columns(self):
        text = format_table(["method", "Acc"], [["edsr", "93.1"], ["cassle", "92.3"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].index("Acc") == lines[2].index("93.1")

    def test_format_table_with_title(self):
        text = format_table(["a"], [["1"]], title="Table III")
        assert text.splitlines()[0] == "Table III"

    def test_format_series(self):
        line = format_series("edsr", [1, 2], [0.5, 0.75])
        assert line == "edsr: 1=0.5000, 2=0.7500"

    def test_format_heatmap_handles_nan(self):
        matrix = np.array([[0.1, np.nan], [0.2, 0.3]])
        text = format_heatmap(matrix, title="F")
        assert "." in text
        assert "0.300" in text
        assert text.splitlines()[0] == "F"

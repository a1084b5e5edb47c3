"""Tests for ASCII line plots."""

import pytest

from repro.utils.charts import line_plot


class TestLinePlot:
    def test_dimensions(self):
        out = line_plot(
            [0, 1, 2], {"s": [1.0, 2.0, 3.0]}, width=20, height=5
        )
        rows = [l for l in out.splitlines() if l.startswith("|")]
        assert len(rows) == 5
        assert all(len(r) == 21 for r in rows)

    def test_markers_per_series(self):
        out = line_plot(
            [0, 1], {"one": [0.0, 1.0], "two": [1.0, 0.0]}
        )
        assert "a=one" in out
        assert "b=two" in out
        assert "a" in "".join(
            l for l in out.splitlines() if l.startswith("|")
        )

    def test_flat_series_safe(self):
        out = line_plot([0, 1], {"s": [5.0, 5.0]})
        assert "y: 5.00 .. 6.00" in out

    def test_validates(self):
        with pytest.raises(ValueError):
            line_plot([], {})
        with pytest.raises(ValueError):
            line_plot([0, 1], {"s": [1.0]})


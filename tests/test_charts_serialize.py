"""Tests for the ASCII bar chart."""

import pytest

from repro.harness.charts import bar_chart


# --------------------------------------------------------------- charts
def test_bar_chart_renders_values():
    text = bar_chart([("a", 10.0), ("bb", -5.0)], width=10, title="T")
    assert "T" in text
    assert "10.0" in text and "-5.0" in text
    assert "<" in text        # negative bars
    assert "#" in text


def test_bar_chart_scales_to_peak():
    text = bar_chart([("x", 100.0), ("y", 50.0)], width=20)
    lines = text.splitlines()
    x_bar = lines[0].count("#")
    y_bar = lines[1].count("#")
    assert x_bar == 20
    assert y_bar == 10


def test_bar_chart_empty_rejected():
    with pytest.raises(ValueError):
        bar_chart([])


def test_bar_chart_zero_values():
    text = bar_chart([("a", 0.0), ("b", 0.0)])
    assert "0.0" in text

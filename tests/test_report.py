"""Report formatting."""

from repro.experiments.report import ascii_curve, format_table


def test_format_table_aligns_columns():
    text = format_table(["a", "bb"], [(1, 2.5), (33, 4.25)], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert set(lines[2]) == {"-"}


def test_format_table_float_rendering():
    text = format_table(["x"], [(0.123456,), (12.3,), (1234.0,)])
    assert "0.123" in text and "12.30" in text and "1234" in text


def test_format_table_inf():
    assert "inf" in format_table(["x"], [(float("inf"),)])


def test_ascii_curve_contains_points():
    text = ascii_curve([(0, 0.0), (50, 0.5), (100, 1.0)], width=20, height=5, label="acc")
    assert text.startswith("acc")
    assert "*" in text


def test_ascii_curve_empty():
    assert ascii_curve([]) == "(no data)"


def test_ascii_curve_flat_series():
    text = ascii_curve([(0, 0.5), (10, 0.5)], width=10, height=3)
    assert "*" in text

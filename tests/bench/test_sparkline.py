"""Tests for the sparkline renderer."""

from hypothesis import given, strategies as st

from repro.bench import sparkline


def test_empty_series():
    assert sparkline([]) == ""


def test_constant_series_is_flat():
    line = sparkline([5.0, 5.0, 5.0])
    assert len(line) == 3
    assert len(set(line)) == 1


def test_monotone_series_uses_full_range():
    line = sparkline(list(range(8)))
    assert line[0] == "▁"
    assert line[-1] == "█"
    assert list(line) == sorted(line)


def test_downsampling_caps_width():
    line = sparkline(list(range(500)), width=40)
    assert len(line) == 40


def test_single_value():
    assert len(sparkline([42.0])) == 1


def test_subnormal_span():
    # A property-test find: 7 / 1.1e-308 overflows to inf.
    assert len(sparkline([1.1125369292536007e-308, 0.0], width=2)) == 2


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=200),
       st.integers(min_value=1, max_value=100))
def test_sparkline_properties(values, width):
    line = sparkline(values, width=width)
    assert 1 <= len(line) <= max(width, len(values))
    assert len(line) <= width or len(values) <= width
    assert all(ch in "▁▂▃▄▅▆▇█" for ch in line)

"""Unit tests for the windowed meter and gauge series."""

import pytest

from repro.cluster import GaugeSeries, RingMeter
from repro.sim import Simulator


def advance(sim, to):
    sim.schedule_at(to, lambda: None)
    sim.run()


def test_total_within_window():
    sim = Simulator()
    meter = RingMeter(sim, 10_000.0)
    meter.add(5.0)
    advance(sim, 50.0)
    meter.add(7.0)
    assert meter.total(1_000.0) == 12.0
    assert meter.total() == 12.0


def test_old_entries_fall_out_of_window():
    sim = Simulator()
    meter = RingMeter(sim, 10_000.0)
    meter.add(5.0)
    advance(sim, 5_000.0)
    meter.add(2.0)
    assert meter.total(1_000.0) == 2.0
    assert meter.lifetime_total == 7.0


def test_gauge_series_statistics():
    series = GaugeSeries("x")
    for t, v in [(0.0, 1.0), (10.0, 3.0), (20.0, 5.0)]:
        series.record(t, v)
    assert series.last() == 5.0
    assert series.mean() == 3.0
    assert series.values() == [1.0, 3.0, 5.0]
    assert series.times() == [0.0, 10.0, 20.0]
    assert len(series) == 3


def test_gauge_series_empty_raises():
    series = GaugeSeries("empty")
    with pytest.raises(ValueError):
        series.last()
    with pytest.raises(ValueError):
        series.mean()

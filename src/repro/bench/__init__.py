"""Benchmark harness: test beds, recorders, table/series formatting."""

from .harness import (TestBed, build_cluster, format_series, format_table,
                      sparkline)
from .recorder import ClusterRecorder, latency_curve, mean

__all__ = [
    "TestBed", "build_cluster", "format_series", "format_table",
    "sparkline",
    "ClusterRecorder", "latency_curve", "mean",
]

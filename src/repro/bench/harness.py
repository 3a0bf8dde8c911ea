"""Experiment scaffolding shared by benchmarks and examples.

``build_cluster`` stands up a simulator + fleet + actor system in one
call; ``format_table``/``format_series`` print results in the shapes the
paper reports (table rows, figure series).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..actors import ActorSystem
from ..cluster import NetworkFabric, Provisioner, Server
from ..sim import RandomStreams, Simulator

__all__ = ["TestBed", "build_cluster", "format_table", "format_series",
           "sparkline"]

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Render values as a unicode sparkline (down-sampled to ``width``).

    Constant series render as a flat mid-height line; empty series as an
    empty string.  Used by :func:`format_series` so the figure files are
    glanceable without plotting tools.
    """
    points = list(values)
    if not points:
        return ""
    if len(points) > width:
        step = len(points) / width
        points = [points[int(i * step)] for i in range(width)]
    low = min(points)
    high = max(points)
    if high == low:
        return _SPARK_BLOCKS[3] * len(points)
    # Floor the span: dividing by a subnormal one overflows to inf.
    scale = (len(_SPARK_BLOCKS) - 1) / max(high - low, 1e-300)
    return "".join(_SPARK_BLOCKS[int((v - low) * scale)] for v in points)


@dataclass
class TestBed:
    """Everything an experiment needs, pre-wired."""

    __test__ = False  # not a pytest class, despite the name

    sim: Simulator
    provisioner: Provisioner
    system: ActorSystem
    streams: RandomStreams
    servers: List[Server] = field(default_factory=list)

    def run(self, until_ms: float) -> float:
        return self.sim.run(until=until_ms)


def build_cluster(num_servers: int, instance_type: str = "m5.large",
                  seed: int = 0, boot_delay_ms: float = 30_000.0,
                  max_servers: int = 1024,
                  local_latency_ms: float = 0.05,
                  remote_rtt_ms: float = 1.0) -> TestBed:
    """Create a simulator, boot ``num_servers`` immediately, and wire an
    actor system over them."""
    sim = Simulator()
    streams = RandomStreams(seed)
    provisioner = Provisioner(sim, default_type=instance_type,
                              boot_delay_ms=boot_delay_ms,
                              max_servers=max_servers)
    for _ in range(num_servers):
        provisioner.boot_server(immediate=True)
    sim.run(until=0.0)
    fabric = NetworkFabric(sim, local_latency_ms=local_latency_ms,
                           remote_rtt_ms=remote_rtt_ms)
    system = ActorSystem(sim, provisioner, fabric=fabric, streams=streams)
    return TestBed(sim=sim, provisioner=provisioner, system=system,
                   streams=streams, servers=list(provisioner.servers))


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Render an aligned text table (the benches print paper tables)."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([_fmt(value) for value in row])
    widths = [max(len(row[col]) for row in cells)
              for col in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(name: str, series: Sequence[Tuple[float, float]],
                  x_label: str = "t(ms)", y_label: str = "value",
                  max_points: int = 24) -> str:
    """Render a (downsampled) time series as text — one figure line."""
    points = list(series)
    spark = sparkline([y for _x, y in points])
    if len(points) > max_points:
        step = len(points) / max_points
        points = [points[int(i * step)] for i in range(max_points)]
    body = "  ".join(f"{x:.0f}:{y:.2f}" for x, y in points)
    return f"{name} [{x_label} -> {y_label}]  {spark}\n  {body}"


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)

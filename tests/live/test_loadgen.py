"""Load-generator tests: schedule determinism and client-side accounting.

The open-loop contract is (a) arrival schedules are pure functions of
the seed, (b) every sent request lands in exactly one client-side
outcome bucket, and (c) the client's books and the server's ledger
agree end-to-end — including when the server sheds or errors.
"""

import asyncio
import random

import pytest

from repro.actors.message import Overloaded
from repro.live import (FrontDoor, LoadGenerator, flash_crowd_arrivals,
                        poisson_arrivals)


def test_poisson_arrivals_deterministic_and_bounded():
    a = poisson_arrivals(500.0, 2.0, random.Random(7))
    b = poisson_arrivals(500.0, 2.0, random.Random(7))
    assert a == b
    assert a == sorted(a)
    assert all(0.0 < t < 2.0 for t in a)
    # Poisson(500/s × 2s) ⇒ ~1000 arrivals; 5σ ≈ 160.
    assert 800 < len(a) < 1200
    assert poisson_arrivals(500.0, 2.0, random.Random(8)) != a
    with pytest.raises(ValueError):
        poisson_arrivals(0.0, 1.0, random.Random(1))


def test_flash_crowd_arrivals_deterministic_burst():
    a = flash_crowd_arrivals(200, 1.0, 0.25, random.Random(3))
    b = flash_crowd_arrivals(200, 1.0, 0.25, random.Random(3))
    assert a == b
    assert len(a) == 200
    assert all(1.0 <= t <= 1.25 + 1e-9 for t in a)


def _run_against(router, arrivals, factory, **kwargs):
    async def main():
        front = FrontDoor(router)
        await front.start()
        generator = LoadGenerator(front.host, front.port, arrivals,
                                  factory, **kwargs)
        report = await generator.run()
        await front.stop()
        return report, front.ledger
    return asyncio.run(main())


def test_every_outcome_bucketed_and_books_agree():
    async def router(method, path, body):
        if path == "/shed":
            return 200, {"r": Overloaded("shed")}
        if path == "/boom":
            raise RuntimeError("x")
        if path == "/missing":
            raise KeyError("x")
        return 200, {"ok": True}

    paths = ["/ok", "/ok", "/shed", "/boom", "/missing"]

    def factory(index, rng):
        return "GET", paths[index % len(paths)], b""

    n = 50
    arrivals = [i * 0.002 for i in range(n)]
    report, ledger = _run_against(router, arrivals, factory,
                                  connections=8, timeout_s=10.0)
    assert report.sent == n
    assert report.balanced()
    assert report.ok == 20
    assert report.shed == 10
    assert report.http_errors == 20  # 404s + 500s
    assert report.status_counts == {200: 20, 404: 10, 500: 10, 503: 10}
    # Server books match: everything the client sent was issued and
    # disposed server-side.
    assert ledger.issued == n
    assert ledger.balanced()
    assert ledger.answered == 20
    assert ledger.counts["shed"] == 10
    assert ledger.counts["failed"] == 10
    assert ledger.counts["rejected"] == 10


def test_phase_split_uses_scheduled_arrival():
    async def router(method, path, body):
        return 200, {"ok": True}

    def factory(index, rng):
        return "GET", "/ok", b""

    arrivals = [i * 0.005 for i in range(40)]
    report, _ledger = _run_against(
        router, arrivals, factory,
        phase_of=lambda at_s: "early" if at_s < 0.1 else "late",
        connections=4)
    assert report.balanced()
    assert set(report.by_phase) == {"early", "late"}
    assert report.by_phase["early"].count == 20
    assert report.by_phase["late"].count == 20
    summary = report.phase_summary()
    assert summary["early"]["p99"] is not None
    assert report.as_dict()["phases"] == summary


def test_dead_server_counts_transport_errors():
    async def main():
        # Bind a port, then close it before the run so connects fail.
        front = FrontDoor(lambda m, p, b: None)
        await front.start()
        host, port = front.address
        await front.stop()
        generator = LoadGenerator(host, port, [0.0, 0.005, 0.01],
                                  lambda i, rng: ("GET", "/", b""),
                                  connections=2, timeout_s=2.0)
        return await generator.run()
    report = asyncio.run(main())
    assert report.sent == 3
    assert report.transport_errors == 3
    assert report.balanced()
    assert report.ok == 0

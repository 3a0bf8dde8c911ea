"""Front-door tests: HTTP parsing, dispositions, and ledger conservation.

A scripted router exercises every disposition row in the table at the
top of ``repro/live/frontdoor.py``; a raw stream client (not the load
generator — independent implementations keep the test honest) checks
the wire behaviour, keep-alive, and that the ledger balances.
"""

import asyncio
import json

from repro.actors.message import Overloaded
from repro.live import FrontDoor
from repro.live.system import ActorGone


async def scripted_router(method, path, body):
    if path == "/ok":
        return 200, {"echo": json.loads(body) if body else None}
    if path == "/missing":
        raise KeyError("no such room")
    if path == "/gone":
        raise ActorGone("actor destroyed")
    if path == "/boom":
        raise RuntimeError("handler exploded")
    if path == "/busy":
        return 200, {"result": Overloaded("shed")}
    raise KeyError(path)


async def _request(reader, writer, method, path, body=b"",
                   extra_headers=""):
    head = (f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\n{extra_headers}\r\n")
    writer.write(head.encode() + body)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode().partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    payload = json.loads(await reader.readexactly(length)) if length else {}
    return status, payload


def test_dispositions_and_ledger_balance():
    async def main():
        front = FrontDoor(scripted_router)
        await front.start()
        reader, writer = await asyncio.open_connection(*front.address)

        status, payload = await _request(reader, writer, "POST", "/ok",
                                         b'{"x": 1}')
        assert (status, payload) == (200, {"echo": {"x": 1}})
        assert (await _request(reader, writer, "GET", "/missing"))[0] == 404
        assert (await _request(reader, writer, "GET", "/gone"))[0] == 404
        status, payload = await _request(reader, writer, "GET", "/boom")
        assert status == 500 and "RuntimeError" in payload["error"]
        status, payload = await _request(reader, writer, "GET", "/busy")
        assert status == 503 and payload["retriable"] is True
        assert (await _request(reader, writer, "GET", "/healthz"))[0] == 200

        status, payload = await _request(reader, writer, "GET", "/stats")
        assert status == 200
        ledger = payload["ledger"]
        # Keys in this order; /stats sees itself issued, not disposed.
        assert list(ledger.items()) == [
            ("issued", 7), ("answered", 2), ("rejected", 2), ("shed", 1),
            ("failed", 1), ("bad_request", 0), ("outstanding", 1)]
        assert payload["latency"]["count"] == 6
        assert payload["latency"]["p99"] is not None

        writer.close()
        await writer.wait_closed()
        await front.stop()
        assert front.ledger.balanced()
        assert front.ledger.answered == 3
    asyncio.run(main())


def test_bad_request_line_gets_400():
    async def main():
        front = FrontDoor(scripted_router)
        await front.start()
        reader, writer = await asyncio.open_connection(*front.address)
        writer.write(b"garbage\r\n\r\n")
        await writer.drain()
        status_line = await reader.readline()
        assert b"400" in status_line
        writer.close()
        await writer.wait_closed()
        await front.stop()
        assert front.ledger.counts["bad_request"] == 1
        assert front.ledger.balanced()
    asyncio.run(main())


def test_keep_alive_and_connection_close():
    async def main():
        front = FrontDoor(scripted_router)
        await front.start()
        reader, writer = await asyncio.open_connection(*front.address)
        # Two requests on one connection, then an explicit close.
        for _ in range(2):
            assert (await _request(reader, writer, "GET", "/ok"))[0] == 200
        status, _payload = await _request(
            reader, writer, "GET", "/ok",
            extra_headers="Connection: close\r\n")
        assert status == 200
        assert await reader.read() == b""  # server hung up
        writer.close()
        await writer.wait_closed()
        await front.stop()
        assert front.ledger.issued == 3
        assert front.ledger.balanced()
    asyncio.run(main())


def test_query_strings_are_stripped():
    async def main():
        front = FrontDoor(scripted_router)
        await front.start()
        reader, writer = await asyncio.open_connection(*front.address)
        status, _ = await _request(reader, writer, "GET", "/ok?page=2")
        assert status == 200
        writer.close()
        await writer.wait_closed()
        await front.stop()
    asyncio.run(main())


def test_abrupt_client_disconnect_leaves_ledger_balanced():
    async def main():
        front = FrontDoor(scripted_router)
        await front.start()
        reader, writer = await asyncio.open_connection(*front.address)
        assert (await _request(reader, writer, "GET", "/ok"))[0] == 200
        writer.close()  # vanish without Connection: close
        await asyncio.sleep(0.02)
        await front.stop()
        assert front.ledger.issued == 1
        assert front.ledger.balanced()
    asyncio.run(main())


def test_request_ledger_arithmetic():
    ledger = FrontDoor(scripted_router).ledger
    for key, kind in enumerate(["answered"] * 6 + ["rejected", "shed",
                                                   "failed", None]):
        ledger.issue(key)
        if kind is not None:
            ledger.dispose(key, kind)
    assert ledger.answered == 6
    assert ledger.outstanding == 1
    assert not ledger.balanced()
    ledger.dispose(9, "bad_request")
    assert ledger.balanced()
    assert list(ledger.as_dict().items()) == [
        ("issued", 10), ("answered", 6), ("rejected", 1), ("shed", 1),
        ("failed", 1), ("bad_request", 1), ("outstanding", 0)]


class _HangUpWriter:
    """A transport whose peer vanishes while the reply is being sent."""

    def write(self, data):
        pass

    async def drain(self):
        raise ConnectionResetError("peer went away mid-reply")

    def close(self):
        pass

    async def wait_closed(self):
        pass


def test_disconnect_during_reply_still_disposes_the_request():
    async def main():
        front = FrontDoor(scripted_router)
        reader = asyncio.StreamReader()
        reader.feed_data(b"GET /ok HTTP/1.1\r\nHost: t\r\n\r\n")
        reader.feed_eof()
        await front._serve_connection(reader, _HangUpWriter())
        assert front.ledger.issued == 1
        assert front.ledger.answered == 1
        assert front.ledger.balanced()
    asyncio.run(main())

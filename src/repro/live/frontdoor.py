"""HTTP/1.1 front door for live apps — stdlib asyncio only.

A deliberately minimal server: request line + headers + Content-Length
body, keep-alive by default, JSON responses.  Two pieces of accounting
wrap every request:

* a :class:`~repro.core.profiling.LatencyRecorder` samples wall-clock
  service latency (accept-to-flush, measured with ``perf_counter``);
* a :class:`~repro.overload.DispositionLedger` gives every request
  exactly one terminal disposition — the class ``repro.overload``
  accounts client messages with, keyed by request number, so a load
  test can assert *zero lost or unaccounted requests*.

Dispositions map to status codes:

================  ======  =======================================
disposition       status  meaning
================  ======  =======================================
``answered``      2xx     the app handled it
``rejected``      404     no such route/entity (``KeyError``)
``shed``          503     overload NACK (:class:`Overloaded`)
``failed``        500     handler raised
``bad_request``   400     unparseable HTTP
================  ======  =======================================
"""

from __future__ import annotations

import asyncio
import json
from time import perf_counter
from typing import Any, Awaitable, Callable, Dict, Optional, Set, Tuple

from ..actors.message import Overloaded
from ..core.profiling.latency import LatencyRecorder
from ..overload import DispositionLedger
from .system import ActorGone

__all__ = ["FrontDoor", "REQUEST_DISPOSITIONS"]

#: An app's request handler: ``(method, path, body) -> (status, payload)``.
Router = Callable[[str, str, bytes], Awaitable[Tuple[int, Dict[str, Any]]]]

#: Status code -> reason phrase; any other code reads ``OK`` (a router
#: answers with some 2xx).
_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            500: "Internal Server Error", 503: "Service Unavailable"}

#: A request's terminal states, in the order ``/stats`` lists them.
REQUEST_DISPOSITIONS = ("answered", "rejected", "shed", "failed",
                        "bad_request")


class FrontDoor:
    """Serve one live app's router over HTTP."""

    def __init__(self, router: Router, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.router = router
        self.host = host
        self.port = port
        self.recorder = LatencyRecorder(capacity=32768)
        self.ledger = DispositionLedger(REQUEST_DISPOSITIONS)
        self._server: Optional[asyncio.base_events.Server] = None
        #: One task per open connection.
        self._connections: Set["asyncio.Task[None]"] = set()

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "FrontDoor":
        self._server = await asyncio.start_server(
            self._serve_connection, host=self.host, port=self.port)
        # Port 0 means "pick one"; expose what the OS chose.
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        """Stop listening and wait until every open connection has
        closed (before Python 3.12 ``Server.wait_closed`` does not)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            await asyncio.gather(*self._connections, return_exceptions=True)
            self._server = None

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    # -- connection handling -------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break  # clean EOF between requests
                method, path, headers, body, parse_ok = request
                started = perf_counter()
                key = self.ledger.issued
                self.ledger.issue(key)
                status, payload, disposition = await self._dispatch(
                    method, path, body, parse_ok)
                # Disposed before the write: the dispatch decided it,
                # and a client that hangs up mid-reply must not leave
                # it outstanding.
                self.ledger.dispose(key, disposition)
                keep_alive = (parse_ok and headers.get(
                    "connection", "keep-alive").lower() != "close")
                await self._write_response(writer, status, payload,
                                           keep_alive)
                self.recorder.record((perf_counter() - started) * 1000.0)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass  # client went away; every issued request is disposed
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            finally:
                self._connections.discard(task)

    async def _dispatch(self, method: str, path: str, body: bytes,
                        parse_ok: bool) -> Tuple[int, Dict, str]:
        if not parse_ok:
            return 400, {"error": "bad request"}, "bad_request"
        if method == "GET" and path == "/healthz":
            return 200, {"ok": True}, "answered"
        if method == "GET" and path == "/stats":
            return 200, {"ledger": self.ledger.as_dict(),
                         "latency": self.recorder.summary()}, "answered"
        try:
            status, payload = await self.router(method, path, body)
        except (KeyError, ActorGone) as exc:
            return 404, {"error": str(exc)}, "rejected"
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            return 500, {"error": f"{type(exc).__name__}: {exc}"}, "failed"
        if isinstance(payload, Overloaded) or (
                isinstance(payload, dict)
                and any(isinstance(v, Overloaded) for v in payload.values())):
            return 503, {"error": "overloaded", "retriable": True}, "shed"
        return status, payload, "answered"

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        """Parse one request; None on clean EOF; parse_ok=False on junk."""
        try:
            line = await reader.readline()
        except (ConnectionResetError, asyncio.IncompleteReadError):
            return None
        if not line:
            return None
        try:
            method, path, _version = line.decode("ascii").split(None, 2)
        except ValueError:
            return "GET", "/", {}, b"", False
        headers: Dict[str, str] = {}
        while True:
            header_line = await reader.readline()
            if not header_line or header_line in (b"\r\n", b"\n"):
                break
            name, _sep, value = header_line.decode(
                "latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = headers.get("content-length")
        if length:
            try:
                body = await reader.readexactly(int(length))
            except (ValueError, asyncio.IncompleteReadError):
                return method, path, headers, b"", False
        return method, path.split("?", 1)[0], headers, body, True

    @staticmethod
    async def _write_response(writer: asyncio.StreamWriter, status: int,
                              payload: Any, keep_alive: bool) -> None:
        if not isinstance(payload, (dict, list)):
            payload = {"result": repr(payload)}
        body = json.dumps(payload).encode("utf-8")
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}"
                f"\r\n\r\n")
        writer.write(head.encode("ascii") + body)
        await writer.drain()

"""A dependency-free asyncio HTTP/1.1 listener for :class:`ServeApp`.

The container this project targets has no web framework baked in, so the
network transport is ~150 lines of asyncio streams: one connection per
request (``Connection: close``), a request line, headers, an optional
``Content-Length`` body, and either a JSON answer or a ``text/event-stream``
response that stays open while the delta stream lives.  Everything
interesting (routing, limits, envelopes) happens in the transport-agnostic
:class:`~repro.serve.ServeApp`, which is also exercised through the
in-process transport by the differential harness — the listener only
translates bytes.

Deliberate non-goals: keep-alive, chunked request bodies, TLS,
HTTP/2.  This is the reproduction's front door, not a general web server.
"""

from __future__ import annotations

import asyncio
import json

from repro.errors import ServeError
from repro.serve.app import ServeApp, ServeRequest, ServeResponse, StreamResponse
from repro.serve.streaming import sse_encode

__all__ = ["HttpServer", "REASONS"]

#: Status -> reason phrase for every code the app can emit.
REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

_MAX_REQUEST_LINE = 8 * 1024
_MAX_HEADER_BYTES = 32 * 1024


class _BadRequest(Exception):
    """A connection-level protocol violation (answered 400, then closed)."""


class HttpServer:
    """Serve one :class:`ServeApp` over plain HTTP/1.1.

    ``port=0`` binds an ephemeral port (the tests' mode); :attr:`port`
    reports the bound one after :meth:`start`.  The server does not own the
    app — closing the listener leaves the app (and its session) running, so
    one app can be drained and re-exposed.
    """

    def __init__(
        self, app: ServeApp, host: str = "127.0.0.1", port: int = 0, *, fault_plane=None
    ):
        if not isinstance(app, ServeApp):
            raise ServeError(f"expected a ServeApp, got {type(app).__name__}")
        self._app = app
        self._host = host
        self._port = port
        self._server: asyncio.AbstractServer | None = None
        self.connections = 0
        #: Optional :class:`~repro.serve.FaultPlane`; a scheduled
        #: ``connection.send`` aborts the connection *after* dispatch and
        #: before the body is written — the computed-but-undelivered case.
        self.fault_plane = fault_plane

    @property
    def app(self) -> ServeApp:
        return self._app

    @property
    def port(self) -> int:
        if self._server is None:
            return self._port
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> str:
        return f"http://{self._host}:{self.port}"

    async def start(self) -> "HttpServer":
        if self._server is not None:
            raise ServeError("this HttpServer is already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        return self

    async def aclose(self) -> None:
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    async def __aenter__(self) -> "HttpServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc_value, traceback) -> None:
        await self.aclose()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        try:
            try:
                request = await self._read_request(reader)
            except _BadRequest as error:
                await self._write_json(
                    writer,
                    ServeResponse(
                        400,
                        {"error": {"code": "invalid-request", "message": str(error)}},
                    ),
                )
                return
            response = await self._app.dispatch(request)
            if isinstance(response, StreamResponse):
                await self._write_stream(writer, response)
            else:
                await self._write_json(writer, response)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            # The client went away (IncompleteReadError: mid-body, before
            # dispatch — no admission slot was ever held); nothing to answer.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader) -> ServeRequest:
        try:
            request_line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError) as error:
            raise _BadRequest(f"unreadable request line: {error}") from None
        if not request_line:
            raise _BadRequest("empty request")
        if len(request_line) > _MAX_REQUEST_LINE:
            raise _BadRequest("request line too long")
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _BadRequest(f"malformed request line {request_line!r}")
        method, target, _version = parts
        path = target.split("?", 1)[0]
        headers: dict[str, str] = {}
        header_bytes = 0
        while True:
            line = await reader.readline()
            header_bytes += len(line)
            if header_bytes > _MAX_HEADER_BYTES:
                raise _BadRequest("headers too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body: bytes | None = None
        raw_length = headers.get("content-length")
        if raw_length is not None:
            try:
                length = int(raw_length)
            except ValueError:
                raise _BadRequest(f"bad Content-Length {raw_length!r}") from None
            if length < 0:
                raise _BadRequest(f"bad Content-Length {raw_length!r}")
            # Read at most one byte past the app's cap: an oversized body is
            # answered 413 without ever being buffered in full.
            limit = min(length, self._app.config.max_body_bytes + 1)
            body = await reader.readexactly(limit) if limit else b""
        return ServeRequest(method=method, path=path, body=body, headers=headers)

    async def _write_json(
        self, writer: asyncio.StreamWriter, response: ServeResponse
    ) -> None:
        if self.fault_plane is not None and self.fault_plane.should_fire(
            "connection.send"
        ):
            # Injected sever: the work is done, the answer never leaves.
            self._app.note_severed(ok=response.ok)
            writer.transport.abort()
            return
        body = json.dumps(response.payload, sort_keys=True).encode("utf-8")
        try:
            writer.write(
                self._head(response.status, "application/json", len(body), response)
            )
            writer.write(body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            # A real sever: same accounting, then swallow — there is no one
            # left to answer.
            self._app.note_severed(ok=response.ok)

    async def _write_stream(
        self, writer: asyncio.StreamWriter, response: StreamResponse
    ) -> None:
        stream = response.stream
        writer.write(self._head(response.status, "text/event-stream", None, response))
        try:
            await writer.drain()
            async for event in stream.events():
                writer.write(sse_encode(event))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            # slow or vanished consumer; the broker forgets the stream
            self._app.note_severed(ok=False)
        finally:
            stream.close()
            response.broker.discard(stream)

    @staticmethod
    def _head(
        status: int, content_type: str, length: int | None, response=None
    ) -> bytes:
        reason = REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            "Connection: close",
        ]
        if length is not None:
            lines.append(f"Content-Length: {length}")
        retry_after = _retry_after_of(response)
        if retry_after is not None:
            # Whole seconds, rounded up — the header grammar wants an integer.
            lines.append(f"Retry-After: {max(1, int(-(-retry_after // 1)))}")
        if content_type == "text/event-stream":
            lines.append("Cache-Control: no-store")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def _retry_after_of(response) -> float | None:
    """The ``retry_after`` hint of an error envelope, if the answer has one."""
    payload = getattr(response, "payload", None)
    if not isinstance(payload, dict):
        return None
    error = payload.get("error")
    if not isinstance(error, dict):
        return None
    value = error.get("retry_after")
    return float(value) if isinstance(value, (int, float)) else None

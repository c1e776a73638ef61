"""The asyncio front door: ``repro serve``.

A line-delimited JSON protocol over TCP (stdlib ``asyncio`` only — no
framework), one JSON object per line both ways.  Requests carry an
``op`` and an optional client-chosen ``id`` that is echoed on every
response belonging to that request:

==========  ===========================================  =============
op          request fields                               responses
==========  ===========================================  =============
``check``   ``trace`` (trace text)                       one ``verdict``
``batch``   ``traces`` (list of trace texts)             one ``verdict``
                                                         per trace (in
                                                         order), then
                                                         ``batch_done``
                                                         with
                                                         ``engine_stats``
``status``  —                                            ``stats``
``shutdown``  —                                          ``bye``; the
                                                         server stops
==========  ===========================================  =============

A ``verdict`` response is ``{"op": "verdict", "id": ..., "name": ...,
"accepted": bool, "accepted_on": [...], "profiles": [...]}`` where
``profiles`` is the lossless
:meth:`~repro.oracle.ConformanceProfile.to_dict` form — the client can
rebuild the exact per-platform profile objects, which is how the
parity harness checks the served path bit-for-bit against
:class:`~repro.harness.backends.SerialBackend`.  Malformed input gets
``{"op": "error", ...}`` on that line and the connection stays up.  A
line longer than :data:`~repro.service.client.MAX_LINE_BYTES` gets an
error naming the limit, and then that connection is closed.

Checking is delegated to a :class:`~repro.service.service
.CheckingService`: ``submit`` runs on the default executor (it may
block: the parent-only mode checks there, and the first call spawns
the pool), and each verdict future is awaited with
``asyncio.wrap_future`` so many connections interleave on one loop.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional

from repro.service.client import LINE_TOO_LONG, MAX_LINE_BYTES
from repro.service.service import CheckingService


class ServiceServer:
    """One listening socket bound to one :class:`CheckingService`."""

    def __init__(self, service: CheckingService,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Event] = None

    async def start(self) -> None:
        """Bind and start serving; ``port=0`` picks a free port (the
        bound port is readable from :attr:`port` afterwards)."""
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_LINE_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]

    async def wait_closed(self) -> None:
        """Block until a ``shutdown`` request arrives, then unbind."""
        assert self._stopped is not None and self._server is not None
        await self._stopped.wait()
        self._server.close()
        await self._server.wait_closed()

    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- connection handling --------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # The line overran MAX_LINE_BYTES and asyncio has
                    # dropped what it buffered: the stream cannot
                    # resync, so say why and close this connection.
                    await self._send(writer, {"op": "error", "id": None,
                                              "error": LINE_TOO_LONG})
                    await self._skip_line(reader)
                    break
                if not line:
                    break
                stop = await self._handle_line(line, writer)
                if stop:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-reply: nothing to clean up
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    async def _skip_line(reader: asyncio.StreamReader) -> None:
        """Read and drop the rest of an overrun line (until a newline,
        EOF or a second of silence).  Closing a socket with unread input
        sends a reset, which can destroy the error reply in flight."""
        try:
            while True:
                chunk = await asyncio.wait_for(reader.read(1 << 16), 1.0)
                if not chunk or b"\n" in chunk:
                    return
        except asyncio.TimeoutError:
            return

    async def _handle_line(self, line: bytes,
                           writer: asyncio.StreamWriter) -> bool:
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as exc:
            await self._send(writer, {"op": "error", "id": None,
                                      "error": f"bad request: {exc}"})
            return False
        request_id = request.get("id")
        op = request.get("op")
        try:
            if op == "check":
                await self._check_batch(writer, request_id,
                                        [request["trace"]], batch=False)
            elif op == "batch":
                await self._check_batch(writer, request_id,
                                        list(request["traces"]),
                                        batch=True)
            elif op == "status":
                await self._send(writer,
                                 {"op": "stats", "id": request_id,
                                  "engine_stats": self.service.stats()})
            elif op == "shutdown":
                await self._send(writer, {"op": "bye",
                                          "id": request_id})
                assert self._stopped is not None
                self._stopped.set()
                return True
            else:
                raise ValueError(f"unknown op {op!r}")
        except Exception as exc:
            await self._send(writer, {"op": "error", "id": request_id,
                                      "error": f"{type(exc).__name__}:"
                                               f" {exc}"})
        return False

    async def _check_batch(self, writer: asyncio.StreamWriter,
                           request_id, traces, *,
                           batch: bool) -> None:
        loop = asyncio.get_running_loop()
        # submit() may block (parent-only mode, the pool's first
        # spawn): keep the loop responsive by running it on the default
        # executor.
        futures = await loop.run_in_executor(
            None, self.service.submit, traces)
        for future in futures:
            result = await asyncio.wrap_future(future)
            reply = {"op": "verdict", "id": request_id}
            reply.update(result.to_payload())
            await self._send(writer, reply)
        if batch:
            await self._send(writer,
                             {"op": "batch_done", "id": request_id,
                              "count": len(futures),
                              "engine_stats": self.service.stats()})

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, payload: dict
                    ) -> None:
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()


def run_server(service: CheckingService, host: str = "127.0.0.1",
               port: int = 0, *, ready=None) -> None:
    """Run a server until a ``shutdown`` request (blocking).

    ``ready(server)`` is called once the socket is bound — the CLI uses
    it to print the actual address (``port=0`` picks a free one) in a
    line scripts can parse.
    """

    async def main() -> None:
        server = ServiceServer(service, host, port)
        await server.start()
        if ready is not None:
            ready(server)
        await server.wait_closed()

    asyncio.run(main())

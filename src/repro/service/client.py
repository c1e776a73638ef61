"""Blocking client for the ``repro serve`` line-JSON protocol.

Deliberately dependency-free (``socket`` + ``json``): the CLI's
``repro check --server``, the parity harness and the CI smoke script
all talk to the server through this one class, and a third-party
client needs nothing but a TCP socket and a JSON codec to do the same.
Responses are returned as the raw decoded dicts — the protocol's
``profiles`` rows are lossless
:meth:`~repro.oracle.ConformanceProfile.to_dict` forms, so callers
that want profile *objects* rebuild them with ``from_dict``.
"""

from __future__ import annotations

import json
import socket
from typing import Iterator, List, Optional, Sequence, Tuple, Union

Address = Union[str, Tuple[str, int]]

#: The longest request line, in bytes without its newline, that the
#: server reads.  On a longer one it replies with :data:`LINE_TOO_LONG`
#: and closes the connection; the client refuses to send one.
MAX_LINE_BYTES = 8 * 1024 * 1024

LINE_TOO_LONG = (f"request line exceeds the {MAX_LINE_BYTES}-byte limit "
                 "(MAX_LINE_BYTES); split it into smaller batches")


def parse_address(address: Address) -> Tuple[str, int]:
    """``"host:port"`` (or a ready pair) -> ``(host, port)``."""
    if isinstance(address, tuple):
        return address[0], int(address[1])
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(
            f"server address must be HOST:PORT, got {address!r}")
    return host, int(port)


class ServiceClient:
    """One connection to a checking server."""

    def __init__(self, address: Address,
                 timeout: Optional[float] = 60.0) -> None:
        host, port = parse_address(address)
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout)
        self._reader = self._sock.makefile("rb")

    # -- protocol plumbing ----------------------------------------------------

    def _send(self, payload: dict) -> None:
        line = json.dumps(payload).encode()
        if len(line) > MAX_LINE_BYTES:
            raise ValueError(LINE_TOO_LONG)
        self._sock.sendall(line + b"\n")

    def _read(self) -> dict:
        line = self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        reply = json.loads(line)
        if reply.get("op") == "error":
            raise RuntimeError(f"server error: {reply.get('error')}")
        return reply

    def request(self, payload: dict) -> dict:
        """One request, one response (``check``/``status``/...)."""
        self._send(payload)
        return self._read()

    # -- the protocol verbs ---------------------------------------------------

    def check(self, trace_text: str, *, request_id=None) -> dict:
        """Check one trace; returns the ``verdict`` message."""
        return self.request({"op": "check", "id": request_id,
                             "trace": trace_text})

    def check_batch(self, trace_texts: Sequence[str], *,
                    request_id=None) -> Tuple[List[dict], dict]:
        """Check many traces; returns (verdicts in input order, the
        ``batch_done`` message carrying ``engine_stats``)."""
        self._send({"op": "batch", "id": request_id,
                    "traces": list(trace_texts)})
        verdicts: List[dict] = []
        while True:
            reply = self._read()
            if reply.get("op") == "batch_done":
                return verdicts, reply
            verdicts.append(reply)

    def iter_batch(self, trace_texts: Sequence[str], *,
                   request_id=None) -> Iterator[dict]:
        """Streaming form of :meth:`check_batch`: yields each
        ``verdict`` as it arrives, then the ``batch_done`` message."""
        self._send({"op": "batch", "id": request_id,
                    "traces": list(trace_texts)})
        while True:
            reply = self._read()
            yield reply
            if reply.get("op") == "batch_done":
                return

    def status(self, *, request_id=None) -> dict:
        """Fetch the server's cumulative ``engine_stats``."""
        return self.request({"op": "status", "id": request_id})

    def shutdown(self, *, request_id=None) -> dict:
        """Ask the server to stop (returns its ``bye``)."""
        return self.request({"op": "shutdown", "id": request_id})

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

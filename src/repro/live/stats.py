"""Minimal loopback HTTP endpoint for Prometheus text snapshots.

One deliberately tiny handler shared by the single-session runtime
(``repro live --stats-port``) and the multi-session supervisor
(``repro load --stats-port``): any request path returns the current
snapshot, so ``curl localhost:PORT`` and a scraping Prometheus both
work without an HTTP framework dependency.

The whole lifecycle lives in :func:`serving_stats`, one ``async with``
that starts, addresses, closes and awaits the server, so every caller
gets these details right:

* the handler awaits ``writer.wait_closed()`` after ``close()`` — a
  scrape racing session teardown otherwise leaves a half-closed
  connection for the event loop to warn about;
* binding a busy port fails *at startup* with a clear message instead
  of surfacing as an unhandled ``OSError`` mid-session.
"""

from __future__ import annotations

import asyncio
from contextlib import asynccontextmanager
from typing import AsyncIterator, Callable, Optional, Tuple


@asynccontextmanager
async def serving_stats(port: Optional[int], body_fn: Callable[[], str]
                        ) -> AsyncIterator[Optional[Tuple[str, int]]]:
    """Serve ``body_fn()`` as a text/plain snapshot on loopback ``port``
    for the body of an ``async with``.

    Yields the ``(host, port)`` actually bound (``port=0`` binds an
    ephemeral one), or None with no server when ``port`` is None. Raises
    ``RuntimeError`` with an actionable message when the port is already
    taken. On exit, by return or raise, the server is closed and awaited.
    """
    if port is None:
        yield None
        return
    host = "127.0.0.1"

    async def handle(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        try:
            # Drain the request line and headers; the reply is the same
            # snapshot regardless of what was asked for.
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            body = body_fn().encode()
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/plain; version=0.0.4\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                b"Connection: close\r\n\r\n" + body)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    try:
        server = await asyncio.start_server(handle, host, port)
    except OSError as exc:
        raise RuntimeError(
            f"stats port {host}:{port} is unavailable ({exc.strerror or exc});"
            " pick a free port, or pass --stats-port 0 to bind an ephemeral"
            " one (the chosen address is reported as stats_addr)") from exc
    try:
        yield server.sockets[0].getsockname()[:2]
    finally:
        server.close()
        await server.wait_closed()

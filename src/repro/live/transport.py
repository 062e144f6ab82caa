"""The live endpoint: a UDP socket speaking the wire format.

A live session runs the simulator's :class:`~repro.net.path.NetworkPath`
on its wall clock; the path hands each packet to a
:class:`UdpTransport` when it arrives, and each feedback message after
the reverse delay, and the endpoint only moves the bytes: a
non-blocking UDP socket carrying the wire format of
:mod:`repro.live.wire`.

A live session peers two full-duplex endpoints on loopback; a readable
socket is drained until it would block, via ``add_reader`` (asyncio's
default loop on Linux and macOS).
"""

from __future__ import annotations

import asyncio
import socket
import struct
from typing import Callable, Optional, Tuple

from repro.live.clock import Clock
from repro.live.wire import (
    KIND_FEEDBACK,
    KIND_MEDIA,
    decode_feedback,
    decode_packet,
    encode_feedback,
    encode_packet,
)
from repro.net.packet import Packet

#: decoder per kind byte; any other first byte is malformed.
_DECODERS = {KIND_MEDIA: decode_packet, KIND_FEEDBACK: decode_feedback}


class UdpTransport:
    """One live endpoint: a UDP socket speaking the wire format, both
    directions demultiplexed by kind byte. A failed send or receive
    counts in ``socket_errors``, a datagram that does not decode in
    ``malformed``; either is dropped and the endpoint goes on."""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        #: receiver side: a media packet arrived.
        self.on_arrival: Optional[Callable[[Packet], None]] = None
        #: sender side: a feedback message arrived.
        self.on_feedback: Optional[Callable[[object], None]] = None
        self.socket_errors = 0
        self.malformed = 0
        self._sock: Optional[socket.socket] = None
        self._aloop: Optional[asyncio.AbstractEventLoop] = None
        self._peer: Optional[Tuple[str, int]] = None

    @classmethod
    async def create(cls, clock: Clock, host: str = "127.0.0.1",
                     port: int = 0) -> "UdpTransport":
        """Bind a datagram endpoint on ``host:port`` (0 = ephemeral)."""
        self = cls(clock)
        aloop = asyncio.get_running_loop()
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.setblocking(False)
            sock.bind((host, port))
            aloop.add_reader(sock.fileno(), self._drain)
        except BaseException:
            sock.close()
            raise
        self._sock, self._aloop = sock, aloop
        return self

    @property
    def local_addr(self) -> Tuple[str, int]:
        return self._sock.getsockname()[:2]

    def connect(self, peer: Tuple[str, int]) -> None:
        """Set the remote endpoint datagrams are sent to."""
        self._peer = peer

    def close(self) -> None:
        """Drop the socket; idempotent."""
        sock, self._sock = self._sock, None
        if sock is not None:
            self._aloop.remove_reader(sock.fileno())
            sock.close()

    def send(self, packet: Packet) -> None:
        """Emit a media packet."""
        self._sendto(encode_packet(packet))

    def send_feedback(self, message: object) -> None:
        """Emit a feedback message (one datagram per chunk)."""
        for data in encode_feedback(message):
            self._sendto(data)

    def _sendto(self, data: bytes) -> None:
        if self._sock is None or self._peer is None:
            return
        try:
            self._sock.sendto(data, self._peer)
        except OSError:
            self.socket_errors += 1

    def _drain(self) -> None:
        """Read until the socket would block; a callback may close it."""
        while self._sock is not None:
            try:
                data = self._sock.recv(65536)
            except BlockingIOError:
                return
            except OSError:
                self.socket_errors += 1
                continue
            try:
                decoded = _DECODERS[data[0]](data)
            except (IndexError, KeyError, struct.error):
                self.malformed += 1
                continue
            if data[0] == KIND_MEDIA:
                decoded.t_arrival = self.clock.now
                if self.on_arrival is not None:
                    self.on_arrival(decoded)
            elif self.on_feedback is not None:
                self.on_feedback(decoded)


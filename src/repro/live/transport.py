"""Transport abstraction: one send/receive surface for sim and UDP.

The sender-side stack needs exactly four things from "the network":
inject a media packet (``send``), return a feedback message
(``send_feedback``), callbacks for what comes back, and a rough
reverse-path delay estimate for RTT accounting. :class:`Transport`
captures that surface. In simulation the path *is* the transport:
:class:`~repro.net.path.NetworkPath` (and the arena's ``ArenaPath``) has
these four members itself, so the session hands it straight to the
stack. Live, it is :class:`UdpTransport` — an asyncio datagram endpoint
carrying the wire format of :mod:`repro.live.wire` over real sockets,
optionally shaped by a :class:`~repro.live.impairment.LoopbackImpairment`.

A live session uses one ``UdpTransport`` per endpoint (sender and
receiver), peered at each other's loopback address; each instance is
full-duplex (media out / feedback in on the sender, the mirror image on
the receiver).
"""

from __future__ import annotations

import abc
import asyncio
from typing import Callable, Optional, Tuple

from repro.live.clock import Clock
from repro.live.impairment import LoopbackImpairment
from repro.live.wire import (
    KIND_MEDIA,
    datagram_kind,
    decode_feedback,
    decode_packet,
    encode_feedback,
    encode_packet,
)
from repro.net.packet import Packet


class Transport(abc.ABC):
    """What the sender/receiver stack sees of the network."""

    #: receiver-side delivery of a media packet.
    on_arrival: Optional[Callable[[Packet], None]]
    #: sender-side delivery of a feedback message.
    on_feedback: Optional[Callable[[object], None]]
    #: notification that a media packet was dropped in transit.
    on_drop: Optional[Callable[[Packet], None]]

    @abc.abstractmethod
    def send(self, packet: Packet) -> None:
        """Inject a media packet at the sender's NIC."""

    @abc.abstractmethod
    def send_feedback(self, message: object) -> None:
        """Return a feedback message from the receiver."""

    @property
    @abc.abstractmethod
    def reverse_delay_estimate(self) -> float:
        """Approximate one-way delay of the feedback path (seconds)."""


class _DatagramProtocol(asyncio.DatagramProtocol):
    """Thin adapter feeding received datagrams to the owning transport."""

    def __init__(self, owner: "UdpTransport") -> None:
        self._owner = owner

    def datagram_received(self, data: bytes, addr) -> None:
        self._owner._on_datagram(data)

    def error_received(self, exc: Exception) -> None:  # pragma: no cover
        self._owner.socket_errors += 1


class UdpTransport(Transport):
    """One live endpoint: an asyncio UDP socket speaking the wire format.

    The sender-side instance sends media (through the impairment shim,
    when configured) and receives feedback; the receiver-side instance
    is the mirror image. Datagrams are demultiplexed by their kind byte,
    so both directions share one socket pair.
    """

    def __init__(self, clock: Clock,
                 impairment: Optional[LoopbackImpairment] = None) -> None:
        self.clock = clock
        self.impairment = impairment
        self.on_arrival: Optional[Callable[[Packet], None]] = None
        self.on_feedback: Optional[Callable[[object], None]] = None
        self.on_drop: Optional[Callable[[Packet], None]] = None
        self.socket_errors = 0
        #: media packets dropped by the impairment shim (never sent).
        self.dropped_packets: list[Packet] = []
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._peer: Optional[Tuple[str, int]] = None
        self._closed = False
        #: impairment-delayed send timers still pending; cancelled on
        #: close so a finished session leaves nothing on the event loop.
        self._pending_sends: set = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    async def create(cls, clock: Clock, host: str = "127.0.0.1",
                     port: int = 0,
                     impairment: Optional[LoopbackImpairment] = None
                     ) -> "UdpTransport":
        """Bind a datagram endpoint on ``host:port`` (0 = ephemeral)."""
        self = cls(clock, impairment=impairment)
        aloop = asyncio.get_running_loop()
        transport, _protocol = await aloop.create_datagram_endpoint(
            lambda: _DatagramProtocol(self), local_addr=(host, port))
        self._transport = transport
        return self

    @property
    def local_addr(self) -> Tuple[str, int]:
        assert self._transport is not None
        return self._transport.get_extra_info("sockname")[:2]

    def connect(self, peer: Tuple[str, int]) -> None:
        """Set the remote endpoint datagrams are sent to."""
        self._peer = peer

    def close(self) -> None:
        self._closed = True
        for handle in self._pending_sends:
            handle.cancel()
        self._pending_sends.clear()
        if self._transport is not None:
            self._transport.close()

    @property
    def pending_timers(self) -> int:
        """Delayed send timers still scheduled (0 after ``close()``)."""
        return len(self._pending_sends)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Emit a media packet, shaped by the impairment when present."""
        data = encode_packet(packet)
        if self.impairment is None:
            self._sendto(data)
            return
        delay = self.impairment.admit(packet.size_bytes, self.clock.now)
        if delay is None:
            packet.dropped = True
            self.dropped_packets.append(packet)
            if self.on_drop is not None:
                self.on_drop(packet)
            return
        if delay <= 0:
            self._sendto(data)
        else:
            self._sendto_later(delay, data, "live.media")

    def send_feedback(self, message: object) -> None:
        """Emit a feedback message after the reverse propagation delay."""
        delay = (self.impairment.feedback_delay
                 if self.impairment is not None else 0.0)
        for data in encode_feedback(message):
            if delay <= 0:
                self._sendto(data)
            else:
                self._sendto_later(delay, data, "live.feedback")

    def _sendto_later(self, delay: float, data: bytes, name: str) -> None:
        """Schedule a tracked delayed send; the handle unregisters on fire."""
        handle = self.clock.call_later(
            delay, lambda: self._fire_delayed(handle, data), name)
        self._pending_sends.add(handle)

    def _fire_delayed(self, handle, data: bytes) -> None:
        self._pending_sends.discard(handle)
        self._sendto(data)

    def _sendto(self, data: bytes) -> None:
        if self._closed or self._transport is None or self._peer is None:
            return
        self._transport.sendto(data, self._peer)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def _on_datagram(self, data: bytes) -> None:
        if self._closed or not data:
            return
        if datagram_kind(data) == KIND_MEDIA:
            packet = decode_packet(data)
            packet.t_arrival = self.clock.now
            if self.on_arrival is not None:
                self.on_arrival(packet)
        else:
            message = decode_feedback(data)
            if self.on_feedback is not None:
                self.on_feedback(message)

    @property
    def reverse_delay_estimate(self) -> float:
        return (self.impairment.feedback_delay
                if self.impairment is not None else 0.0)

"""Pacer interface and shared queue mechanics.

A pacer holds packetized frames between the encoder and the network and
decides *when* each packet leaves the sender — the sub-RTT sending
pattern the paper's whole argument is about. Concrete policies differ
only in how they compute the next send opportunity, so the queueing,
priority (retransmissions first) and bookkeeping live here.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Deque, Optional

from repro.net.packet import Packet

if TYPE_CHECKING:
    from repro.live.clock import Clock
    from repro.sim.events import Event


#: bound on the occupancy sample ring in :class:`PacerStats`: above the
#: enqueues of any benchmarked session (a 50 s, 60 fps run is ~3 000
#: frames plus retransmissions), and a live fleet's memory stays flat.
OCCUPANCY_SAMPLE_CAP = 4096


@dataclass(slots=True)
class PacerStats:
    """Counters the metrics layer reads off the pacer: scalars exact
    forever, occupancy samples a bounded ring. A packet's pacing delay
    is not kept here — the packet carries its stamps (``t_leave_pacer -
    t_enqueue_pacer``) and the telemetry's wire rows are its one record."""

    enqueued_packets: int = 0
    sent_packets: int = 0
    enqueued_bytes: int = 0
    sent_bytes: int = 0
    #: (time, queued_bytes) after every enqueue — the backlog only grows
    #: there, so the ring's maximum is the exact peak (bounded ring).
    occupancy_samples: Deque[tuple[float, int]] = field(
        init=False, default_factory=lambda: deque(maxlen=OCCUPANCY_SAMPLE_CAP))


class Pacer(abc.ABC):
    """Base class: FIFO media queue + priority retransmission queue.

    Subclasses implement :meth:`_take`, the release rule in one call: it
    either commits the head packet's release to the policy state and
    returns 0.0, or returns how long to wait. They may state the same
    policy over a whole train (:meth:`release_train`).

    ``loop`` is any :class:`~repro.live.clock.Clock`: pacers schedule
    their pump exclusively through the clock protocol, so the same
    policy code paces a simulated link or a real UDP socket.

    The hierarchy is slotted (every subclass declares ``__slots__``) —
    pacer state is touched on every packet send.
    """

    __slots__ = ("loop", "send_fn", "stats", "_audio_queue", "_media_queue",
                 "_rtx_queue", "_queued_bytes", "_pump_event",
                 "_pacing_rate_bps")

    def __init__(self, loop: "Clock",
                 send_fn: Callable[[Packet], None]) -> None:
        self.loop = loop
        self.send_fn = send_fn
        self.stats = PacerStats()
        self._audio_queue: Deque[Packet] = deque()
        self._media_queue: Deque[Packet] = deque()
        self._rtx_queue: Deque[Packet] = deque()
        self._queued_bytes = 0
        self._pump_event: Optional["Event"] = None
        self._pacing_rate_bps = 1_000_000.0

    # ------------------------------------------------------------------
    # rate plumbing
    # ------------------------------------------------------------------
    @property
    def pacing_rate_bps(self) -> float:
        return self._pacing_rate_bps

    def set_pacing_rate(self, rate_bps: float) -> None:
        """Update the pacing rate (called when the CCA's estimate moves)."""
        self._pacing_rate_bps = max(rate_bps, 10_000.0)

    # ------------------------------------------------------------------
    # queue state
    # ------------------------------------------------------------------
    @property
    def queued_bytes(self) -> int:
        return self._queued_bytes

    @property
    def queued_packets(self) -> int:
        return (len(self._media_queue) + len(self._rtx_queue)
                + len(self._audio_queue))

    # ------------------------------------------------------------------
    # enqueue / release
    # ------------------------------------------------------------------
    def enqueue(self, packets: list[Packet]) -> None:
        """Add a frame's packet train to the pacing queue."""
        self._admit(self._media_queue, packets)

    def enqueue_retransmission(self, packet: Packet) -> None:
        """Queue a retransmission ahead of fresh media (WebRTC priority)."""
        self._admit(self._rtx_queue, (packet,))

    def enqueue_audio(self, packet: Packet) -> None:
        """Queue an audio packet at strict top priority (WebRTC order:
        audio > retransmissions > video)."""
        self._admit(self._audio_queue, (packet,))

    def _admit(self, queue: Deque[Packet], packets) -> None:
        now = self.loop.now
        stats = self.stats
        for packet in packets:
            packet.t_enqueue_pacer = now
            queue.append(packet)
            self._queued_bytes += packet.size_bytes
            stats.enqueued_packets += 1
            stats.enqueued_bytes += packet.size_bytes
        stats.occupancy_samples.append((now, self._queued_bytes))
        self._schedule_pump(0.0)

    #: floor on positive pump delays — waits shorter than a microsecond
    #: cannot reliably advance the float clock and would spin the loop.
    MIN_PUMP_DELAY_S = 1e-6

    def _schedule_pump(self, delay: float) -> None:
        if 0 < delay < self.MIN_PUMP_DELAY_S:
            delay = self.MIN_PUMP_DELAY_S
        if self._pump_event is not None and not self._pump_event.cancelled:
            # A pump is already pending; let it run (it reschedules itself).
            if delay > 0:
                return
            self._pump_event.cancel()
        self._pump_event = self.loop.call_later(delay, self._pump, "pacer.pump")

    def _pump(self) -> None:
        self._pump_event = None
        audio = self._audio_queue
        rtx = self._rtx_queue
        media = self._media_queue
        while True:
            # Inline triage (audio > rtx > media) so peek and pop share
            # one pass; the three deques never change identity.
            if audio:
                queue = audio
            elif rtx:
                queue = rtx
            elif media:
                queue = media
            else:
                return
            head = queue[0]
            delay = self._take(head)
            if delay > 0:
                self._schedule_pump(delay)
                return
            queue.popleft()
            self._release(head)

    def _release(self, packet: Packet) -> None:
        now = self.loop.now
        packet.t_leave_pacer = now
        size = packet.size_bytes
        queued = self._queued_bytes - size
        self._queued_bytes = queued
        stats = self.stats
        stats.sent_packets += 1
        stats.sent_bytes += size
        self.send_fn(packet)

    @abc.abstractmethod
    def _take(self, packet: Packet) -> float:
        """0.0: ``packet`` leaves at ``loop.now``, its release committed to
        the policy state; positive: the wait, then the pump asks again."""

    def on_send(self, packet: Packet) -> None:
        """Never called (``_take`` commits); a no-op kept on the pacers
        whose methods ``perfbench/trace.py`` wraps by name."""

    def release_train(self, sizes, cum, floor: float, target: float):
        """Optional closed form of the pump over a queued media train.

        ``sizes``/``cum`` are the arrays of packet sizes and cumulative
        bytes of the train at the head of the media queue, ``floor`` the
        earliest instant anything may leave (the clock, or the last
        release if later). Returns the array of release times of the
        packets that leave by ``target`` — a prefix, possibly empty — and
        commits them: the policy's own state is left as the pump's
        :meth:`_take` calls would have left it, packet by packet. ``None``
        (the default) states no closed form; the batch engine then runs
        the session on the reference loop.
        """
        return None

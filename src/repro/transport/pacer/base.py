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
    from repro.live.clock import Clock, ScheduledCall


#: bound on the per-packet sample rings in :class:`PacerStats`. Generous
#: enough that every sim session in the test/bench suite keeps full
#: fidelity (a 20 s session at 20 Mbps releases ~42k packets, under the
#: cap — so sim metrics and golden fingerprints are untouched), small
#: enough that a wall-clock soak run's memory stays flat instead of
#: growing ~100 B per packet forever. Long-running many-session load
#: runs shrink it further per session via :meth:`PacerStats.rebound`.
DEFAULT_SAMPLE_CAP = 65_536


@dataclass(slots=True)
class PacerStats:
    """Counters the metrics layer reads off the pacer.

    The two sample sequences are bounded rings (oldest samples rotate
    out past :data:`DEFAULT_SAMPLE_CAP`): scalar counters are exact
    forever, per-packet samples keep a recent window — which is also
    exactly what live-mode percentile reporting wants.
    """

    enqueued_packets: int = 0
    sent_packets: int = 0
    enqueued_bytes: int = 0
    sent_bytes: int = 0
    #: (time, queued_bytes) samples on every enqueue/send (bounded ring).
    occupancy_samples: Deque[tuple[float, int]] = field(
        default_factory=lambda: deque(maxlen=DEFAULT_SAMPLE_CAP))
    #: per-packet pacing delays in seconds (bounded ring).
    pacing_delays: Deque[float] = field(
        default_factory=lambda: deque(maxlen=DEFAULT_SAMPLE_CAP))

    def rebound(self, cap: int) -> None:
        """Shrink (or grow) the sample rings to hold ``cap`` entries.

        Keeps the newest samples. Many-session soak runs call this per
        session so fleet memory is ``sessions * cap``, not unbounded.
        """
        self.occupancy_samples = deque(self.occupancy_samples, maxlen=cap)
        self.pacing_delays = deque(self.pacing_delays, maxlen=cap)


class Pacer(abc.ABC):
    """Base class: FIFO media queue + priority retransmission queue.

    Subclasses implement :meth:`_next_send_delay`, returning how long to
    wait before the head packet may be released (0 = immediately), and
    may state the same policy over a whole train (:meth:`release_train`).

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
        self._pump_event: Optional["ScheduledCall"] = None
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
        now = self.loop.now
        for packet in packets:
            packet.t_enqueue_pacer = now
            self._media_queue.append(packet)
            self._queued_bytes += packet.size_bytes
            self.stats.enqueued_packets += 1
            self.stats.enqueued_bytes += packet.size_bytes
        self.stats.occupancy_samples.append((now, self._queued_bytes))
        self._schedule_pump(0.0)

    def enqueue_retransmission(self, packet: Packet) -> None:
        """Queue a retransmission ahead of fresh media (WebRTC priority)."""
        packet.t_enqueue_pacer = self.loop.now
        self._rtx_queue.append(packet)
        self._queued_bytes += packet.size_bytes
        self.stats.enqueued_packets += 1
        self.stats.enqueued_bytes += packet.size_bytes
        self._schedule_pump(0.0)

    def enqueue_audio(self, packet: Packet) -> None:
        """Queue an audio packet at strict top priority (WebRTC order:
        audio > retransmissions > video)."""
        packet.t_enqueue_pacer = self.loop.now
        self._audio_queue.append(packet)
        self._queued_bytes += packet.size_bytes
        self.stats.enqueued_packets += 1
        self.stats.enqueued_bytes += packet.size_bytes
        self._schedule_pump(0.0)

    #: floor on positive pump delays — waits shorter than a microsecond
    #: cannot reliably advance the float clock and would spin the loop.
    MIN_PUMP_DELAY_S = 1e-6

    def cancel_pump(self) -> None:
        """Cancel any pending pump timer (live-session teardown).

        A non-empty pacer otherwise keeps rescheduling its pump forever
        on a wall clock — harmless when ``asyncio.run`` exits right
        after a single session, a timer leak under a long-running
        multi-session supervisor. Never called on the sim path.
        """
        if self._pump_event is not None:
            self._pump_event.cancel()
            self._pump_event = None

    def _schedule_pump(self, delay: float) -> None:
        if delay > 0:
            delay = max(delay, self.MIN_PUMP_DELAY_S)
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
            delay = self._next_send_delay(head)
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
        enq = packet.t_enqueue_pacer
        if enq is not None:
            stats.pacing_delays.append(now - enq)
        stats.occupancy_samples.append((now, queued))
        self.on_send(packet)
        self.send_fn(packet)

    def on_send(self, packet: Packet) -> None:
        """Hook for subclasses (e.g. token accounting)."""

    @abc.abstractmethod
    def _next_send_delay(self, packet: Packet) -> float:
        """Seconds until ``packet`` may be released (0 = now)."""

    def release_train(self, sizes, cum, floor: float, target: float):
        """Optional closed form of the pump over a queued media train.

        ``sizes``/``cum`` are the arrays of packet sizes and cumulative
        bytes of the train at the head of the media queue, ``floor`` the
        earliest instant anything may leave (the clock, or the last
        release if later). Returns the array of release times of the
        packets that leave by ``target`` — a prefix, possibly empty — and
        commits them: the policy's own state is left as
        :meth:`_next_send_delay` + :meth:`on_send` would have left it,
        packet by packet. ``None`` (the default) states no closed form;
        the batch engine then runs the session on the reference loop.
        """
        return None

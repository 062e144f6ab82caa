"""End-to-end network path: propagation + bottleneck + feedback channel.

``NetworkPath`` composes the pieces Mahimahi emulates in the paper's
testbed: a fixed one-way propagation delay in each direction, a trace-
driven bottleneck with a drop-tail queue on the forward (video)
direction, and an uncongested reverse path for feedback. Optional random
loss can be injected for robustness tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.net.link import DEFAULT_QUEUE_CAPACITY_BYTES, Link
from repro.net.packet import Packet
from repro.net.trace import BandwidthTrace
from repro.sim.events import EventLoop
from repro.sim.rng import RngStream


@dataclass
class PathConfig:
    """Configuration of a :class:`NetworkPath`.

    ``base_rtt`` is the two-way propagation delay with empty queues; the
    paper's production measurements put the median at ~29 ms (19.6 ms
    same-region), and its emulations sweep 10–160 ms.
    """

    base_rtt: float = 0.03
    queue_capacity_bytes: int = DEFAULT_QUEUE_CAPACITY_BYTES
    random_loss_rate: float = 0.0
    #: Contention loss on congested shared media (weak-network venues):
    #: long back-to-back packet trains hog airtime and collide with
    #: competing stations, so the per-packet loss probability ramps up
    #: with the length of the burst train (zero for paced traffic).
    contention_loss_rate: float = 0.0
    #: gap below which consecutive sends count as the same burst train.
    burst_gap_s: float = 0.001
    #: train length (packets) at which contention loss saturates.
    contention_train_packets: int = 50
    #: per-packet one-way delay jitter (std-dev, seconds) added on the
    #: forward path — wireless MAC scheduling noise. Zero disables it.
    delay_jitter_std: float = 0.0

    @property
    def one_way_delay(self) -> float:
        return self.base_rtt / 2


class NetworkPath:
    """Sender-side handle on the emulated network.

    Usage: the sender calls :meth:`send`; the path runs the packet
    through propagation and the bottleneck and invokes ``on_arrival`` at
    the receiver. The receiver calls :meth:`send_feedback` to return a
    feedback message, which invokes ``on_feedback`` at the sender after
    the reverse propagation delay (feedback is assumed small and is not
    queued, as in the paper's downlink-only emulation).
    """

    def __init__(self, loop: EventLoop, trace: BandwidthTrace,
                 config: Optional[PathConfig] = None,
                 rng: Optional[RngStream] = None,
                 discipline=None) -> None:
        self.loop = loop
        self.config = config or PathConfig()
        self.rng = rng
        self.on_arrival: Optional[Callable[[Packet], None]] = None
        self.on_feedback: Optional[Callable[[object], None]] = None
        self.on_drop: Optional[Callable[[Packet], None]] = None
        self.link = Link(
            loop,
            trace,
            queue_capacity_bytes=self.config.queue_capacity_bytes,
            on_deliver=self._delivered_by_link,
            on_drop=self._dropped_by_link,
            discipline=discipline,
        )
        self.lost_packets: list[Packet] = []
        #: When set, every packet handed to :meth:`send` is routed to
        #: this callable instead of the event-loop propagation chain.
        #: The batch engine installs its pipeline here; ``None`` (the
        #: default) keeps the reference discrete-event behaviour.
        self.intercept: Optional[Callable[[Packet], None]] = None
        self._last_send_time: Optional[float] = None
        self._train_length = 0
        # Hot-path precomputation: PathConfig is immutable for the life
        # of a session, so the per-packet lookups are hoisted here.
        cfg = self.config
        self._half_hop = cfg.one_way_delay / 2
        self._one_way = cfg.one_way_delay
        self._lossy = (self.rng is not None
                       and (cfg.random_loss_rate > 0
                            or cfg.contention_loss_rate > 0))
        self._jitter_enabled = cfg.delay_jitter_std > 0 and self.rng is not None
        self._jitter_std = cfg.delay_jitter_std
        # A lone drop-tail hop then a fixed half-hop needs no event at
        # departure (Link goes closed-form). Jitter draws from the path
        # RNG at the departure instant, so it keeps the serve event.
        if not self._jitter_enabled:
            self.link.depart_at_enqueue(lead=self._half_hop)

    # ------------------------------------------------------------------
    # forward direction (sender -> receiver)
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Inject a packet at the sender's NIC."""
        if self.intercept is not None:
            self.intercept(packet)
            return
        if self._lossy and (self._random_loss() or self._contention_loss()):
            packet.dropped = True
            self.lost_packets.append(packet)
            if self.on_drop is not None:
                self.on_drop(packet)
            return
        # Propagate to the bottleneck (half the one-way budget), then
        # serialize, then propagate the rest of the way.
        self.loop.post(self.loop.now + self._half_hop, self.link.send, packet,
                       "path.to-bottleneck")

    def _random_loss(self) -> bool:
        rate = self.config.random_loss_rate
        return bool(rate > 0 and self.rng is not None and self.rng.random() < rate)

    def _contention_loss(self) -> bool:
        """Collision probability rising with the current burst train."""
        cfg = self.config
        now = self.loop.now
        if (self._last_send_time is not None
                and now - self._last_send_time < cfg.burst_gap_s):
            self._train_length += 1
        else:
            self._train_length = 0
        self._last_send_time = now
        if cfg.contention_loss_rate <= 0 or self.rng is None:
            return False
        ramp = min(1.0, self._train_length / cfg.contention_train_packets)
        return self.rng.random() < cfg.contention_loss_rate * ramp

    def _delivered_by_link(self, packet: Packet) -> None:
        """``t_leave_queue`` is now (evented) or still ahead (closed-form)."""
        delay = self._half_hop
        if self._jitter_enabled:
            delay += abs(self.rng.normal(0.0, self._jitter_std))
        self.loop.post(packet.t_leave_queue + delay, self._arrive, packet,
                       "path.to-receiver")

    def _arrive(self, packet: Packet) -> None:
        packet.t_arrival = self.loop.now
        if self.on_arrival is not None:
            self.on_arrival(packet)

    def _dropped_by_link(self, packet: Packet) -> None:
        self.lost_packets.append(packet)
        if self.on_drop is not None:
            self.on_drop(packet)

    # ------------------------------------------------------------------
    # reverse direction (receiver -> sender)
    # ------------------------------------------------------------------
    def send_feedback(self, message: object) -> None:
        """Deliver a feedback message to the sender after propagation."""
        self.loop.post(self.loop.now + self._one_way, self._feedback_arrives,
                       message, "path.feedback")

    def _feedback_arrives(self, message: object) -> None:
        if self.on_feedback is not None:
            self.on_feedback(message)

    @property
    def reverse_delay_estimate(self) -> float:
        """One-way feedback-path delay (the Transport-surface estimate)."""
        return self.config.one_way_delay

    # ------------------------------------------------------------------
    # observability (used by benches and calibration tests)
    # ------------------------------------------------------------------
    @property
    def queue_bytes(self) -> int:
        """Ground-truth bottleneck queue occupancy (oracle; sim-only)."""
        return self.link.queued_bytes

    @property
    def rate_now(self) -> float:
        return self.link.rate_now

"""End-to-end network path: propagation + bottleneck + feedback channel.

``NetworkPath`` composes the pieces Mahimahi emulates in the paper's
testbed: a fixed one-way propagation delay in each direction, a trace-
driven bottleneck with a drop-tail queue on the forward (video)
direction, and an uncongested reverse path for feedback. Optional random
and contention loss ahead of the bottleneck, and per-packet delay jitter
after it, model the paper's weak-network venues.

A lone bottleneck spends no event of its own (DESIGN §6): ``send``
offers each packet at release to a drop-tail link's ``DropTailServer``
or to a folded PIE/Confucius link, so a packet costs the pacer's pump
and the hop to the receiver (a jittered path: one more, at departure).

The path runs on any clock with ``now`` and ``post``: the simulator's
:class:`~repro.sim.events.EventLoop`, or a live session's
:class:`~repro.live.clock.WallClock`, where ``on_arrival`` and
``on_feedback`` hand each packet and message to a UDP socket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.net.link import DEFAULT_QUEUE_CAPACITY_BYTES, Link
from repro.net.packet import Packet
from repro.net.trace import BandwidthTrace
from repro.sim.events import EventLoop
from repro.sim.rng import RngStream


#: gap below which consecutive sends count as the same burst train
#: (contention loss).
BURST_GAP_S = 0.001
#: train length (packets) at which contention loss saturates.
CONTENTION_TRAIN_PACKETS = 50


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
    #: per-packet one-way delay jitter (std-dev, seconds) added on the
    #: forward path — wireless MAC scheduling noise, ``|N(0, std)|``
    #: drawn as the packet leaves the bottleneck. Zero disables it.
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
        #: packets lost on the path so far (ingress loss and link drops;
        #: ``on_drop`` sees each one, the path keeps none of them).
        self.lost_packets = 0
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
        # A lone router needs no serve event: send() offers the packet
        # half a hop ahead, and the departure goes straight to the
        # receiver hop, or, for the jitter draw, to one at the departure.
        self.link.depart_at_enqueue(self._half_hop, (
            (0.0, "path.departure", self._delivered_by_link)
            if self._jitter_enabled
            else (self._half_hop, "path.to-receiver", self._arrive)))

    # ------------------------------------------------------------------
    # forward direction (sender -> receiver)
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Inject a packet at the sender's NIC."""
        if self.intercept is not None:
            self.intercept(packet)
            return
        if self._lossy and self._lost_at_ingress(packet):
            return
        # Propagate to the bottleneck (half the one-way budget), then
        # serialize, then propagate the rest of the way.
        loop = self.loop
        half_hop = self._half_hop
        arrival = loop.now + half_hop
        link = self.link
        server = link.server
        if server is None:
            if link.lead is None:
                loop.post(arrival, link.send, packet, "path.to-bottleneck")
            else:
                link.send(packet, arrival)
            return
        # Closed form: the path is the server's only feeder, so it is
        # asked now, half a hop ahead of the arrival (DESIGN §6); a drop
        # still reaches the loss path at the arrival instant, and a
        # jitter draw is still made at the departure instant.
        packet.t_enter_queue = arrival
        finish = server.offer(arrival, packet.size_bytes, half_hop)
        if finish is None:
            loop.post(arrival, link.report_drop, packet, "path.to-bottleneck")
            return
        packet.t_leave_queue = finish
        if self._jitter_enabled:
            loop.post(finish, self._delivered_by_link, packet,
                      "path.departure")
            return
        loop.post(finish + half_hop, self._arrive, packet, "path.to-receiver")

    def _lost_at_ingress(self, packet: Packet) -> bool:
        """Book a random or contention loss ahead of the bottleneck and
        say so; ``send`` (here and in the arena) asks only when
        ``_lossy``, so a loss-free send pays no call.

        Random loss draws first; only a packet it spares reaches the
        contention model, whose probability rises with the current burst
        train (tracked only when that model is on, its only reader)."""
        cfg = self.config
        rate = cfg.random_loss_rate
        if not (rate > 0 and self.rng.random() < rate):
            rate = cfg.contention_loss_rate
            if rate <= 0:
                return False
            now = self.loop.now
            last = self._last_send_time
            if last is not None and now - last < BURST_GAP_S:
                self._train_length += 1
            else:
                self._train_length = 0
            self._last_send_time = now
            ramp = min(1.0, self._train_length / CONTENTION_TRAIN_PACKETS)
            if not self.rng.random() < rate * ramp:
                return False
        packet.dropped = True
        self.lost_packets += 1
        if self.on_drop is not None:
            self.on_drop(packet)
        return True

    def _delivered_by_link(self, packet: Packet) -> None:
        """``packet`` has left the bottleneck, ``t_leave_queue`` is now:
        the evented link (or the last router of a chain) served it, or a
        jittered closed-form path's departure hop fired."""
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
        self.lost_packets += 1
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

"""In-process network impairment for live loopback sessions.

CI-class machines have no ``tc``/``netem`` and no Mahimahi, so a live
session shapes its own traffic: before a media datagram reaches the
socket, the shim decides *when* it is allowed onto the wire (trace-
driven serialization behind a drop-tail queue, plus propagation delay)
or that it is dropped (queue overflow or random loss). The bottleneck
is the simulator's, ledger and all: a
:class:`repro.net.link.DropTailServer`, the object a closed-form
:class:`repro.net.link.Link` runs, fed at wall-clock arrival times, and
the path adds :class:`repro.net.path.NetworkPath`'s propagation:

    depart = server.offer(now, size)        # None: tail drop
    sendto time = depart + one-way delay

The reverse (feedback) path is uncongested and only pays propagation,
exactly like the paper's downlink-only Mahimahi emulation.

Everything is computed from the configured :class:`BandwidthTrace`, so
a live run can be compared against a simulation of the same trace.
"""

from __future__ import annotations

from typing import Optional

from repro.net.link import DropTailServer, LinkStats
from repro.net.path import PathConfig
from repro.net.trace import BandwidthTrace
from repro.sim.rng import RngStream


class LoopbackImpairment:
    """Per-datagram verdicts for the forward (media) direction.

    ``admit(size, now)`` returns the total delay (seconds) after which
    the datagram should be handed to the socket, or ``None`` when the
    datagram is dropped. ``config`` is the session's
    :class:`~repro.net.path.PathConfig`, of which the shim applies
    ``base_rtt``, ``queue_capacity_bytes`` and ``random_loss_rate``
    (i.i.d., before queueing). ``trace=None`` means an unshaped path:
    only propagation delay applies (the loopback interface itself is
    treated as infinitely fast).
    """

    def __init__(self, config: PathConfig,
                 trace: Optional[BandwidthTrace] = None,
                 rng: Optional[RngStream] = None) -> None:
        self.config = config
        self.rng = rng
        self.dropped = 0
        self.delivered = 0
        #: the emulated bottleneck (None: unshaped path).
        self.server = None if trace is None else DropTailServer(
            trace, config.queue_capacity_bytes, LinkStats())

    # ------------------------------------------------------------------
    # forward path
    # ------------------------------------------------------------------
    def admit(self, size_bytes: int, now: float) -> Optional[float]:
        """Delay before the datagram may hit the socket; None = dropped."""
        if (self.rng is not None and self.config.random_loss_rate > 0
                and self.rng.random() < self.config.random_loss_rate):
            self.dropped += 1
            return None
        if self.server is None:
            self.delivered += 1
            return self.config.one_way_delay
        depart = self.server.offer(now, size_bytes)
        if depart is None:
            self.dropped += 1
            return None
        self.delivered += 1
        return (depart - now) + self.config.one_way_delay

    # ------------------------------------------------------------------
    # reverse path
    # ------------------------------------------------------------------
    @property
    def feedback_delay(self) -> float:
        """Propagation-only delay for the uncongested reverse path."""
        return self.config.one_way_delay

    @property
    def queued_bytes(self) -> int:
        """Virtual bottleneck queue occupancy as of the last datagram
        (diagnostics)."""
        return 0 if self.server is None else self.server.queued_bytes

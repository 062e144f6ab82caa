"""Trace-driven bottleneck link with a pluggable queue discipline.

This mirrors the Mahimahi configuration in the paper's testbed: the
receiver's downlink is a variable-rate bottleneck with a drop-tail queue
of fixed byte capacity (100 KB in all experiments). Packets serialize at
the instantaneous trace rate; when the queue is full, arrivals are
dropped from the tail.

The queue is a :class:`~repro.net.aqm.QueueDiscipline`; the link learns
when a packet leaves it in one of two ways (DESIGN §3b):

* **evented** — one ``link.serve`` event per packet, the queue driven
  through the generic ``enqueue``/``select_head``/``pop_head`` protocol;
  the selected packet stays queued while it serializes, so occupancy
  accounting is discipline-independent. Any discipline, any caller.
* **closed-form** — a drop-tail FIFO server fixes a departure the moment
  it accepts the packet (:func:`serve`: ``start = max(arrival, previous
  finish)``, ``finish = start + 8·size/rate(start)``): :meth:`Link.send`
  stamps it, schedules nothing, and *retires* due departures into the
  counters at the next arrival or state read — bit-identical to the
  evented link.
  :class:`~repro.net.path.NetworkPath` selects it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.net.aqm import DEFAULT_QUEUE_CAPACITY_BYTES, DropTailQueue, \
    QueueDiscipline
from repro.net.packet import Packet
from repro.net.trace import BandwidthTrace
from repro.sim.events import EventLoop

__all__ = ["DEFAULT_QUEUE_CAPACITY_BYTES", "DropTailQueue", "Link",
           "LinkStats", "serve"]


@dataclass
class LinkStats:
    """Counters and samples collected by a :class:`Link`."""

    enqueued_packets: int = 0
    delivered_packets: int = 0
    dropped_packets: int = 0
    enqueued_bytes: int = 0
    delivered_bytes: int = 0
    dropped_bytes: int = 0
    busy_time: float = 0.0
    #: (time, queue_bytes) samples taken at every enqueue/dequeue.
    occupancy_samples: list[tuple[float, int]] = field(default_factory=list)

    @property
    def drop_rate(self) -> float:
        total = self.enqueued_packets + self.dropped_packets
        return self.dropped_packets / total if total else 0.0


def serve(free_at: float, arrival: float, size: int,
          rate_at: Callable[[float], float]) -> tuple[float, float]:
    """The drop-tail FIFO server's law: ``(start, finish)`` of a packet of
    ``size`` bytes accepted at ``arrival`` by a link busy until ``free_at``.

    These are the float operations of ``_start_service``/``_retry_service``
    run at enqueue: service starts when the packet is there and the link
    is free, an outage is stepped like the 50 ms retry events, and the
    packet serializes at the trace rate of its service start. Every
    walker of the bottleneck asks here — :meth:`Link.send`, the batch
    engine's scalar lane, the live impairment shim — and keeps its own
    accounting.
    """
    start = arrival if arrival > free_at else free_at
    rate = rate_at(start)
    while rate <= 0:
        start += 0.05
        rate = rate_at(start)
        if start > arrival + 1e5:   # the events would spin until the horizon
            raise RuntimeError("link outage outlasts 1e5 s: no departure")
    return start, start + size * 8 / rate


class Link:
    """Single-server bottleneck: serialize packets at the trace rate.

    ``on_deliver(packet)`` fires when a packet finishes serialization
    (closed-form: at enqueue, with ``t_leave_queue`` still ahead);
    ``on_drop(packet)`` fires on any queue drop (tail drop, AQM early
    drop, or in-queue eviction). The serialization time of a packet is
    computed from the trace rate at service start — fine at the paper's
    200 ms trace granularity, where thousands of packets share each rate
    sample. ``discipline`` plugs in a non-default queue discipline.
    ``stats``, ``queue`` and ``queued_*`` answer as of ``loop.now``.
    """

    def __init__(self, loop: EventLoop, trace: BandwidthTrace,
                 queue_capacity_bytes: int = DEFAULT_QUEUE_CAPACITY_BYTES,
                 on_deliver: Optional[Callable[[Packet], None]] = None,
                 on_drop: Optional[Callable[[Packet], None]] = None,
                 discipline: Optional[QueueDiscipline] = None) -> None:
        self.loop = loop
        self.trace = trace
        self._queue = (discipline if discipline is not None
                       else DropTailQueue(queue_capacity_bytes))
        self._queue.drop_hook = self._dropped_in_queue
        self._fast_droptail = type(self._queue) is DropTailQueue
        self.on_deliver = on_deliver
        self.on_drop = on_drop
        self._stats = LinkStats()
        self._busy = False
        self._service_started_at = 0.0
        #: closed-form: (start, finish) per queued packet; None = evented.
        self._departures: Optional[deque[tuple[float, float]]] = None
        self._free_at = self._lead = 0.0    # last finish; feeder's lead
        # Hot-path bound-method caches (one lookup per packet otherwise).
        self._rate_at = trace.rate_at
        self._occupancy = self._stats.occupancy_samples

    def depart_at_enqueue(self, lead: float) -> None:
        """Go closed-form (plain drop-tail only) for the one feeder that
        posts arrivals ``lead`` s ahead and needs no event at departure."""
        if self._fast_droptail and not len(self._queue):
            self._departures, self._lead = deque(), lead

    def depart_by_event(self) -> None:
        """Back to ``link.serve`` events (per-packet observers, chains)."""
        if self._departures:
            raise RuntimeError("link has closed-form departures in flight")
        self._departures = None

    def settle(self) -> None:
        """Closed-form: account every departure due by ``loop.now``."""
        if self._departures:
            self._retire(self.loop.now, 0.0)

    @property
    def stats(self) -> LinkStats:
        self.settle()
        return self._stats

    @property
    def queue(self) -> QueueDiscipline:
        self.settle()
        return self._queue

    @property
    def rate_now(self) -> float:
        """Instantaneous link rate in bits/second."""
        return self.trace.rate_at(self.loop.now)

    @property
    def queued_bytes(self) -> int:
        return self.queue.bytes_queued

    @property
    def queued_packets(self) -> int:
        return len(self.queue)

    def send(self, packet: Packet) -> bool:
        """Offer ``packet`` to the link; returns False if dropped on arrival."""
        now = self.loop.now
        packet.t_enter_queue = now
        stats = self._stats
        size = packet.size_bytes
        queue = self._queue
        departures = self._departures
        if departures is None:
            accepted = queue.enqueue(packet, now)
            queued = queue.bytes_queued
        else:
            if departures and departures[0][1] <= now:
                self._retire(now, self._lead)
            queued = queue._bytes + size
            accepted = queued <= queue.capacity_bytes
        if not accepted:
            packet.dropped = True
            stats.dropped_packets += 1
            stats.dropped_bytes += size
            if self.on_drop is not None:
                self.on_drop(packet)
            return False
        stats.enqueued_packets += 1
        stats.enqueued_bytes += size
        self._occupancy.append((now, queued))
        if departures is None:
            if not self._busy:
                self._start_service()
            return True
        queue._queue.append(packet)
        queue._bytes = queued
        departure = serve(self._free_at, now, size, self._rate_at)
        self._free_at = packet.t_leave_queue = departure[1]
        departures.append(departure)
        self.on_deliver(packet)
        return True

    def _retire(self, now: float, lead: float) -> None:
        """Pop every packet whose service ended by ``now``, writing the
        rows and counters ``_finish_service`` would have, in its order.
        Tie with the arrival at ``now``: the serve event was numbered at
        service start, the arrival hop at ``now - lead``; the lower number
        fires first, so the departure precedes iff ``start + lead <= now``
        (reads pass ``lead=0``: all that is due has left)."""
        departures = self._departures
        queue = self._queue
        stats = self._stats
        while departures:
            start, finish = departures[0]
            if finish > now or (finish == now and start + lead > now):
                break
            departures.popleft()
            stats.delivered_packets += 1
            stats.delivered_bytes += queue.pop().size_bytes
            stats.busy_time += finish - start
            self._occupancy.append((finish, queue._bytes))

    def _dropped_in_queue(self, packet: Packet) -> None:
        """A discipline dropped/evicted a packet it had already queued."""
        packet.dropped = True
        stats = self._stats
        stats.dropped_packets += 1
        stats.dropped_bytes += packet.size_bytes
        self._occupancy.append((self.loop.now, self._queue.bytes_queued))
        if self.on_drop is not None:
            self.on_drop(packet)

    def _start_service(self) -> None:
        now = self.loop.now
        packet = self._queue.select_head(now)
        if packet is None:
            self._busy = False
            return
        self._busy = True
        rate = self._rate_at(now)
        if rate <= 0:
            # Outage: retry when the next trace sample may have capacity.
            self.loop.call_later(0.05, self._retry_service, name="link.outage-retry")
            return
        self._service_started_at = now
        self.loop.post(now + packet.size_bytes * 8 / rate,
                       self._finish_service, packet, "link.serve")

    def _retry_service(self) -> None:
        self._busy = False
        if len(self._queue):
            self._start_service()

    def _finish_service(self, packet: Packet) -> None:
        queue = self._queue
        queue.pop_head()        # == packet: the head select_head() chose
        now = self.loop.now
        packet.t_leave_queue = now
        stats = self._stats
        stats.delivered_packets += 1
        stats.delivered_bytes += packet.size_bytes
        stats.busy_time += now - self._service_started_at
        self._occupancy.append((now, queue.bytes_queued))
        if self.on_deliver is not None:
            self.on_deliver(packet)
        if len(queue):
            self._start_service()
        else:
            self._busy = False

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of elapsed time the link spent serializing packets."""
        elapsed = horizon if horizon is not None else self.loop.now
        return self.stats.busy_time / elapsed if elapsed > 0 else 0.0

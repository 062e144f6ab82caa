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
* **closed-form** — a drop-tail FIFO fixes a departure the moment it
  accepts the packet, so the whole bottleneck is a clock-free
  :class:`DropTailServer`: what has left by an instant, whether an
  arrival fits, when it departs, what a reader at an instant sees.
  :class:`~repro.net.path.NetworkPath` selects it and, as the link's
  only feeder, offers each packet when the pacer releases it, half a
  hop ahead of its arrival, and schedules only the hop to the receiver
  — bit-identical to the evented link. :meth:`Link.send` offers at the
  clock.

The server is the one statement of drop-tail admission and retirement.
It has three feeders: the reference loop's path, the batch engine, which
offers whole trains to the session's own ``link.server`` ahead of the
clock, and the live impairment shim. However far ahead it is fed, the
link's reads (``stats``, ``queued_*``) answer as of ``loop.now``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Optional

import numpy as np

from repro.net.aqm import DEFAULT_QUEUE_CAPACITY_BYTES, DropTailQueue, \
    QueueDiscipline
from repro.net.packet import Packet
from repro.net.trace import BandwidthTrace
from repro.sim.events import EventLoop

__all__ = ["DEFAULT_QUEUE_CAPACITY_BYTES", "DropTailQueue", "DropTailServer",
           "Link", "LinkStats", "serve"]


@dataclass
class LinkStats:
    """Counters collected by a :class:`Link`."""

    enqueued_packets: int = 0
    delivered_packets: int = 0
    dropped_packets: int = 0
    enqueued_bytes: int = 0
    delivered_bytes: int = 0
    dropped_bytes: int = 0


def serve(free_at: float, arrival: float, size: int,
          rate_at: Callable[[float], float]) -> tuple[float, float]:
    """The drop-tail FIFO server's law: ``(start, finish)`` of a packet of
    ``size`` bytes accepted at ``arrival`` by a link busy until ``free_at``.

    These are the float operations of ``_start_service``/``_retry_service``
    run at enqueue: service starts when the packet is there and the link
    is free, an outage is stepped like the 50 ms retry events, and the
    packet serializes at the trace rate of its service start.
    """
    start = arrival if arrival > free_at else free_at
    rate = rate_at(start)
    while rate <= 0:
        start += 0.05
        rate = rate_at(start)
        if start > arrival + 1e5:   # the events would spin until the horizon
            raise RuntimeError("link outage outlasts 1e5 s: no departure")
    return start, start + size * 8 / rate


class DropTailServer:
    """Clock-free drop-tail FIFO bottleneck in closed form.

    Owns what every walker of the bottleneck needs — busy-until, queued
    bytes and the ledger of packets accepted and not yet departed — and
    states each rule once: :meth:`retire` (what has left), :meth:`offer`
    (does one packet fit; when does it leave), :meth:`offer_train` (the
    same for a whole train, up to its first tail drop) and
    :meth:`books_at` (what a reader at an instant sees). It reads no
    clock: a feeder passes arrival times, nondecreasing, each with the
    ``lead`` it posts the arrival ahead of its own clock. ``stats`` is
    the raw books — ``enqueued_*`` and ``dropped_*`` booked as the server
    decides, ahead of every reader; :meth:`books_at` is the view as of
    an instant, ``delivered_*`` included.
    """

    __slots__ = ("trace", "rate_at", "capacity", "stats", "busy_until",
                 "queued_bytes", "_ledger", "_due", "_drops")

    def __init__(self, trace: BandwidthTrace, capacity: int,
                 stats: LinkStats) -> None:
        self.trace = trace
        self.rate_at = trace.rate_at
        self.capacity = capacity
        self.stats = stats
        #: finish time of the last accepted packet.
        self.busy_until = 0.0
        #: bytes queued at the frontier, the latest arrival offered.
        self.queued_bytes = 0
        #: FIFO of accepted packets: ``(arrival, start, finish, size)``
        #: for one offered alone, ``[arrivals, finishes, finish, cum_bytes,
        #: pos]`` per train (``finish`` its last, ``pos`` how many of it
        #: have left by the frontier): ``[2]`` is when a record has left.
        self._ledger: deque = deque()
        #: records at the ledger's head that have wholly left by the
        #: frontier, kept while a reader behind it may still find them.
        self._due = 0
        #: ``(arrival, size)`` of tail drops, kept as long as records are.
        self._drops: deque = deque()

    def retire(self, now: float, lead: float = 0.0) -> None:
        """Move the frontier to ``now``: an arrival its feeder posted
        ``lead`` seconds ahead of its own clock.

        Every packet whose service ended by ``now`` leaves the queue. A
        finish at exactly ``now`` ties with the arrival: on an event loop
        the serve event was numbered at service start and the arrival
        hop ``lead`` seconds before ``now``; the lower number fires
        first, so the departure precedes iff ``start + lead <= now``. A
        feeder that posts at the arrival itself (``Link.send``, the live
        shim) passes ``lead=0``: all that is due has left — the only rule
        a train record, which keeps no starts, has.

        A record leaves the ledger once it left before the feeder's clock
        (``finish + lead < now``; rounding cannot make that true for a
        finish at or after the clock): a reader, who reads at or after
        the clock, can no longer find it queued.
        """
        ledger = self._ledger
        due = self._due
        queued = self.queued_bytes
        while queued:               # so ledger[due] is still queued
            head = ledger[due]
            if type(head) is tuple:
                finish = head[2]
                if finish > now or (finish == now and head[1] + lead > now):
                    break
                queued -= head[3]
                due += 1
                continue
            _arrivals, finishes, last, cum_bytes, pos = head
            k = (len(finishes) if last <= now
                 else int(np.searchsorted(finishes, now, side="right")))
            if k > pos:
                queued -= int(cum_bytes[k - 1]) - (
                    int(cum_bytes[pos - 1]) if pos else 0)
                head[4] = k
                if k == len(finishes):
                    due += 1
                    continue
            break
        self.queued_bytes = queued
        while due and ledger[0][2] + lead < now:
            ledger.popleft()
            due -= 1
        self._due = due
        drops = self._drops
        while drops and drops[0][0] + lead < now:
            drops.popleft()

    def offer(self, arrival: float, size: int,
              lead: float = 0.0) -> Optional[float]:
        """One packet at ``arrival``, posted ``lead`` s ahead of its
        feeder's clock: its finish time, or None — a tail drop, booked
        here, for the feeder to report. An exact fit is admitted."""
        if self._ledger:
            self.retire(arrival, lead)
        queued = self.queued_bytes + size
        stats = self.stats
        if queued > self.capacity:
            stats.dropped_packets += 1
            stats.dropped_bytes += size
            self._drops.append((arrival, size))
            return None
        start, finish = serve(self.busy_until, arrival, size, self.rate_at)
        self.busy_until = finish
        self.queued_bytes = queued
        self._ledger.append((arrival, start, finish, size))
        stats.enqueued_packets += 1
        stats.enqueued_bytes += size
        return finish

    def offer_train(self, arrivals: np.ndarray, sizes: np.ndarray,
                    cum_bytes: np.ndarray, lead: float = 0.0) -> np.ndarray:
        """A train in one piece: finish times of the packets ahead of its
        first tail drop, accepted and booked. The rest — the whole train
        in an outage, or when one trace-rate sample does not cover those
        service starts — is the feeder's to :meth:`offer` one by one,
        which makes every drop decision. ``arrivals`` are nondecreasing
        and posted ``lead`` s ahead of the feeder's clock; ``cum_bytes``
        is the running sum of ``sizes``.
        """
        arrival0 = float(arrivals[0])
        self.retire(arrival0, lead)
        busy = self.busy_until
        start0 = arrival0 if arrival0 > busy else busy
        rate = self.rate_at(start0)
        if rate <= 0.0:
            return arrivals[:0]
        # Lindley-recursion finish times at this one rate sample.
        ser = sizes * (8.0 / rate)
        cs = np.cumsum(ser)
        base = arrivals - cs
        base += ser
        if busy > base[0]:
            base[0] = busy
        finishes = np.maximum.accumulate(base)
        finishes += cs
        # No drop is possible even if nothing drains while the whole
        # train enters — skip the occupancy scan.
        k = (len(sizes) if self.queued_bytes + cum_bytes[-1] <= self.capacity
             else self._first_drop(arrivals, finishes, cum_bytes))
        if k and (float(finishes[k - 1]) - float(ser[k - 1])
                  >= self.trace.next_change_after(start0)):
            k = 0       # rate change before the last service start
        finishes = finishes[:k]
        if k:
            prefix_bytes = int(cum_bytes[k - 1])
            self.busy_until = float(finishes[-1])
            self.queued_bytes += prefix_bytes
            self._ledger.append([arrivals[:k], finishes, self.busy_until,
                                 cum_bytes[:k], 0])
            self.stats.enqueued_packets += k
            self.stats.enqueued_bytes += prefix_bytes
        return finishes

    def _first_drop(self, arrivals: np.ndarray, finishes: np.ndarray,
                    cum_bytes: np.ndarray) -> int:
        """Index of the train's first tail drop (``len(arrivals)`` if none).

        Packet ``i`` meets the bytes queued at ``arrivals[0]`` plus the
        train's bytes ahead of it, less what has finished by
        ``arrivals[i]`` — own packets and older ledger records alike,
        ``finish <= arrival`` counting as gone (:meth:`retire`'s rule at
        ``lead=0``); every term is integer-valued. That takes packets
        ``< i`` as admitted, true up to and including the first drop, and
        ``finishes[j]`` depends only on packets ``<= j``: the prefix
        before that index is exact.
        """
        old_f, old_cum = [], [0.0]
        for record in islice(self._ledger, self._due, None):
            if type(record) is tuple:
                old_f.append(record[2])
                old_cum.append(old_cum[-1] + record[3])
            else:
                _ra, rf, _last, rcum, pos = record
                rcum = rcum[pos:] + (
                    old_cum[-1] - (rcum[pos - 1] if pos else 0.0))
                old_f += rf[pos:].tolist()
                old_cum += rcum.tolist()
        left = (np.concatenate(([0.0], cum_bytes))[
                    np.searchsorted(finishes, arrivals, side="right")]
                + np.array(old_cum)[
                    np.searchsorted(old_f, arrivals, side="right")])
        over = np.flatnonzero(
            self.queued_bytes + cum_bytes - left > self.capacity)
        return int(over[0]) if len(over) else len(arrivals)

    def books_at(self, now: float) -> tuple[LinkStats, int, int]:
        """``(stats, queued packets, queued bytes)`` as a reader at
        ``now`` — at or after the feeder's clock — sees them.

        A packet is in the queue from its arrival (``arrival <= now``)
        until its finish (``finish <= now`` has left, :meth:`retire`'s
        rule at ``lead=0``). What the feeder offered ahead of ``now`` —
        an arrival or a tail drop not reached yet — is not in the books.
        A drop-tail queue loses nothing it accepted, so ``delivered =
        enqueued - queued``.
        """
        raw = self.stats
        enq_p, enq_b = raw.enqueued_packets, raw.enqueued_bytes
        drop_p, drop_b = raw.dropped_packets, raw.dropped_bytes
        queued_p = queued_b = 0
        for record in self._ledger:
            if type(record) is tuple:
                arrival, _start, finish, size = record
                if arrival > now:
                    enq_p -= 1
                    enq_b -= size
                elif finish > now:
                    queued_p += 1
                    queued_b += size
                continue
            arrivals, finishes, _last, cum_bytes, _pos = record
            a = int(np.searchsorted(arrivals, now, side="right"))
            f = int(np.searchsorted(finishes, now, side="right"))
            arrived = int(cum_bytes[a - 1]) if a else 0
            enq_p -= len(arrivals) - a
            enq_b -= int(cum_bytes[-1]) - arrived
            queued_p += a - f
            queued_b += arrived - (int(cum_bytes[f - 1]) if f else 0)
        for arrival, size in self._drops:
            if arrival > now:
                drop_p -= 1
                drop_b -= size
        stats = LinkStats(
            enqueued_packets=enq_p, delivered_packets=enq_p - queued_p,
            dropped_packets=drop_p, enqueued_bytes=enq_b,
            delivered_bytes=enq_b - queued_b, dropped_bytes=drop_b)
        return stats, queued_p, queued_b


class Link:
    """Single-server bottleneck: serialize packets at the trace rate.

    ``on_deliver(packet)`` fires when a packet finishes serialization
    (closed-form: at enqueue, with ``t_leave_queue`` still ahead);
    ``on_drop(packet)`` fires on any queue drop (tail drop, AQM early
    drop, or in-queue eviction). The serialization time of a packet is
    computed from the trace rate at service start — fine at the paper's
    200 ms trace granularity, where thousands of packets share each rate
    sample. ``discipline`` plugs in a non-default queue discipline.
    ``stats`` and ``queued_*`` answer as of ``loop.now``; ``server`` is
    the closed form (``None`` while evented), and while it is there it —
    not ``queue``, which then only names the discipline and its capacity
    — holds the queued packets, and may be fed ahead of the clock
    (:class:`~repro.net.path.NetworkPath` offers each packet at release).
    """

    def __init__(self, loop: EventLoop, trace: BandwidthTrace,
                 queue_capacity_bytes: int = DEFAULT_QUEUE_CAPACITY_BYTES,
                 on_deliver: Optional[Callable[[Packet], None]] = None,
                 on_drop: Optional[Callable[[Packet], None]] = None,
                 discipline: Optional[QueueDiscipline] = None) -> None:
        self.loop = loop
        self.trace = trace
        self.queue = (discipline if discipline is not None
                      else DropTailQueue(queue_capacity_bytes))
        self.queue.drop_hook = self._dropped_in_queue
        self.on_deliver = on_deliver
        self.on_drop = on_drop
        self._stats = LinkStats()
        self._busy = False
        self.server: Optional[DropTailServer] = None
        self._rate_at = trace.rate_at   # hot-path bound-method cache

    def depart_at_enqueue(self) -> None:
        """Go closed-form (plain drop-tail only): each feeder's offer
        fixes the departure and no event fires at it."""
        if (self.server is None and type(self.queue) is DropTailQueue
                and not len(self.queue)):
            self.server = DropTailServer(
                self.trace, self.queue.capacity_bytes, self._stats)

    def depart_by_event(self) -> None:
        """Back to ``link.serve`` events (per-packet observers, chains)."""
        server = self.server
        if server is not None:
            stats = self.stats      # the books as of now
            raw = server.stats
            if (stats.delivered_packets != raw.enqueued_packets
                    or stats.dropped_packets != raw.dropped_packets):
                raise RuntimeError("link has closed-form departures in flight")
            self._stats = stats
            self.server = None

    @property
    def stats(self) -> LinkStats:
        server = self.server
        if server is None:
            return self._stats
        return server.books_at(self.loop.now)[0]

    @property
    def rate_now(self) -> float:
        """Instantaneous link rate in bits/second."""
        return self.trace.rate_at(self.loop.now)

    @property
    def queued_bytes(self) -> int:
        server = self.server
        if server is None:
            return self.queue.bytes_queued
        return server.books_at(self.loop.now)[2]

    @property
    def queued_packets(self) -> int:
        server = self.server
        if server is None:
            return len(self.queue)
        return server.books_at(self.loop.now)[1]

    def send(self, packet: Packet) -> bool:
        """Offer ``packet`` to the link; returns False if dropped on arrival."""
        now = self.loop.now
        packet.t_enter_queue = now
        server = self.server
        if server is not None:
            finish = server.offer(now, packet.size_bytes)
            if finish is None:
                self.report_drop(packet)
                return False
            packet.t_leave_queue = finish
            self.on_deliver(packet)
            return True
        if not self.queue.enqueue(packet, now):
            self._dropped_in_queue(packet)
            return False
        stats = self._stats
        stats.enqueued_packets += 1
        stats.enqueued_bytes += packet.size_bytes
        if not self._busy:
            self._start_service()
        return True

    def report_drop(self, packet: Packet) -> None:
        """A drop the books already hold reaches ``packet``: mark it and
        tell ``on_drop`` (the path posts a closed-form tail drop here at
        its arrival instant)."""
        packet.dropped = True
        if self.on_drop is not None:
            self.on_drop(packet)

    def _dropped_in_queue(self, packet: Packet) -> None:
        """The discipline refused ``packet`` on arrival, or dropped/evicted
        one it had already queued."""
        stats = self._stats
        stats.dropped_packets += 1
        stats.dropped_bytes += packet.size_bytes
        self.report_drop(packet)

    def _start_service(self) -> None:
        now = self.loop.now
        packet = self.queue.select_head(now)
        if packet is None:
            self._busy = False
            return
        self._busy = True
        rate = self._rate_at(now)
        if rate <= 0:
            # Outage: retry when the next trace sample may have capacity.
            self.loop.call_later(0.05, self._retry_service, name="link.outage-retry")
            return
        self.loop.post(now + packet.size_bytes * 8 / rate,
                       self._finish_service, packet, "link.serve")

    def _retry_service(self) -> None:
        self._busy = False
        if len(self.queue):
            self._start_service()

    def _finish_service(self, packet: Packet) -> None:
        queue = self.queue
        queue.pop_head()        # == packet: the head select_head() chose
        packet.t_leave_queue = self.loop.now
        stats = self._stats
        stats.delivered_packets += 1
        stats.delivered_bytes += packet.size_bytes
        if self.on_deliver is not None:
            self.on_deliver(packet)
        if len(queue):
            self._start_service()
        else:
            self._busy = False

"""Competing web-like cross traffic and the page-load-time fairness metric.

The paper loads Alexa Top-100 pages through Chrome while the RTC flow
runs, and measures fairness as the page load time of those competing
streams (Fig. 24). We model a page load as a burst of objects fetched
over a TCP-like flow sharing the same bottleneck: each object is a train
of packets injected with a simple AIMD window so the flow backs off when
its packets are dropped. The metric is the time from page start to the
arrival of its last packet.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.net.packet import Packet, PacketType
from repro.sim.events import EventLoop
from repro.sim.rng import RngStream

_flow_ids = itertools.count(1000)


@dataclass
class PageLoadRecord:
    """Outcome of one emulated page load."""

    flow_id: int
    start_time: float
    finish_time: Optional[float] = None
    total_bytes: int = 0
    packets: int = 0
    lost_packets: int = 0

    @property
    def load_time(self) -> Optional[float]:
        if self.finish_time is None:
            return None
        return self.finish_time - self.start_time


class CrossTrafficFlow:
    """A single AIMD page-load flow sharing the bottleneck.

    The flow injects packets through ``send_fn`` (typically
    ``NetworkPath.send``), receives per-packet delivery/drop callbacks,
    and finishes when all its bytes have arrived.
    """

    def __init__(self, loop: EventLoop, send_fn: Callable[[Packet], None],
                 page_bytes: int, rtt_estimate: float = 0.05,
                 packet_size: int = 1200,
                 on_finish: Optional[Callable[[PageLoadRecord], None]] = None) -> None:
        self.loop = loop
        self.send_fn = send_fn
        self.packet_size = packet_size
        self.flow_id = next(_flow_ids)
        self.rtt_estimate = rtt_estimate
        self.on_finish = on_finish
        self.record = PageLoadRecord(
            flow_id=self.flow_id, start_time=loop.now, total_bytes=page_bytes
        )
        self._remaining_packets = max(1, page_bytes // packet_size)
        self._acked_packets = 0
        self._total_packets = self._remaining_packets
        self._cwnd = 4.0
        self._in_flight = 0
        self._done = False

    def start(self) -> None:
        self._pump()

    def _pump(self, _posted: None = None) -> None:
        while (not self._done and self._remaining_packets > 0
               and self._in_flight < int(self._cwnd)):
            packet = Packet(
                size_bytes=self.packet_size,
                ptype=PacketType.CROSS,
                flow_id=self.flow_id,
            )
            self._remaining_packets -= 1
            self._in_flight += 1
            self.record.packets += 1
            self.send_fn(packet)

    def on_delivered(self, packet: Packet) -> None:
        """Call when one of this flow's packets arrives at the receiver."""
        if packet.flow_id != self.flow_id or self._done:
            return
        self._in_flight -= 1
        self._acked_packets += 1
        self._cwnd += 1.0 / max(self._cwnd, 1.0)  # additive increase
        if self._acked_packets >= self._total_packets:
            self._finish()
        else:
            # Pace the next window on the ack clock.
            self.loop.post(self.loop.now, self._pump, None, "cross.pump")

    def on_dropped(self, packet: Packet) -> None:
        """Call when one of this flow's packets is tail-dropped."""
        if packet.flow_id != self.flow_id or self._done:
            return
        self._in_flight -= 1
        self.record.lost_packets += 1
        self._cwnd = max(2.0, self._cwnd / 2)  # multiplicative decrease
        # Retransmit after an RTO-ish delay.
        self._remaining_packets += 1
        self._total_packets += 1
        self._acked_packets += 1  # account original as handled; rtx is a new packet
        self.loop.call_later(self.rtt_estimate, self._pump, name="cross.rto")

    def _finish(self) -> None:
        self._done = True
        self.record.finish_time = self.loop.now
        if self.on_finish is not None:
            self.on_finish(self.record)


class PageLoadGenerator:
    """Spawns page loads at random intervals for the fairness experiment.

    Page sizes follow a lognormal fit of web-page weights (median ~2 MB);
    inter-arrival is exponential.
    """

    MEDIAN_PAGE_MB = 2.0

    def __init__(self, loop: EventLoop, send_fn: Callable[[Packet], None],
                 rng: RngStream, mean_interarrival: float = 8.0,
                 rtt_estimate: float = 0.05) -> None:
        self.loop = loop
        self.send_fn = send_fn
        self.rng = rng
        self.mean_interarrival = mean_interarrival
        self.rtt_estimate = rtt_estimate
        self.records: list[PageLoadRecord] = []
        self._flows: dict[int, CrossTrafficFlow] = {}
        self._stopped = False

    def start(self) -> None:
        self._schedule_next()

    def stop(self) -> None:
        self._stopped = True

    def _schedule_next(self) -> None:
        if self._stopped:
            return
        delay = self.rng.exponential(self.mean_interarrival)
        self.loop.call_later(delay, self._spawn, name="cross.spawn")

    def _spawn(self) -> None:
        if self._stopped:
            return
        page_bytes = int(self.MEDIAN_PAGE_MB * 1e6 * self.rng.lognormal(0.0, 0.5))
        page_bytes = max(100_000, min(page_bytes, 20_000_000))
        flow = CrossTrafficFlow(
            self.loop, self.send_fn, page_bytes,
            rtt_estimate=self.rtt_estimate,
            on_finish=self._flow_finished,
        )
        self._flows[flow.flow_id] = flow
        flow.start()
        self._schedule_next()

    def _flow_finished(self, record: PageLoadRecord) -> None:
        self.records.append(record)
        self._flows.pop(record.flow_id, None)

    # --- plumbing for the path callbacks -------------------------------
    def on_delivered(self, packet: Packet) -> None:
        flow = self._flows.get(packet.flow_id)
        if flow is not None:
            flow.on_delivered(packet)

    def on_dropped(self, packet: Packet) -> None:
        flow = self._flows.get(packet.flow_id)
        if flow is not None:
            flow.on_dropped(packet)

    def completed_load_times(self) -> list[float]:
        return [r.load_time for r in self.records if r.load_time is not None]

"""In-network queue estimation from RTT and PacketPair capacity.

ACE-N cannot see the bottleneck buffer; it infers it (§4.1): queueing
delay is the standing RTT above the minimum (the Copa-style estimator),
and queue *size* is that delay multiplied by the bottleneck capacity,
with capacity from the PacketPair algorithm.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.net.packet_pair import PacketPairEstimator
from repro.transport.feedback import FeedbackMessage, ReportBatch


@dataclass
class QueueEstimate:
    """One queue-size estimate with its ingredients."""

    time: float
    queue_bytes: float
    queue_delay: float
    capacity_bps: Optional[float]
    rtt_standing: Optional[float]
    rtt_min: Optional[float]


def _push_columns(window: tuple[list[float], list[float]],
                  arrivals: np.ndarray, values: np.ndarray) -> None:
    """Bulk twin of the scalar lane's pop-then-append: sequential pushes
    leave the held entries below the batch minimum, then the strict
    suffix minima of the new samples — one cut, one extend per list."""
    at, held = window
    sfx_min = np.minimum.accumulate(values[::-1])[::-1]
    keep = np.empty(len(values), dtype=bool)
    keep[-1] = True
    np.less(values[:-1], sfx_min[1:], out=keep[:-1])
    k = bisect_left(held, float(sfx_min[0]))
    del at[k:], held[k:]
    at.extend(arrivals[keep].tolist())
    held.extend(values[keep].tolist())


class QueueEstimator:
    """Tracks RTT_min / standing RTT and converts delay to queued bytes.

    One-way feedback only carries (send, arrival) pairs; adding the
    (known, fixed) reverse propagation gives an RTT-equivalent signal.
    The *standing* RTT is the minimum over a short recent window — robust
    to jitter while still tracking queue build-up (Copa's trick).
    """

    def __init__(self, standing_window_s: float = 0.1,
                 default_capacity_bps: float = 10_000_000.0) -> None:
        self.standing_window_s = standing_window_s
        self.default_capacity_bps = default_capacity_bps
        self.packet_pair = PacketPairEstimator()
        self._rtt_min: Optional[float] = None
        # Monotonic windows, each a pair of parallel plain lists
        # (arrivals, values), both ascending: _standing holds strictly
        # increasing rtts (front = window min), _peaks strictly
        # increasing *negated* rtts (front = minus the window max), so
        # one bulk push serves both. Plain lists let the columnar lane
        # cut and trim by bisection and extend in bulk while the scalar
        # lane pops and appends with no numpy call; min/max are
        # order-exact, so the O(1) queries equal a window scan bit for bit.
        self._standing: tuple[list[float], list[float]] = ([], [])
        self._peaks: tuple[list[float], list[float]] = ([], [])

    # ------------------------------------------------------------------
    # signal ingestion
    # ------------------------------------------------------------------
    def on_feedback(self, message: FeedbackMessage, now: float,
                    reverse_delay: float = 0.0) -> None:
        """Feed a transport feedback batch (reports in arrival order)."""
        # The receiver appends reports as packets arrive, so the batch is
        # already sorted by arrival time — no re-sort needed.
        reports = message.reports
        if reports.arrays:
            self._on_feedback_arrays(reports, now, reverse_delay)
            return
        rtt_min = self._rtt_min
        standing_at, standing_rtt = self._standing
        peaks_at, peaks_neg = self._peaks
        pp_on_packet = self.packet_pair.on_packet
        for send, arrival, size in zip(reports.send_times,
                                       reports.arrival_times, reports.sizes):
            rtt = arrival - send + reverse_delay
            if rtt <= 0:
                continue
            if rtt_min is None or rtt < rtt_min:
                rtt_min = rtt
            while standing_rtt and standing_rtt[-1] >= rtt:
                standing_rtt.pop()
                standing_at.pop()
            standing_rtt.append(rtt)
            standing_at.append(arrival)
            neg = -rtt
            while peaks_neg and peaks_neg[-1] >= neg:
                peaks_neg.pop()
                peaks_at.pop()
            peaks_neg.append(neg)
            peaks_at.append(arrival)
            pp_on_packet(send, arrival, size)
        self._rtt_min = rtt_min
        self._trim(now - self.standing_window_s)

    def _trim(self, horizon: float) -> None:
        """Age out the samples that arrived before ``horizon``."""
        for at, values in (self._standing, self._peaks):
            k = bisect_left(at, horizon)
            if k:
                del at[:k], values[:k]

    def _on_feedback_arrays(self, reports: ReportBatch, now: float,
                            reverse_delay: float) -> None:
        """Array twin of the per-report ingestion loop."""
        arrivals = reports.arrival_times
        if len(arrivals):
            rtts = arrivals - reports.send_times + reverse_delay
            low = float(rtts.min())
            sends = reports.send_times
            sizes = reports.sizes
            if low <= 0.0:
                # Rare: non-positive samples only appear with degenerate
                # timestamps; filter them exactly as the scalar loop does.
                mask = rtts > 0
                arrivals = arrivals[mask]
                rtts = rtts[mask]
                sends = sends[mask]
                sizes = sizes[mask]
                low = float(rtts.min()) if len(rtts) else 0.0
            if len(rtts):
                if self._rtt_min is None or low < self._rtt_min:
                    self._rtt_min = low
                _push_columns(self._standing, arrivals, rtts)
                _push_columns(self._peaks, arrivals, -rtts)
                self.packet_pair.on_packet_arrays(sends, arrivals, sizes)
        self._trim(now - self.standing_window_s)

    # ------------------------------------------------------------------
    # estimates
    # ------------------------------------------------------------------
    @property
    def rtt_min(self) -> Optional[float]:
        return self._rtt_min

    def rtt_standing(self) -> Optional[float]:
        """Minimum RTT over the recent window (filters out jitter spikes)."""
        rtts = self._standing[1]
        return rtts[0] if rtts else None

    def capacity_bps(self) -> float:
        """PacketPair capacity, falling back to a configured default."""
        cap = self.packet_pair.capacity_bps()
        return cap if cap is not None else self.default_capacity_bps

    def queue_delay(self) -> float:
        """Estimated queueing delay: standing RTT minus RTT_min."""
        standing = self.rtt_standing()
        if standing is None or self._rtt_min is None:
            return 0.0
        return max(0.0, standing - self._rtt_min)

    def estimate(self, now: float) -> QueueEstimate:
        """The in-network queue estimate as of ``now`` (pure read)."""
        delay = self.queue_delay()
        cap_raw = self.packet_pair.capacity_bps()
        capacity = cap_raw if cap_raw is not None else self.default_capacity_bps
        return QueueEstimate(
            time=now, queue_bytes=delay * capacity / 8.0, queue_delay=delay,
            capacity_bps=cap_raw,
            rtt_standing=self.rtt_standing(), rtt_min=self._rtt_min,
        )

    def peak_queue_bytes(self) -> float:
        """Peak queue estimate over the recent window (max RTT based).

        The standing (min-filtered) estimate deliberately ignores
        transient spikes; the *peak* is what matters when remembering the
        queue level that preceded a loss — at overflow time the queue was
        near the buffer limit, which only the max-RTT view captures.
        """
        if not self._peaks[1] or self._rtt_min is None:
            return 0.0
        peak_rtt = -self._peaks[1][0]
        delay = max(0.0, peak_rtt - self._rtt_min)
        return delay * self.capacity_bps() / 8.0

    def queue_is_empty(self) -> bool:
        """True when the standing RTT has returned to the propagation floor.

        Requires *evidence*: with no RTT samples in the recent window
        (feedback silence, or every sample aged out) the buffer state is
        unknown, not empty — answering True on silence would let ACE-N's
        fast recovery fire with zero signal.
        """
        standing = self.rtt_standing()
        if standing is None or self._rtt_min is None:
            return False
        # Within half a serialization-ish jitter margin of the floor.
        return (standing - self._rtt_min) < 0.002

"""In-network queue estimation from RTT and PacketPair capacity.

ACE-N cannot see the bottleneck buffer; it infers it (§4.1): queueing
delay is the standing RTT above the minimum (the Copa-style estimator),
and queue *size* is that delay multiplied by the bottleneck capacity,
with capacity from the PacketPair algorithm.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

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


def _extrema(rtts) -> tuple[float, float]:
    """(min, max) of a non-empty RTT column, in either form."""
    if type(rtts) is list:
        return min(rtts), max(rtts)
    return float(rtts.min()), float(rtts.max())


class QueueEstimator:
    """Tracks RTT_min / standing RTT and converts delay to queued bytes.

    One-way feedback only carries (send, arrival) pairs; adding the
    (known, fixed) reverse propagation gives an RTT-equivalent signal.
    The *standing* RTT is the minimum over a short recent window — robust
    to jitter while still tracking queue build-up (Copa's trick).
    """

    #: span of the standing-RTT minimum (seconds).
    STANDING_WINDOW_S = 0.1
    #: capacity assumed until packet pairs give a measurement.
    DEFAULT_CAPACITY_BPS = 10_000_000.0

    def __init__(self) -> None:
        self.packet_pair = PacketPairEstimator()
        self._rtt_min: Optional[float] = None
        # The window's positive RTT samples, one (arrivals, rtts, min,
        # max) segment per feedback interval, oldest first, each in its
        # interval's report form. Min and max are order-exact, so the
        # window's extrema, taken over a few segment extrema, equal a
        # scan of its samples bit for bit.
        self._window: Deque[tuple] = deque()

    # ------------------------------------------------------------------
    # signal ingestion
    # ------------------------------------------------------------------
    def on_feedback(self, message: FeedbackMessage, now: float,
                    reverse_delay: float = 0.0) -> None:
        """Feed a transport feedback batch (reports in arrival order)."""
        reports = message.reports
        rtts = reports.rtts(reverse_delay)  # shared with the RTT observer
        if len(rtts):
            self._add_segment(reports, rtts)
        self._age_out(now - self.STANDING_WINDOW_S)

    def _add_segment(self, reports: ReportBatch, rtts) -> None:
        columns = (reports.send_times, reports.arrival_times, reports.sizes)
        low, high = _extrema(rtts)
        if low <= 0.0:
            # Rare: only degenerate timestamps give non-positive samples,
            # which are no RTT and no PacketPair observation.
            keep = np.asarray(rtts) > 0
            if not keep.any():
                return
            rtts, *columns = (np.asarray(column)[keep]
                              for column in (rtts, *columns))
            if not reports.arrays:
                rtts, *columns = (column.tolist()
                                  for column in (rtts, *columns))
            low = _extrema(rtts)[0]
        if self._rtt_min is None or low < self._rtt_min:
            self._rtt_min = low
        pair = self.packet_pair
        (pair.on_arrays if reports.arrays else pair.on_lists)(*columns)
        self._window.append((columns[1], rtts, low, high))

    def _age_out(self, horizon: float) -> None:
        """Drop the samples that arrived before ``horizon``: whole
        segments, then the head segment's prefix."""
        window = self._window
        while window and window[0][0][-1] < horizon:
            window.popleft()
        if window and window[0][0][0] < horizon:
            arrivals, rtts, _low, _high = window[0]
            k = (bisect_left(arrivals, horizon) if type(arrivals) is list
                 else int(arrivals.searchsorted(horizon)))
            window[0] = (arrivals[k:], rtts[k:], *_extrema(rtts[k:]))

    # ------------------------------------------------------------------
    # estimates
    # ------------------------------------------------------------------
    @property
    def rtt_min(self) -> Optional[float]:
        return self._rtt_min

    def rtt_standing(self) -> Optional[float]:
        """Minimum RTT over the recent window (filters out jitter spikes)."""
        window = self._window
        return min([segment[2] for segment in window]) if window else None

    def capacity_bps(self) -> float:
        """PacketPair capacity, falling back to a configured default."""
        cap = self.packet_pair.capacity_bps()
        return cap if cap is not None else self.DEFAULT_CAPACITY_BPS

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
        capacity = cap_raw if cap_raw is not None else self.DEFAULT_CAPACITY_BPS
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
        window = self._window
        if not window or self._rtt_min is None:
            return 0.0
        peak_rtt = max([segment[3] for segment in window])
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

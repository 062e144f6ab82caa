"""Delivery-rate congestion controller (Salsify / production-engine style).

Salsify's transport and the paper's production cloud-gaming engine do
not run GCC; they estimate available bandwidth directly from the rate at
which packets reach the receiver (Salsify: mean inter-arrival over the
last frame group; WebRTC's REMB era worked similarly). This controller
keeps bursty senders functional where GCC's delay-gradient detector
would spiral down: BWE tracks an EWMA of the delivered rate with a small
headroom, and backs off multiplicatively only on significant loss.
"""

from __future__ import annotations

from typing import Optional

from repro.transport.cc.base import CongestionController
from repro.transport.feedback import FeedbackMessage, pylist


class DeliveryRateController(CongestionController):
    """BWE = headroom x EWMA(delivered rate), loss-backed-off."""

    #: weight of the newest delivered-rate sample in its EWMA.
    EWMA_ALPHA = 0.3
    #: interval loss rate above which the estimate backs off.
    LOSS_BACKOFF_THRESHOLD = 0.05
    #: per-feedback growth while the delivered rate keeps up.
    PROBE_FACTOR = 1.02

    def __init__(self, initial_bwe_bps: float = 2_000_000.0,
                 headroom: float = 1.15,
                 delay_brake_s: float = 0.08, **kwargs) -> None:
        super().__init__(initial_bwe_bps=initial_bwe_bps, **kwargs)
        self.headroom = headroom
        #: one-way-delay excess over the floor that triggers a backoff —
        #: the engine's delay awareness (production CCAs for cloud
        #: gaming are latency-sensitive, not pure throughput trackers).
        self.delay_brake_s = delay_brake_s
        self._rate_ewma: Optional[float] = None
        self._owd_min: Optional[float] = None
        self._last_feedback_at: Optional[float] = None
        self._last_cumulative_lost = 0

    def on_feedback(self, message: FeedbackMessage, now: float) -> None:
        loss_rate = self._interval_loss(message)
        owd_excess = self._observe_delay(message)
        if self._last_feedback_at is not None and message.reports:
            interval = max(now - self._last_feedback_at, 1e-3)
            rate = message.reports.total_bytes * 8 / interval
            if self._rate_ewma is None:
                self._rate_ewma = rate
            else:
                self._rate_ewma = (self.EWMA_ALPHA * rate
                                   + (1 - self.EWMA_ALPHA) * self._rate_ewma)
        self._last_feedback_at = now
        if self._rate_ewma is None:
            return
        if loss_rate > self.LOSS_BACKOFF_THRESHOLD:
            self._set_bwe(self._rate_ewma * (1.0 - loss_rate), now,
                          "loss-backoff", loss_rate)
        elif owd_excess > self.delay_brake_s:
            # Queue building: hold below the delivered rate to drain it.
            self._set_bwe(min(self.bwe_bps, self._rate_ewma * 0.9), now,
                          "delay-brake", owd_excess)
        else:
            # Probe slightly above what is being delivered; the sender is
            # app-limited most of the time, so delivered ~= sent and the
            # probe factor is what discovers spare capacity.
            target = max(self._rate_ewma * self.headroom,
                         self.bwe_bps * self.PROBE_FACTOR)
            self._set_bwe(min(target, self._rate_ewma * 2.0 + 100_000), now,
                          "probe", self._rate_ewma)

    def _observe_delay(self, message: FeedbackMessage) -> float:
        """Median one-way delay of this batch, relative to the floor."""
        if not message.reports:
            return 0.0
        reports = message.reports
        owds = sorted(arrival - send for send, arrival in zip(
            pylist(reports.send_times), pylist(reports.arrival_times)))
        median = owds[len(owds) // 2]
        if self._owd_min is None or median < self._owd_min:
            self._owd_min = median
        return median - self._owd_min

    def _interval_loss(self, message: FeedbackMessage) -> float:
        # delivered + newly-lost denominator (see GccController: a
        # seq-span denominator misreads retransmission-heavy intervals).
        lost = message.cumulative_lost - self._last_cumulative_lost
        self._last_cumulative_lost = message.cumulative_lost
        accounted = len(message.reports) + max(lost, 0)
        if accounted <= 0:
            return 0.0
        return min(max(lost / accounted, 0.0), 1.0)

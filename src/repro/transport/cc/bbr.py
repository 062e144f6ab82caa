"""Simplified BBR controller (WebRTC legacy-codebase flavour).

The paper evaluates ACE over WebRTC's legacy BBR as well as GCC
(Fig. 21). This model keeps BBR's essential machinery: a windowed-max
delivery-rate filter for bottleneck bandwidth, a windowed-min RTT
filter, and the ProbeBW gain cycle that alternately probes above the
estimate and drains the queue it created.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.transport.cc.base import CongestionController
from repro.transport.feedback import FeedbackMessage

#: ProbeBW pacing-gain cycle (standard BBR).
PROBE_GAIN_CYCLE = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]


class BbrController(CongestionController):
    """Delivery-rate-max BBR with a ProbeBW gain cycle."""

    #: span of the max-filter over delivery-rate samples (seconds).
    BW_WINDOW_S = 10.0
    #: time spent in each phase of the gain cycle (seconds).
    CYCLE_INTERVAL_S = 0.2

    def __init__(self, initial_bwe_bps: float = 2_000_000.0,
                 **kwargs) -> None:
        super().__init__(initial_bwe_bps=initial_bwe_bps, **kwargs)
        self._rate_samples: Deque[tuple[float, float]] = deque()
        self._last_feedback_at: Optional[float] = None
        self._cycle_index = 0
        self._cycle_started_at: Optional[float] = None
        self._startup = True

    @property
    def pacing_gain(self) -> float:
        if self._startup:
            return 2.0
        return PROBE_GAIN_CYCLE[self._cycle_index]

    def on_feedback(self, message: FeedbackMessage, now: float) -> None:
        self._advance_cycle(now)
        if self._last_feedback_at is not None and message.reports:
            interval = max(now - self._last_feedback_at, 1e-3)
            delivery_rate = message.reports.total_bytes * 8 / interval
            self._rate_samples.append((now, delivery_rate))
        self._last_feedback_at = now
        horizon = now - self.BW_WINDOW_S
        while self._rate_samples and self._rate_samples[0][0] < horizon:
            self._rate_samples.popleft()
        if not self._rate_samples:
            return
        btl_bw = max(rate for _, rate in self._rate_samples)
        if self._startup and len(self._rate_samples) >= 8:
            recent = [rate for _, rate in list(self._rate_samples)[-4:]]
            older = [rate for _, rate in list(self._rate_samples)[-8:-4]]
            if max(recent) < 1.25 * max(older):
                self._startup = False  # bandwidth plateau -> leave startup
        self._set_bwe(btl_bw * self.pacing_gain, now,
                      "startup" if self._startup else "probe-bw", btl_bw)

    def _advance_cycle(self, now: float) -> None:
        if self._startup:
            return
        if self._cycle_started_at is None:
            self._cycle_started_at = now
            return
        if now - self._cycle_started_at >= self.CYCLE_INTERVAL_S:
            self._cycle_index = (self._cycle_index + 1) % len(PROBE_GAIN_CYCLE)
            self._cycle_started_at = now

"""Copa-style delay-based congestion controller.

The paper's queue estimator is "inspired by Copa" (§4.1), and Copa is
cited among the low-latency CCAs whose conservatism creates the
headroom ACE exploits. This controller brings that family into the
registry so ACE can be evaluated over a third CCA besides GCC/BBR.

Core Copa idea (Arun & Balakrishnan, NSDI'18), adapted to the
rate-based RTC sender: maintain a target rate

    rate = delta_inverse / queueing_delay

where queueing delay is the standing RTT above the minimum. When the
current rate is below target, increase; above, decrease — with velocity
doubling on consecutive same-direction moves. ``1/delta`` expresses the
latency-throughput tradeoff (larger = more aggressive).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.transport.cc.base import CongestionController
from repro.transport.feedback import FeedbackMessage, pylist


class CopaController(CongestionController):
    """Rate-based Copa: chase delta_inverse / standing-queue-delay."""

    def __init__(self, initial_bwe_bps: float = 2_000_000.0,
                 delta: float = 0.5, standing_window_s: float = 0.2,
                 packet_bits: float = 1200 * 8, **kwargs) -> None:
        super().__init__(initial_bwe_bps=initial_bwe_bps, **kwargs)
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.delta = delta
        self.standing_window_s = standing_window_s
        self.packet_bits = packet_bits
        self._recent_rtts: Deque[tuple[float, float]] = deque()
        self._velocity = 1.0
        self._last_direction = 0
        self._reverse_delay = 0.0
        self._last_cumulative_lost = 0

    def observe_reverse_delay(self, reverse_delay: float) -> None:
        """The pipeline reports the (known) feedback-path delay."""
        self._reverse_delay = reverse_delay

    # ------------------------------------------------------------------
    def on_feedback(self, message: FeedbackMessage, now: float) -> None:
        # Loss backoff: Copa is delay-led, but sustained loss (a shallow
        # buffer hiding the delay signal) still demands a cut.
        lost = message.cumulative_lost - self._last_cumulative_lost
        self._last_cumulative_lost = message.cumulative_lost
        accounted = len(message.reports) + max(lost, 0)
        if accounted > 0 and lost / accounted > 0.05:
            self._velocity = 1.0
            self._last_direction = -1
            self._set_bwe(self.bwe_bps * (1.0 - lost / accounted), now,
                          "loss-backoff", lost / accounted)
        reports = message.reports
        for send, arrival in zip(pylist(reports.send_times),
                                 pylist(reports.arrival_times)):
            rtt = arrival - send + self._reverse_delay
            if rtt <= 0:
                continue
            self.observe_rtt(rtt)
            self._recent_rtts.append((arrival, rtt))
        horizon = now - self.standing_window_s
        while self._recent_rtts and self._recent_rtts[0][0] < horizon:
            self._recent_rtts.popleft()
        if not self._recent_rtts or self.rtt_min is None:
            return
        standing = min(rtt for _, rtt in self._recent_rtts)
        queue_delay = max(standing - self.rtt_min, 1e-4)
        target = (self.packet_bits / self.delta) / queue_delay
        self._steer_toward(target, now)

    def _steer_toward(self, target_bps: float, now: float) -> None:
        rtt = self.rtt_last if self.rtt_last else 0.05
        # per-feedback step ~ velocity packets per RTT
        step = self._velocity * self.packet_bits / rtt * 0.05
        direction = 1 if self.bwe_bps < target_bps else -1
        if direction == self._last_direction:
            self._velocity = min(self._velocity * 2.0, 32.0)
        else:
            self._velocity = 1.0
        self._last_direction = direction
        self._set_bwe(self.bwe_bps + direction * step, now,
                      "steer-up" if direction > 0 else "steer-down", target_bps)

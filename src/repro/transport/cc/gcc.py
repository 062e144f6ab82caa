"""Google Congestion Control (GCC) — delay-trendline + loss controller.

A faithful-in-structure reimplementation of WebRTC's send-side GCC:

* Packets are grouped into bursts by send time; each feedback batch
  yields inter-group one-way-delay deltas.
* A trendline estimator regresses smoothed accumulated delay against
  arrival time over a window; the slope, scaled by a gain, is compared
  with an adaptive threshold (overuse detector) to classify the network
  as underusing / normal / overusing.
* An AIMD rate controller multiplicatively backs off on overuse and
  additively (near-multiplicatively) probes upward otherwise.
* A loss-based controller caps the delay-based estimate: >10% loss
  halves in, <2% allows growth (classic GCC thresholds).

The paper's §5.2 notes that ACE's bursts reduce the number of packet
*groups*, so it replaces the fixed-count trendline window with a
200 ms time window; this implementation supports both (``window_ms``
with ``time_windowed=True`` reproduces the ACE modification).
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

import numpy as np

from repro.transport.cc.base import CongestionController
from repro.transport.feedback import (FeedbackMessage, PacketReport,
                                      ReportBatch)

#: Packets sent within this gap belong to the same packet group (WebRTC
#: uses a 5 ms burst window).
GROUP_WINDOW_S = 0.005

#: C-level sort key for the per-feedback report sort (hot path).
_by_send_time = operator.attrgetter("send_time")


@dataclass(slots=True)
class _PacketGroup:
    first_send: float
    last_send: float
    first_arrival: float
    last_arrival: float
    size_bytes: int

    def absorb(self, report: PacketReport) -> None:
        send_time = report.send_time
        if send_time > self.last_send:
            self.last_send = send_time
        arrival_time = report.arrival_time
        if arrival_time > self.last_arrival:
            self.last_arrival = arrival_time
        self.size_bytes += report.size_bytes


class TrendlineEstimator:
    """Linear-regression slope of smoothed delay over a window."""

    def __init__(self, window_size: int = 40, window_ms: float = 200.0,
                 time_windowed: bool = False, smoothing: float = 0.9) -> None:
        self.window_size = window_size
        self.window_s = window_ms / 1000.0
        self.time_windowed = time_windowed
        self.smoothing = smoothing
        self._samples: Deque[tuple[float, float]] = deque()
        self._accumulated = 0.0
        self._smoothed = 0.0
        self._first_arrival: Optional[float] = None

    def update(self, delay_delta: float, arrival_time: float) -> Optional[float]:
        """Feed one inter-group delay delta; return the current slope."""
        if self._first_arrival is None:
            self._first_arrival = arrival_time
        self._accumulated += delay_delta
        self._smoothed = (self.smoothing * self._smoothed
                          + (1 - self.smoothing) * self._accumulated)
        self._samples.append((arrival_time - self._first_arrival, self._smoothed))
        if self.time_windowed:
            horizon = arrival_time - self._first_arrival - self.window_s
            while self._samples and self._samples[0][0] < horizon:
                self._samples.popleft()
        else:
            while len(self._samples) > self.window_size:
                self._samples.popleft()
        return self.slope()

    def slope(self) -> Optional[float]:
        n = len(self._samples)
        if n < 2:
            return None
        # Single-object iteration; accumulation order matches the
        # previous sum()-based version exactly (left to right).
        sum_x = 0.0
        sum_y = 0.0
        for x, y in self._samples:
            sum_x += x
            sum_y += y
        mean_x = sum_x / n
        mean_y = sum_y / n
        var_x = 0.0
        cov = 0.0
        for x, y in self._samples:
            dx = x - mean_x
            var_x += dx ** 2
            cov += dx * (y - mean_y)
        if var_x <= 1e-12:
            return None
        return cov / var_x


class OveruseDetector:
    """Adaptive-threshold comparator over the trendline signal.

    Constants follow WebRTC's overuse detector: the modified trend
    (slope x gain x sample count, dimensionless axes) is compared to a
    threshold starting at 12.5 that adapts between 6 and 600. A clean
    network produces |modified trend| well under 1; a queue ramp of tens
    of ms per second pushes it past the threshold.
    """

    def __init__(self, initial_threshold: float = 12.5,
                 k_up: float = 0.0087, k_down: float = 0.039,
                 overuse_time: float = 0.01) -> None:
        self.threshold = initial_threshold
        self.k_up = k_up
        self.k_down = k_down
        self.overuse_time = overuse_time
        self._overusing_since: Optional[float] = None
        self._last_update: Optional[float] = None

    def detect(self, modified_trend: float, now: float) -> str:
        """Classify as 'overuse' / 'underuse' / 'normal', adapting threshold."""
        state = "normal"
        if modified_trend > self.threshold:
            if self._overusing_since is None:
                self._overusing_since = now
            if now - self._overusing_since >= self.overuse_time:
                state = "overuse"
        else:
            self._overusing_since = None
            if modified_trend < -self.threshold:
                state = "underuse"
        self._adapt(modified_trend, now)
        return state

    def _adapt(self, modified_trend: float, now: float) -> None:
        if self._last_update is None:
            self._last_update = now
            return
        dt = min(now - self._last_update, 0.1)
        self._last_update = now
        k = self.k_down if abs(modified_trend) < self.threshold else self.k_up
        self.threshold += k * (abs(modified_trend) - self.threshold) * dt
        self.threshold = min(max(self.threshold, 6.0), 600.0)


class GccController(CongestionController):
    """Send-side GCC: delay-based AIMD capped by a loss controller."""

    def __init__(self, initial_bwe_bps: float = 2_000_000.0,
                 time_windowed_trendline: bool = False,
                 trendline_gain: float = 4.0,
                 beta: float = 0.85, increase_factor: float = 1.04,
                 **kwargs) -> None:
        super().__init__(initial_bwe_bps=initial_bwe_bps, **kwargs)
        self.trendline = TrendlineEstimator(time_windowed=time_windowed_trendline)
        self.detector = OveruseDetector()
        self.trendline_gain = trendline_gain
        self.beta = beta
        self.increase_factor = increase_factor
        self._current_group: Optional[_PacketGroup] = None
        self._prev_group: Optional[_PacketGroup] = None
        self._state = "increase"
        self._last_cumulative_lost = 0
        #: loss-based ceiling on the estimate (None = inactive).
        self._loss_limit: Optional[float] = None
        #: acked rate at the most recent overuse decrease — GCC's "link
        #: capacity" hint separating the multiplicative-growth region
        #: from careful additive probing near the known trouble zone.
        self._capacity_hint: Optional[float] = None
        #: recent acked throughput (bps), EWMA — bounds increases.
        self._acked_rate: Optional[float] = None
        self._last_feedback_at: Optional[float] = None

    # ------------------------------------------------------------------
    # feedback processing
    # ------------------------------------------------------------------
    def on_feedback(self, message: FeedbackMessage, now: float) -> None:
        self._update_acked_rate(message, now)
        loss_rate = self._interval_loss_rate(message)
        signal = self._delay_signal(message, now)
        self._apply_delay_control(signal, now)
        self._apply_loss_control(loss_rate, now)
        self._last_feedback_at = now

    def _update_acked_rate(self, message: FeedbackMessage, now: float) -> None:
        if self._last_feedback_at is None or not message.reports:
            return
        interval = max(now - self._last_feedback_at, 1e-3)
        rate = message.received_bytes * 8 / interval
        if self._acked_rate is None:
            self._acked_rate = rate
        else:
            # WebRTC's acknowledged-bitrate estimator smooths over
            # hundreds of ms; a twitchier average reads the lull between
            # frame bursts as a rate collapse and makes every overuse
            # decrease (beta x acked) cut far too deep for bursty senders.
            self._acked_rate = 0.15 * rate + 0.85 * self._acked_rate

    def _interval_loss_rate(self, message: FeedbackMessage) -> float:
        """Fraction lost of the packets accounted in this interval.

        The denominator is delivered + newly-lost (not a sequence-number
        span): during retransmission-heavy episodes most arrivals are
        RTX packets outside the original sequence space, and a
        span-based denominator reads a handful of fresh losses as ~100%
        loss — halving the estimate into the floor.
        """
        lost = message.cumulative_lost - self._last_cumulative_lost
        self._last_cumulative_lost = message.cumulative_lost
        accounted = len(message.reports) + max(lost, 0)
        if accounted <= 0:
            return 0.0
        return min(max(lost / accounted, 0.0), 1.0)

    def _delay_signal(self, message: FeedbackMessage, now: float) -> Optional[str]:
        """Group packets and run the trendline/overuse machinery."""
        reports = message.reports
        if type(reports) is ReportBatch:
            return self._delay_signal_arrays(reports, now)
        state: Optional[str] = None
        for report in sorted(reports, key=_by_send_time):
            group_complete = self._feed_group(report)
            if group_complete is None:
                continue
            prev, cur = group_complete
            # WebRTC's arrival-time filter uses the *first* packet of
            # each packet group (§5.2 of the paper) — the head of a burst
            # sees only the pre-existing queue, not the queue the burst
            # itself builds, so self-inflicted intra-frame queueing does
            # not read as congestion.
            send_delta = cur.first_send - prev.first_send
            arrival_delta = cur.first_arrival - prev.first_arrival
            delay_delta = arrival_delta - send_delta
            slope = self.trendline.update(delay_delta, cur.first_arrival)
            if slope is None:
                continue
            # WebRTC scaling: slope x gain x sample count (capped at 60).
            # The time-windowed variant (the paper's §5.2 fix) scales by
            # the window's *duration* expressed in nominal 5 ms groups:
            # bursty senders produce few groups, and a count-based
            # confidence term would leave the detector permanently
            # unconfident — the exact unresponsiveness the fix targets.
            if self.trendline.time_windowed:
                scale = min(60.0, self.trendline.window_s / GROUP_WINDOW_S)
            else:
                scale = min(len(self.trendline._samples), 60)
            modified = slope * self.trendline_gain * scale
            state = self.detector.detect(modified, now)
        return state

    def _delay_signal_arrays(self, reports: ReportBatch,
                             now: float) -> Optional[str]:
        """Column-oriented twin of the scalar grouping loop.

        Produces the same group boundaries, absorb results, and
        trendline/detector call sequence as feeding the materialized
        reports through ``_feed_group`` one at a time: groups are runs
        found with ``searchsorted`` on the same ``send - first_send``
        comparison the scalar path evaluates, and ``_current_group`` /
        ``_prev_group`` carry across messages exactly as before.
        """
        n = len(reports)
        if n == 0:
            return None
        s = reports.send_times
        a = reports.arrival_times
        sz = reports.sizes
        # Batch-engine chunks arrive in send order, so the stable argsort
        # is the identity almost always — skip the three fancy-index
        # copies unless an inversion actually exists.
        if n > 1 and bool((s[1:] < s[:-1]).any()):
            order = np.argsort(s, kind="stable")
            s = s[order]
            a = a[order]
            sz = sz[order]
        cur = self._current_group
        i = 0
        if cur is not None and float(s[0]) - cur.first_send <= GROUP_WINDOW_S:
            # Absorb the run that continues the carried group in one shot.
            deltas = s - cur.first_send
            i = int(deltas.searchsorted(GROUP_WINDOW_S, side="right"))
            last_send = float(s[i - 1])
            if last_send > cur.last_send:
                cur.last_send = last_send
            last_arrival = float(a[:i].max())
            if last_arrival > cur.last_arrival:
                cur.last_arrival = last_arrival
            cur.size_bytes += int(sz[:i].sum())
            if i == n:
                return None
        # Pass 1: group-start boundaries (the same send - first_send
        # comparison the scalar path evaluates, one searchsorted per
        # group). Pass 2: one reduceat per column replaces the
        # per-group slice reductions.
        starts: list[int] = []
        while i < n:
            starts.append(i)
            deltas = s[i:] - s[i]
            i += int(deltas.searchsorted(GROUP_WINDOW_S, side="right"))
        sb = np.array(starts)
        first_sends = s[sb].tolist()
        first_arrivals = a[sb].tolist()
        last_arrivals = np.maximum.reduceat(a, sb).tolist()
        group_sizes = np.add.reduceat(sz, sb).tolist()
        ends = np.array(starts[1:] + [n])
        last_sends = s[ends - 1].tolist()
        state: Optional[str] = None
        trendline = self.trendline
        time_windowed = trendline.time_windowed
        detector = self.detector
        gain = self.trendline_gain
        for k in range(len(starts)):
            completed = cur
            cur = _PacketGroup(first_sends[k], last_sends[k],
                               first_arrivals[k], last_arrivals[k],
                               int(group_sizes[k]))
            if completed is None:
                continue
            prev = self._prev_group
            self._prev_group = completed
            if prev is None:
                continue
            send_delta = completed.first_send - prev.first_send
            arrival_delta = completed.first_arrival - prev.first_arrival
            slope = trendline.update(
                arrival_delta - send_delta, completed.first_arrival)
            if slope is None:
                continue
            if time_windowed:
                scale = min(60.0, trendline.window_s / GROUP_WINDOW_S)
            else:
                scale = min(len(trendline._samples), 60)
            state = detector.detect(slope * gain * scale, now)
        self._current_group = cur
        return state

    def _feed_group(self, report: PacketReport):
        """Assign a report to a packet group; return (prev, completed) pairs."""
        if self._current_group is None:
            self._current_group = _PacketGroup(
                report.send_time, report.send_time,
                report.arrival_time, report.arrival_time, report.size_bytes)
            return None
        if report.send_time - self._current_group.first_send <= GROUP_WINDOW_S:
            self._current_group.absorb(report)
            return None
        completed = self._current_group
        self._current_group = _PacketGroup(
            report.send_time, report.send_time,
            report.arrival_time, report.arrival_time, report.size_bytes)
        prev = self._prev_group
        self._prev_group = completed
        if prev is None:
            return None
        return (prev, completed)

    # ------------------------------------------------------------------
    # rate control
    # ------------------------------------------------------------------
    def _apply_delay_control(self, signal: Optional[str], now: float) -> None:
        if signal == "overuse":
            self._state = "decrease"
        elif signal == "underuse":
            self._state = "hold"
        elif signal == "normal":
            self._state = "increase"
        if signal is None and self._state != "increase":
            return

        bwe = self.bwe_bps
        if self._state == "decrease":
            base = self._acked_rate if self._acked_rate is not None else bwe
            new_bwe = self.beta * base
            if self._acked_rate is not None:
                self._capacity_hint = self._acked_rate
            if new_bwe < bwe:
                self._set_bwe(new_bwe, now)
            self._state = "hold"
        elif self._state == "increase":
            near_max = (self._capacity_hint is not None
                        and bwe > 0.9 * self._capacity_hint)
            if near_max:
                # Additive probing near the known capacity: roughly one
                # MTU-sized packet of extra rate per response time.
                rtt = self.rtt_last if self.rtt_last else 0.05
                response_time = max(rtt + 0.1, 0.15)
                new_bwe = bwe + 1200 * 8 / response_time * 0.05
            else:
                new_bwe = bwe * self.increase_factor
            # GCC never grows far beyond what is actually being delivered.
            if self._acked_rate is not None:
                new_bwe = min(new_bwe, 1.5 * self._acked_rate + 10_000)
            if new_bwe > bwe:
                self._set_bwe(new_bwe, now)

    def _apply_loss_control(self, loss_rate: float, now: float) -> None:
        """Loss-based *bound* on the estimate (WebRTC-style).

        Rather than an event that multiplicatively cuts the estimate
        (which either compounds into a floor-crash if applied per
        feedback, or loses to additive growth if rate-limited), heavy
        loss installs a ceiling anchored at the *delivered* rate; light
        loss slowly releases it. The estimate is min(delay-based,
        loss-based) — sustained loss therefore caps the flow at what the
        network actually carries for it.
        """
        if loss_rate > 0.10 and self._acked_rate is not None:
            candidate = (1.0 - 0.5 * loss_rate) * self._acked_rate
            if self._loss_limit is None:
                self._loss_limit = candidate
            else:
                # follow the anchor (delivered rate), don't compound
                self._loss_limit = min(self._loss_limit * 1.005, candidate) \
                    if candidate < self._loss_limit else \
                    0.5 * self._loss_limit + 0.5 * candidate
        elif loss_rate < 0.05 and self._loss_limit is not None:
            # Release once loss is clearly below the install threshold —
            # e.g. a few percent of *random* wireless loss must not pin
            # the ceiling forever.
            self._loss_limit *= 1.05
            if self._loss_limit > self.max_bwe_bps:
                self._loss_limit = None
        if self._loss_limit is not None and self.bwe_bps > self._loss_limit:
            self._set_bwe(self._loss_limit, now)

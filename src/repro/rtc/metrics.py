"""Session metrics: the quantities every figure/table in §6 is built from.

The per-frame latency decomposition follows the paper's breakdown
(Fig. 6): encode time, pacing latency (time in the sender's pacer),
network latency (pacer exit to last-packet arrival, which includes
bottleneck queueing and any retransmission rounds), and decode time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

#: The paper's stall definition: receiving interval above 100 ms.
STALL_THRESHOLD_S = 0.1


@dataclass
class FrameMetrics:
    """Joined sender+receiver lifecycle of one frame."""

    frame_id: int
    capture_time: float
    size_bytes: int
    quality_vmaf: float
    complexity_level: int
    encode_time: float
    satd: float = 0.0
    planned_bytes: int = 0
    # pacing
    pacer_enqueue: Optional[float] = None
    pacer_last_exit: Optional[float] = None
    # receiver
    complete_at: Optional[float] = None
    displayed_at: Optional[float] = None
    had_retransmission: bool = False

    @property
    def pacing_latency(self) -> Optional[float]:
        if self.pacer_enqueue is None or self.pacer_last_exit is None:
            return None
        return self.pacer_last_exit - self.pacer_enqueue

    @property
    def network_latency(self) -> Optional[float]:
        if self.pacer_last_exit is None or self.complete_at is None:
            return None
        return self.complete_at - self.pacer_last_exit

    @property
    def e2e_latency(self) -> Optional[float]:
        if self.displayed_at is None:
            return None
        return self.displayed_at - self.capture_time

    @property
    def decode_latency(self) -> Optional[float]:
        if self.displayed_at is None or self.complete_at is None:
            return None
        # Display waits for in-order delivery; attribute only the tail.
        return self.displayed_at - self.complete_at


def percentile(values: Sequence[float], q: float) -> float:
    """Percentile helper returning NaN on empty input."""
    arr = [v for v in values if v is not None and not math.isnan(v)]
    if not arr:
        return float("nan")
    return float(np.percentile(arr, q))


@dataclass
class SessionMetrics:
    """Aggregated results of one RTC session run."""

    duration: float
    frames: list[FrameMetrics] = field(default_factory=list)
    packets_sent: int = 0
    packets_lost: int = 0
    packets_retransmitted: int = 0
    #: (time, bytes) of each packet leaving the pacer (for utilization).
    send_events: list[tuple[float, int]] = field(default_factory=list)
    #: (time, bwe) congestion-controller history.
    bwe_history: list[tuple[float, float]] = field(default_factory=list)
    #: ground-truth bandwidth lookup (set by the session runner).
    bandwidth_fn: Optional[object] = None

    # ------------------------------------------------------------------
    # latency
    # ------------------------------------------------------------------
    def displayed_frames(self) -> list[FrameMetrics]:
        return [f for f in self.frames if f.displayed_at is not None]

    def e2e_latencies(self) -> list[float]:
        return [f.e2e_latency for f in self.displayed_frames()]

    def latency_percentile(self, q: float) -> float:
        return percentile(self.e2e_latencies(), q)

    def p95_latency(self) -> float:
        return self.latency_percentile(95)

    def mean_latency(self) -> float:
        lat = self.e2e_latencies()
        return float(np.mean(lat)) if lat else float("nan")

    def latency_breakdown(self) -> dict[str, float]:
        """Mean per-component latency over displayed frames."""
        frames = self.displayed_frames()
        if not frames:
            return {"encode": float("nan"), "pacing": float("nan"),
                    "network": float("nan"), "decode": float("nan")}
        return {
            "encode": float(np.mean([f.encode_time for f in frames])),
            "pacing": float(np.mean([f.pacing_latency or 0.0 for f in frames])),
            "network": float(np.mean([f.network_latency or 0.0 for f in frames])),
            "decode": float(np.mean([f.decode_latency or 0.0 for f in frames])),
        }

    # ------------------------------------------------------------------
    # quality
    # ------------------------------------------------------------------
    def mean_vmaf(self) -> float:
        frames = self.displayed_frames()
        if not frames:
            return float("nan")
        return float(np.mean([f.quality_vmaf for f in frames]))

    # ------------------------------------------------------------------
    # loss / delivery
    # ------------------------------------------------------------------
    def loss_rate(self) -> float:
        if self.packets_sent == 0:
            return 0.0
        return self.packets_lost / self.packets_sent

    def received_fps(self) -> float:
        frames = self.displayed_frames()
        if self.duration <= 0:
            return 0.0
        return len(frames) / self.duration

    # ------------------------------------------------------------------
    # stalls (100 ms receiving-interval definition, §6.3)
    # ------------------------------------------------------------------
    def stall_rate(self, threshold: float = STALL_THRESHOLD_S) -> float:
        times = sorted(f.displayed_at for f in self.displayed_frames())
        if len(times) < 2 or self.duration <= 0:
            return 0.0
        stall_time = 0.0
        for a, b in zip(times, times[1:]):
            gap = b - a
            if gap > threshold:
                stall_time += gap - threshold
        return stall_time / self.duration

    # ------------------------------------------------------------------
    # sending-rate / utilization views (Fig. 18)
    # ------------------------------------------------------------------
    def sending_rate_series(self, bin_s: float = 0.01) -> list[tuple[float, float]]:
        """(bin start, bits/s) series of the pacer's output at 10 ms bins."""
        if not self.send_events:
            return []
        end = self.duration
        nbins = max(1, int(math.ceil(end / bin_s)))
        bits = np.zeros(nbins)
        for t, size in self.send_events:
            idx = min(int(t / bin_s), nbins - 1)
            bits[idx] += size * 8
        return [(i * bin_s, bits[i] / bin_s) for i in range(nbins)]

    def utilization_ratios(self, bin_s: float = 0.01,
                           against: str = "bandwidth") -> list[float]:
        """Sending rate normalized by bandwidth or BWE per 10 ms bin."""
        series = self.sending_rate_series(bin_s)
        if not series:
            return []
        ratios = []
        bwe_iter = sorted(self.bwe_history)
        for t, rate in series:
            if against == "bandwidth":
                if self.bandwidth_fn is None:
                    continue
                denom = self.bandwidth_fn(t)  # type: ignore[operator]
            else:
                denom = _step_lookup(bwe_iter, t)
            if denom and denom > 0:
                ratios.append(rate / denom)
        return ratios

    def bwe_accuracy_samples(self, bin_s: float = 0.01) -> list[float]:
        """BWE / true bandwidth at 10 ms intervals (Fig. 9 / Fig. 21)."""
        if self.bandwidth_fn is None or not self.bwe_history:
            return []
        hist = sorted(self.bwe_history)
        out = []
        t = hist[0][0]
        while t < self.duration:
            bw = self.bandwidth_fn(t)  # type: ignore[operator]
            if bw and bw > 0:
                out.append(_step_lookup(hist, t) / bw)
            t += bin_s
        return out


def _step_lookup(series: list[tuple[float, float]], t: float) -> float:
    """Value of a (time, value) step series at time ``t``."""
    value = series[0][1]
    for ts, v in series:
        if ts > t:
            break
        value = v
    return value

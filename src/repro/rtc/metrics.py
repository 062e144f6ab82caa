"""Session metrics: the quantities every figure/table in §6 is built from.

The per-frame latency decomposition follows the paper's breakdown
(Fig. 6): encode time, pacing latency (time in the sender's pacer),
network latency (pacer exit to last-packet arrival, which includes
bottleneck queueing and any retransmission rounds), and decode time.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.core.decisions import step_function

#: The paper's stall definition: receiving interval above 100 ms.
STALL_THRESHOLD_S = 0.1

#: rows :meth:`SendLog.__iter__` converts to Python objects at a time.
_ITER_CHUNK = 4096


class SendLog:
    """(time, bytes) of each packet leaving the pacer, as two columns.

    ``times`` is float64 and nondecreasing, ``sizes`` is int64; a
    constructor argument that breaks either is refused with a
    ``ValueError``. Both lanes write in release order into one
    interleaved float64 buffer that becomes the columns on the first
    read: the reference lane one packet with ``add((now, size))`` — one
    C call (``array.extend``) — and the batch engine a committed train
    with :meth:`add_train`. Iteration yields ``(float, int)`` pairs, a
    chunk of rows converted at a time.
    """

    __slots__ = ("_times", "_sizes", "_pending", "add")

    def __init__(self, times: Sequence[float] = (),
                 sizes: Sequence[int] = ()) -> None:
        try:
            self._times = np.asarray(times, dtype=np.float64)
            self._sizes = np.asarray(sizes, dtype=np.int64)
        except OverflowError as exc:
            raise ValueError(f"send size outside int64: {exc}") from None
        if self._times.shape != self._sizes.shape or self._times.ndim != 1:
            raise ValueError("send log columns differ in length")
        if not (self._times[1:] >= self._times[:-1]).all():
            raise ValueError("send times must be nondecreasing")
        self._pending = array("d")
        self.add = self._pending.extend

    def _seal(self) -> None:
        """Move the buffered pairs onto the columns. The sizes go to a new
        column; the times are compacted into the front of the buffer
        itself, which is then cut to them and kept as the time column,
        so the first read holds 8 B a packet above the run, not 16. The
        compaction copies doubling runs, none overlapping its source."""
        pending, n = self._pending, len(self._pending) // 2
        buf = np.frombuffer(pending, dtype=np.float64)
        sizes = buf[1::2].astype(np.int64)
        done = 1
        while done < n:
            run = min(done, n - done)
            buf[done:done + run] = buf[2 * done:2 * (done + run):2]
            done += run
        del buf                         # release the buffer before resizing
        del pending[n:]
        times = np.frombuffer(pending, dtype=np.float64)    # keeps it alive
        self._pending = array("d")
        self.add = self._pending.extend
        if len(self._times):
            times = np.concatenate((self._times, times))
            sizes = np.concatenate((self._sizes, sizes))
        self._times, self._sizes = times, sizes

    @property
    def times(self) -> np.ndarray:
        if self._pending:
            self._seal()
        return self._times

    @property
    def sizes(self) -> np.ndarray:
        if self._pending:
            self._seal()
        return self._sizes

    def add_train(self, times: np.ndarray, sizes: np.ndarray) -> None:
        """Append a train released at ``times``, after every pair
        written so far: the columns are interleaved once and appended
        to the buffer as bytes (measured cheaper, for a train's few
        hundred bytes, than handing ``frombytes`` the array's buffer)."""
        pairs = np.empty(2 * len(times))
        pairs[0::2] = times
        pairs[1::2] = sizes
        self._pending.frombytes(pairs.tobytes())

    def __len__(self) -> int:
        return len(self._times) + len(self._pending) // 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SendLog):
            return NotImplemented
        return (np.array_equal(self.times, other.times)
                and np.array_equal(self.sizes, other.sizes))

    def __iter__(self) -> Iterator[tuple[float, int]]:
        times, sizes = self.times, self.sizes
        for lo in range(0, len(times), _ITER_CHUNK):
            hi = lo + _ITER_CHUNK
            yield from zip(times[lo:hi].tolist(), sizes[lo:hi].tolist())

    def __reduce__(self):
        return SendLog, (self.times, self.sizes)


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
    send_events: SendLog = field(default_factory=SendLog)
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
        """(bin start, bits/s) series of the pacer's output at 10 ms bins
        over ``[0, duration)``: a packet sent during the drain after
        ``duration`` is left out, as :func:`~repro.arena.fairness.
        window_throughput_bps` leaves out what falls outside its window."""
        log = self.send_events
        if not log:
            return []
        nbins = max(1, int(math.ceil(self.duration / bin_s)))
        lo, hi = log.times.searchsorted((0.0, self.duration))
        idx = (log.times[lo:hi] / bin_s).astype(np.int64)
        # t < duration can still round to t / bin_s == nbins.
        bits = np.bincount(np.minimum(idx, nbins - 1),
                           weights=log.sizes[lo:hi] * 8, minlength=nbins)
        return [(i * bin_s, rate) for i, rate in enumerate(bits / bin_s)]

    def utilization_ratios(self, bin_s: float = 0.01,
                           against: str = "bandwidth") -> list[float]:
        """Sending rate normalized by bandwidth or BWE per 10 ms bin."""
        series = self.sending_rate_series(bin_s)
        if not series:
            return []
        if against == "bandwidth":
            if self.bandwidth_fn is None:
                return []
            denom_at = self.bandwidth_fn
        else:
            denom_at = step_function(self.bwe_history)
        ratios = []
        for t, rate in series:
            denom = denom_at(t)  # type: ignore[operator]
            if denom and denom > 0:
                ratios.append(rate / denom)
        return ratios

    def bwe_accuracy_samples(self, bin_s: float = 0.01) -> list[float]:
        """BWE / true bandwidth at 10 ms intervals (Fig. 9 / Fig. 21)."""
        if self.bandwidth_fn is None or not self.bwe_history:
            return []
        bwe_at = step_function(self.bwe_history)
        out = []
        t = self.bwe_history[0][0]
        while t < self.duration:
            bw = self.bandwidth_fn(t)  # type: ignore[operator]
            if bw and bw > 0:
                out.append(bwe_at(t) / bw)
            t += bin_s
        return out

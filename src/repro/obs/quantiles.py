"""Shared deterministic quantile helpers for reporting paths.

One nearest-rank percentile for every recent-window summary: the live
fleet heartbeats (``repro.live.server``), the ``check_perf.py
--live-load`` gate, the burst analyzer (``repro.obs.burst``), the SLO
watchdog (``repro.obs.slo``) and the autoscale probe. One deliberate
non-user: ``repro.rtc.metrics.percentile`` is numpy-interpolated and
feeds the committed result schema.

:class:`SampleWindow` is the burst analyzer's bounded recent window per
signal, fed one numpy batch per telemetry tick.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "SampleWindow",
    "clean_samples",
    "percentiles",
    "histogram_quantile",
]


def clean_samples(values: Iterable[Optional[float]]) -> List[float]:
    """Materialise ``values`` dropping ``None`` and NaN entries.

    Infinities are kept: a +inf pacing delay is a real (terrible)
    observation, whereas NaN means "no measurement".
    """
    out: List[float] = []
    for v in values:
        if v is None:
            continue
        f = float(v)
        if math.isnan(f):
            continue
        out.append(f)
    return out


def percentiles(values: Iterable[Optional[float]],
                pcts: Sequence[float]) -> Tuple[Optional[float], ...]:
    """Nearest-rank percentiles of an iterable (``None`` when empty).

    The rank convention is ``round(p/100 * (n-1))`` clamped to the
    sample range — exactly what the live supervisor has always
    reported, so fleet pacing p50/p99 numbers are unchanged by the
    dedupe. ``None``/NaN inputs are skipped rather than poisoning the
    sort (3.11+ ``sorted`` raises on NaN comparisons only sometimes,
    which is worse than either behaviour).
    """
    return _nearest_rank(sorted(clean_samples(values)), pcts)


def _nearest_rank(ordered: Sequence[float],
                  pcts: Sequence[float]) -> Tuple[Optional[float], ...]:
    """Read only the asked ranks of ``ordered``, as Python floats."""
    n = len(ordered)
    if n == 0:
        return tuple(None for _ in pcts)
    return tuple(
        float(ordered[max(0, min(n - 1, int(round(pct / 100.0 * (n - 1)))))])
        for pct in pcts)


class SampleWindow:
    """The most recent ``capacity`` samples of one signal, in a
    preallocated ring fed NaN-free numpy batches (the producer filters
    "no measurement" out once, vectorized). :meth:`percentiles` sorts
    once per batch, however many readers ask between batches.
    """

    __slots__ = ("capacity", "_ring", "_end", "_size", "_ordered")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._ring = np.empty(capacity)
        self._end = 0       # the slot the next sample goes to
        self._size = 0      # samples held
        self._ordered: Optional[np.ndarray] = None  # sorted, once asked

    def extend(self, values: np.ndarray) -> None:
        n = min(len(values), self.capacity)
        if not n:
            return
        values, end = values[len(values) - n:], self._end
        head = min(n, self.capacity - end)      # slots before the wrap
        self._ring[end:end + head] = values[:head]
        self._ring[:n - head] = values[head:]
        self._end = (end + n) % self.capacity
        self._size = min(self.capacity, self._size + n)
        self._ordered = None

    @property
    def values(self) -> np.ndarray:
        """The window, oldest first, as a new array."""
        ring, end = self._ring, self._end
        if self._size < self.capacity:
            return ring[:end].copy()
        return np.concatenate((ring[end:], ring[:end]))

    def percentiles(self, pcts: Sequence[float]
                    ) -> Tuple[Optional[float], ...]:
        if self._ordered is None:
            self._ordered = np.sort(self._ring[:self._size])
        return _nearest_rank(self._ordered, pcts)


def histogram_quantile(cumulative: Sequence[Tuple[float, int]],
                       q: float) -> Optional[float]:
    """Quantile estimate from cumulative fixed-bucket counts.

    ``cumulative`` is the ``(upper_bound, cumulative_count)`` list a
    :class:`repro.obs.registry.Histogram` exports (last bound +inf),
    ``q`` in percent. Linear interpolation inside the winning bucket,
    Prometheus ``histogram_quantile`` style, hence deterministic for a
    given bucket layout. Returns ``None`` when the histogram is empty;
    a quantile landing in the +inf overflow bucket returns the largest
    finite bound (the estimate is saturated, not unbounded).
    """
    if not cumulative:
        return None
    total = cumulative[-1][1]
    if total <= 0:
        return None
    target = (max(0.0, min(100.0, q)) / 100.0) * total
    prev_bound = 0.0
    prev_count = 0
    largest_finite = 0.0
    for bound, count in cumulative:
        if math.isfinite(bound):
            largest_finite = bound
        if count >= target and count > prev_count:
            if not math.isfinite(bound):
                return largest_finite
            span = count - prev_count
            frac = (target - prev_count) / span if span > 0 else 1.0
            return prev_bound + (bound - prev_bound) * frac
        prev_bound = bound if math.isfinite(bound) else prev_bound
        prev_count = count
    return largest_finite

"""Named metric registry: counters, gauges, histograms.

Components register metrics by dotted name (``pacer.backlog_bytes``,
``cc.bwe_bps``); the registry keeps one instrument per name and feeds
every update through an optional record hook so changes land in the
telemetry event stream (and the flight recorder) as they happen.

Gauges come in two flavours: *push* gauges set explicitly by the
instrumented code, and *sampled* gauges constructed with a ``sample_fn``
that the telemetry tick polls. Sampled reads must be non-mutating — see
:mod:`repro.obs.wiring` for how token levels and queue estimates are
read without touching lazy-refill or estimator history state.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

#: histogram bucket upper bounds (seconds) tuned for RTC latencies:
#: sub-frame to multi-second stalls.
DEFAULT_LATENCY_BUCKETS_S = (0.01, 0.025, 0.05, 0.075, 0.1, 0.15, 0.25,
                             0.5, 1.0, 2.5)

RecordHook = Optional[Callable[[str, str, float], None]]


class Counter:
    """Monotonic counter. ``inc`` feeds the record hook on every bump."""

    __slots__ = ("name", "value", "help", "labels", "_record")

    def __init__(self, name: str, record: RecordHook = None,
                 help: str = "", labels: Optional[dict] = None) -> None:
        self.name = name
        self.value = 0.0
        self.help = help
        self.labels = labels
        self._record = record

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount
        if self._record is not None:
            self._record("metric", self.name, self.value)


class Gauge:
    """Last-value gauge; records a sample only when the value changes."""

    __slots__ = ("name", "value", "sample_fn", "help", "labels", "_record")

    def __init__(self, name: str, record: RecordHook = None,
                 sample_fn: Optional[Callable[[], float]] = None,
                 help: str = "", labels: Optional[dict] = None) -> None:
        self.name = name
        self.value: Optional[float] = None
        self.sample_fn = sample_fn
        self.help = help
        self.labels = labels
        self._record = record

    def set(self, value: float) -> None:
        if value == self.value:
            return
        self.value = value
        if self._record is not None:
            self._record("metric", self.name, value)

    def sample(self) -> None:
        """Poll ``sample_fn`` (telemetry tick); no-op for push gauges."""
        if self.sample_fn is not None:
            self.set(float(self.sample_fn()))


class Histogram:
    """Fixed-bucket cumulative histogram (Prometheus semantics).

    Observations are aggregated only — no per-observation record, so a
    hot path may observe per packet without flooding the event log.
    """

    __slots__ = ("name", "buckets", "counts", "sum", "count", "help",
                 "labels", "_bounds")

    def __init__(self, name: str,
                 buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_S,
                 help: str = "", labels: Optional[dict] = None) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self.buckets = tuple(sorted(buckets))
        self._bounds = np.array(self.buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        if math.isnan(value):
            return
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def observe_many(self, values: np.ndarray) -> None:
        """Bulk twin of :meth:`observe` for a NaN-free batch of rows.

        Leaves the histogram in exactly the state a loop of ``observe``
        calls would: ``searchsorted(side="left")`` is the same
        ``value <= bound`` rule, and the sum is accumulated left to
        right (``cumsum``, not pairwise ``sum``), so exports stay
        byte-identical to per-observation feeding.
        """
        if len(values) < 8:  # a handful of trains: the loop is cheaper
            for value in values.tolist():
                self.observe(value)
            return
        slots = self._bounds.searchsorted(values, side="left")
        for i, n in enumerate(np.bincount(slots).tolist()):
            if n:
                self.counts[i] += n
        self.sum = float(np.concatenate(((self.sum,), values)).cumsum()[-1])
        self.count += len(values)

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, ending at +Inf."""
        out = []
        running = 0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, running + self.counts[-1]))
        return out


class MetricRegistry:
    """One instrument per dotted name; idempotent registration."""

    def __init__(self, record: RecordHook = None) -> None:
        self._record = record
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str, help: str = "",
                labels: Optional[dict] = None,
                record: bool = True) -> Counter:
        """``record=False`` registers a hot-path counter whose bumps are
        aggregated only (like histogram observations) instead of landing
        one event per ``inc`` in the log and flight ring."""
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(
                name, self._record if record else None,
                help=help, labels=labels)
        elif help and not c.help:
            c.help = help
        return c

    def gauge(self, name: str,
              sample_fn: Optional[Callable[[], float]] = None,
              help: str = "", labels: Optional[dict] = None,
              record: bool = True) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(
                name, self._record if record else None, sample_fn,
                help=help, labels=labels)
        else:
            if sample_fn is not None:
                g.sample_fn = sample_fn
            if help and not g.help:
                g.help = help
        return g

    def histogram(self, name: str,
                  buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_S,
                  help: str = "", labels: Optional[dict] = None) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name, buckets, help=help,
                                                  labels=labels)
        elif help and not h.help:
            h.help = help
        return h

    def sample_all(self) -> None:
        """Poll every sampled gauge (the telemetry tick body)."""
        for gauge in self.gauges.values():
            gauge.sample()

    def names(self) -> list[str]:
        return sorted(set(self.counters) | set(self.gauges)
                      | set(self.histograms))

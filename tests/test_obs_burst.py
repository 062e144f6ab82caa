"""Burst analyzer: train segmentation, histograms, hot-path hygiene."""

from __future__ import annotations

from unittest import mock

import pytest

from repro.obs import BurstAnalyzer, MetricRegistry
from repro.obs import burst as burst_module
from repro.obs.export import prometheus_snapshot


def feed(analyzer: BurstAnalyzer, times, size=1200.0, pacing=None):
    for i, t in enumerate(times):
        delay = None if pacing is None else pacing[i]
        analyzer.on_packet(t, size, delay)


def test_train_segmentation_by_gap():
    reg = MetricRegistry()
    b = BurstAnalyzer(reg)
    assert burst_module.TRAIN_GAP_S == 0.002
    # Two 3-packet trains separated by a 10 ms gap, then a singleton.
    feed(b, [0.0, 0.001, 0.002, 0.012, 0.013, 0.014, 0.100])
    b.flush()
    assert int(reg.counters["burst.packets"].value) == 7
    assert int(reg.counters["burst.trains"].value) == 3
    h = reg.histograms["burst.train_packets"]
    assert h.count == 3
    assert h.sum == 7.0  # 3 + 3 + 1
    assert reg.gauges["burst.last_train_packets"].value == 1.0
    assert reg.gauges["burst.last_train_bytes"].value == 1200.0


def test_flush_closes_open_train_and_is_idempotent():
    reg = MetricRegistry()
    b = BurstAnalyzer(reg)
    feed(b, [0.0, 0.001])
    assert int(reg.counters["burst.trains"].value) == 0
    b.flush()
    assert int(reg.counters["burst.trains"].value) == 1
    b.flush()  # nothing left to close
    assert int(reg.counters["burst.trains"].value) == 1


def test_ipg_histogram_and_windowed_percentiles():
    reg = MetricRegistry()
    b = BurstAnalyzer(reg)
    feed(b, [0.0, 0.0005, 0.0010, 0.0015, 0.0515])
    # 4 gaps: three of 0.5 ms and one of 50 ms.
    h = reg.histograms["burst.ipg_s"]
    assert h.count == 4
    assert h.sum == pytest.approx(0.0515)
    assert dict(h.cumulative())[0.001] == 3
    assert dict(h.cumulative())[0.033] == 3
    assert dict(h.cumulative())[0.1] == 4


def test_pacing_delay_feeds_histogram_only_when_measured():
    reg = MetricRegistry()
    b = BurstAnalyzer(reg)
    feed(b, [0.0, 0.001, 0.002], pacing=[0.01, None, 0.03])
    h = reg.histograms["burst.pacing_delay_s"]
    assert h.count == 2
    p50, p99 = b.pacing_percentiles()
    assert p50 == 0.01 and p99 == 0.03


def test_summary_shape_and_empty_state():
    reg = MetricRegistry()
    b = BurstAnalyzer(reg)
    trains = reg.histograms["burst.train_packets"]
    assert reg.counters["burst.packets"].value == 0
    assert reg.counters["burst.trains"].value == 0 and trains.count == 0
    assert b.pacing_percentiles() == (None, None)
    assert len(b.recent_pacing()) == 0
    feed(b, [0.0, 0.001, 0.010], pacing=[0.002, 0.002, 0.002])
    b.flush()
    assert reg.counters["burst.packets"].value == 3
    assert reg.counters["burst.trains"].value == 2
    assert trains.sum / trains.count == pytest.approx(1.5)
    assert b.pacing_percentiles()[0] == pytest.approx(0.002)


def test_hot_path_never_feeds_the_record_hook():
    """Per-packet counters/gauges must be aggregate-only: one record
    per packet would flood the event log and the flight ring."""
    records = []
    reg = MetricRegistry(record=lambda kind, name, value:
                         records.append((kind, name, value)))
    b = BurstAnalyzer(reg)
    feed(b, [0.0, 0.001, 0.050], pacing=[0.01, 0.01, 0.01])
    b.flush()
    assert records == []


def test_window_ring_is_bounded():
    reg = MetricRegistry()
    with mock.patch.object(burst_module, "WINDOW", 8):
        b = BurstAnalyzer(reg)
    feed(b, [i * 0.001 for i in range(100)],
         pacing=[i * 1e-4 for i in range(100)])
    assert b.recent_pacing().tolist() == [i * 1e-4 for i in range(92, 100)]
    # Histogram still aggregates everything.
    assert reg.histograms["burst.ipg_s"].count == 99


def test_deterministic_snapshot_for_identical_input():
    def build():
        reg = MetricRegistry()
        b = BurstAnalyzer(reg)
        feed(b, [0.0, 0.0004, 0.003, 0.0031, 0.020],
             pacing=[0.001, 0.002, 0.003, 0.004, 0.005])
        b.flush()
        return prometheus_snapshot(reg)

    assert build() == build()


# ---------------------------------------------------------------------------
# bulk consumption is exact: batch boundaries are invisible
# ---------------------------------------------------------------------------
import numpy as np  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_rows = st.lists(
    st.tuples(
        # gap to the previous packet: back-to-back, sub-threshold, at
        # the 2 ms train threshold, and well above it
        st.sampled_from([0.0, 0.0004, 0.0019, 0.002, 0.0021, 0.01, 0.2]),
        st.integers(min_value=40, max_value=1500),
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=2.0))),
    min_size=1, max_size=60)


class LoopAnalyzer:
    """Reference: the per-packet loop the bulk path replaced (one Python
    step per packet, scalar ``Histogram.observe``), kept here as the
    oracle. Same instruments, so snapshots compare byte for byte."""

    def __init__(self, registry):
        self.b = BurstAnalyzer(registry)  # instruments only
        self.last_t = None
        self.start = self.bytes = 0.0
        self.packets = 0
        self.pacing = []

    def on_packet(self, now, size, delay):
        b = self.b
        b._c_packets.inc()
        if delay is not None:
            b._h_pacing.observe(delay)
            self.pacing.append(delay)
        if self.last_t is not None:
            gap = now - self.last_t
            b._h_ipg.observe(gap)
            if gap > burst_module.TRAIN_GAP_S:
                self.flush()
        if not self.packets:
            self.start = now
        self.packets += 1
        self.bytes += float(size)
        self.last_t = now

    def flush(self):
        b = self.b
        if self.packets:
            b._h_train_packets.observe(float(self.packets))
            b._h_train_bytes.observe(self.bytes)
            b._h_train_duration.observe(self.last_t - self.start)
            b._c_trains.inc()
            b._g_last_train_packets.set(float(self.packets))
            b._g_last_train_bytes.set(self.bytes)
            self.packets, self.bytes = 0, 0.0


@settings(max_examples=150, deadline=None)
@given(rows=_rows, cuts=st.lists(st.integers(min_value=0, max_value=60),
                                 max_size=6),
       flush_at=st.one_of(st.none(), st.integers(min_value=1, max_value=59)))
def test_any_batching_of_the_same_rows_leaves_identical_state(
        rows, cuts, flush_at):
    """The per-packet loop (reference), one row at a time through
    ``on_packet``, and any split into ``on_rows`` batches — also across
    a mid-stream ``flush()`` — must produce the same registry snapshot
    byte for byte and the same window quantiles (over a 16-row
    window)."""
    from repro.obs import percentiles

    window = 16
    times, t = [], 1.0
    for gap, _, _ in rows:
        t += gap
        times.append(t)
    sizes = [size for _, size, _ in rows]
    delays = [np.nan if d is None else d for _, _, d in rows]
    flush_at = None if flush_at is None else min(flush_at, len(rows))

    def loop():
        reg = MetricRegistry()
        ref = LoopAnalyzer(reg)
        for i, (when, size, (_, _, delay)) in enumerate(
                zip(times, sizes, rows)):
            if i == flush_at:
                ref.flush()
            ref.on_packet(when, size, delay)
        ref.flush()
        return (prometheus_snapshot(reg),
                percentiles(ref.pacing[-window:], (50.0, 99.0)))

    def scalar():
        reg = MetricRegistry()
        b = BurstAnalyzer(reg)
        for i, (when, size, (_, _, delay)) in enumerate(
                zip(times, sizes, rows)):
            if i == flush_at:
                b.flush()
            b.on_packet(when, size, delay)
        b.flush()
        return prometheus_snapshot(reg), b.pacing_percentiles()

    def batched():
        reg = MetricRegistry()
        b = BurstAnalyzer(reg)
        edges = sorted({0, len(rows), *(min(c, len(rows)) for c in cuts),
                        *(() if flush_at is None else (flush_at,))})
        for lo, hi in zip(edges, edges[1:]):
            if lo == flush_at:
                b.flush()
            b.on_rows(np.array(times[lo:hi]), np.array(sizes[lo:hi]),
                      np.array(delays[lo:hi]))
        b.flush()
        return prometheus_snapshot(reg), b.pacing_percentiles()

    with mock.patch.object(burst_module, "WINDOW", window):
        assert loop() == scalar() == batched()

"""Tests for session metrics and the latency decomposition."""

import math

import pytest

from repro.rtc.metrics import (
    FrameMetrics,
    SendLog,
    SessionMetrics,
    percentile,
)


def send_log(events):
    """A SendLog of ``(time, bytes)`` pairs."""
    return SendLog([t for t, _ in events], [size for _, size in events])


def frame(fid, capture, displayed=None, pacer_in=None, pacer_out=None,
          complete=None, vmaf=85.0, encode=0.006, size=100_000):
    return FrameMetrics(
        frame_id=fid, capture_time=capture, size_bytes=size,
        quality_vmaf=vmaf, complexity_level=0, encode_time=encode,
        pacer_enqueue=pacer_in, pacer_last_exit=pacer_out,
        complete_at=complete, displayed_at=displayed,
    )


def test_frame_latency_components():
    f = frame(0, capture=1.0, pacer_in=1.006, pacer_out=1.040,
              complete=1.060, displayed=1.063)
    assert f.pacing_latency == pytest.approx(0.034)
    assert f.network_latency == pytest.approx(0.020)
    assert f.decode_latency == pytest.approx(0.003)
    assert f.e2e_latency == pytest.approx(0.063)


def test_incomplete_frames_have_none_latency():
    f = frame(0, capture=1.0)
    assert f.e2e_latency is None
    assert f.pacing_latency is None
    assert f.network_latency is None


def test_percentiles_and_nan_on_empty():
    assert math.isnan(percentile([], 95))
    assert percentile([1.0, 2.0, 3.0], 50) == 2.0


def test_session_latency_stats():
    m = SessionMetrics(duration=10.0)
    m.frames = [frame(i, capture=i * 0.033, displayed=i * 0.033 + 0.05 + i * 0.001)
                for i in range(100)]
    assert m.mean_latency() == pytest.approx(0.05 + 49.5 * 0.001, rel=0.01)
    assert m.p95_latency() > m.mean_latency()
    assert len(m.e2e_latencies()) == 100


def test_stall_rate_counts_long_gaps():
    m = SessionMetrics(duration=1.0)
    # displays at 0, 0.033, then a 233 ms gap (133 ms beyond threshold)
    times = [0.0, 0.033, 0.266, 0.3]
    m.frames = [frame(i, capture=0.0, displayed=t) for i, t in enumerate(times)]
    assert m.stall_rate() == pytest.approx(0.133, abs=1e-6)


def test_stall_rate_zero_for_smooth_playback():
    m = SessionMetrics(duration=1.0)
    m.frames = [frame(i, capture=0.0, displayed=i * 0.033) for i in range(30)]
    assert m.stall_rate() == 0.0


def test_loss_rate():
    m = SessionMetrics(duration=1.0)
    m.packets_sent = 1000
    m.packets_lost = 12
    assert m.loss_rate() == pytest.approx(0.012)
    empty = SessionMetrics(duration=1.0)
    assert empty.loss_rate() == 0.0


def test_received_fps():
    m = SessionMetrics(duration=2.0)
    m.frames = [frame(i, capture=0.0, displayed=0.1 + i * 0.033)
                for i in range(60)]
    assert m.received_fps() == pytest.approx(30.0)


def test_mean_vmaf_only_displayed():
    m = SessionMetrics(duration=1.0)
    m.frames = [frame(0, 0.0, displayed=0.05, vmaf=90.0),
                frame(1, 0.033, vmaf=10.0)]  # never displayed
    assert m.mean_vmaf() == 90.0


def test_sending_rate_series_bins():
    m = SessionMetrics(duration=0.05)
    m.send_events = send_log([(0.001, 1250), (0.002, 1250), (0.015, 1250)])
    series = m.sending_rate_series(bin_s=0.01)
    assert len(series) == 5
    assert series[0][1] == pytest.approx(2 * 1250 * 8 / 0.01)
    assert series[1][1] == pytest.approx(1250 * 8 / 0.01)
    assert series[2][1] == 0.0


def test_sending_rate_series_leaves_out_the_drain():
    """A packet sent at or after ``duration`` is not in any bin: the
    last bin used to collect every one of them."""
    m = SessionMetrics(duration=0.05)
    m.send_events = send_log([(0.001, 1250), (0.045, 1250), (0.05, 1250),
                              (0.3, 1250), (2.0, 1250)])
    m.bandwidth_fn = lambda t: 1e6
    series = m.sending_rate_series(bin_s=0.01)
    assert len(series) == 5
    assert series[0][1] == pytest.approx(1250 * 8 / 0.01)
    assert series[4][1] == pytest.approx(1250 * 8 / 0.01)
    assert sum(rate for _t, rate in series) * 0.01 == 2 * 1250 * 8
    assert max(m.utilization_ratios(bin_s=0.01)) == pytest.approx(1.0)


def test_utilization_ratios_against_bandwidth():
    m = SessionMetrics(duration=0.02)
    m.send_events = send_log([(0.001, 1250), (0.011, 2500)])
    m.bandwidth_fn = lambda t: 2e6
    ratios = m.utilization_ratios(bin_s=0.01, against="bandwidth")
    assert ratios[0] == pytest.approx(1250 * 8 / 0.01 / 2e6)


def test_bwe_accuracy_samples():
    m = SessionMetrics(duration=0.1)
    m.bwe_history = [(0.0, 1e6), (0.05, 2e6)]
    m.bandwidth_fn = lambda t: 2e6
    samples = m.bwe_accuracy_samples(bin_s=0.05)
    assert samples[0] == pytest.approx(0.5)
    assert samples[1] == pytest.approx(1.0)


def test_latency_breakdown_keys():
    m = SessionMetrics(duration=1.0)
    m.frames = [frame(0, capture=0.0, pacer_in=0.006, pacer_out=0.02,
                      complete=0.04, displayed=0.043)]
    bd = m.latency_breakdown()
    assert set(bd) == {"encode", "pacing", "network", "decode"}
    assert bd["pacing"] == pytest.approx(0.014)


# ----------------------------------------------------------------------
# edge cases: empty sessions, zero-capacity bins, NaN propagation
# ----------------------------------------------------------------------
def test_utilization_ratios_empty_session():
    m = SessionMetrics(duration=1.0)
    assert m.utilization_ratios() == []
    assert m.utilization_ratios(against="bwe") == []


def test_utilization_ratios_without_bandwidth_fn():
    m = SessionMetrics(duration=0.02)
    m.send_events = send_log([(0.001, 1250)])
    # No ground truth attached: bandwidth-relative ratios are undefined
    # and must be skipped, not crash or divide by None.
    assert m.utilization_ratios(against="bandwidth") == []


def test_utilization_ratios_skips_zero_capacity_bins():
    m = SessionMetrics(duration=0.03)
    m.send_events = send_log([(0.001, 1250), (0.011, 1250), (0.021, 1250)])
    # The middle bin falls in an outage (zero capacity): dividing by it
    # would blow up, so the bin must be dropped from the distribution.
    m.bandwidth_fn = lambda t: 0.0 if 0.01 <= t < 0.02 else 2e6
    ratios = m.utilization_ratios(bin_s=0.01, against="bandwidth")
    assert len(ratios) == 2
    assert all(math.isfinite(r) for r in ratios)


def test_utilization_ratios_against_bwe_zero_estimate():
    m = SessionMetrics(duration=0.02)
    m.send_events = send_log([(0.001, 1250), (0.011, 1250)])
    m.bwe_history = [(0.0, 0.0), (0.01, 1e6)]
    ratios = m.utilization_ratios(bin_s=0.01, against="bwe")
    assert ratios == [pytest.approx(1250 * 8 / 0.01 / 1e6)]


def test_bwe_accuracy_samples_empty_session():
    m = SessionMetrics(duration=1.0)
    assert m.bwe_accuracy_samples() == []
    m.bandwidth_fn = lambda t: 2e6
    assert m.bwe_accuracy_samples() == []  # still no BWE history


def test_bwe_accuracy_samples_zero_capacity_bins():
    m = SessionMetrics(duration=0.1)
    m.bwe_history = [(0.0, 1e6)]
    m.bandwidth_fn = lambda t: 0.0 if t < 0.05 else 2e6
    samples = m.bwe_accuracy_samples(bin_s=0.05)
    # Outage bins are skipped rather than emitted as inf/NaN.
    assert samples == [pytest.approx(0.5)]
    assert all(math.isfinite(s) for s in samples)


def test_percentile_empty_and_none_inputs():
    assert math.isnan(percentile([], 95))
    assert math.isnan(percentile([None, None], 95))


def test_percentile_filters_nan_values():
    values = [0.1, float("nan"), 0.3, None, 0.2]
    assert percentile(values, 50) == pytest.approx(0.2)
    # All-NaN input degrades to NaN, never raises.
    assert math.isnan(percentile([float("nan")], 95))


def test_latency_percentiles_empty_session_are_nan():
    m = SessionMetrics(duration=1.0)
    assert math.isnan(m.p95_latency())
    assert math.isnan(m.latency_percentile(50))

"""Fairness-helper tests: Jain, window throughput, convergence, reports."""

import math

import pytest

from repro.arena.fairness import (
    FairnessReport,
    jain_index,
    time_to_convergence,
    window_throughput_bps,
)
from repro.rtc.metrics import FrameMetrics, SessionMetrics
from tests.test_rtc_metrics import send_log


def synth_metrics(duration=20.0, rate_bps=4e6, start=0.0, fps=30.0,
                  vmaf=80.0, latency_s=0.05):
    """A SessionMetrics with a constant send rate and displayed frames."""
    m = SessionMetrics(duration=duration)
    step = 0.01
    size = int(rate_bps * step / 8)
    t = start
    events = []
    while t < duration:
        events.append((t, size))
        t += step
    m.send_events = send_log(events)
    fid = 0
    t = start
    while t < duration - latency_s:
        f = FrameMetrics(frame_id=fid, capture_time=t, size_bytes=size,
                         quality_vmaf=vmaf, complexity_level=1,
                         encode_time=0.002)
        f.displayed_at = t + latency_s
        m.frames.append(f)
        fid += 1
        t += 1.0 / fps
    return m


# ----------------------------------------------------------------------
# jain_index
# ----------------------------------------------------------------------
def test_jain_single_flow_is_one():
    assert jain_index([3.2e6]) == 1.0


def test_jain_equal_shares_is_one():
    assert jain_index([5.0, 5.0, 5.0, 5.0]) == pytest.approx(1.0)


def test_jain_one_flow_hogging():
    assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)


def test_jain_all_zero_is_vacuously_fair():
    assert jain_index([0.0, 0.0, 0.0]) == 1.0


def test_jain_empty_is_one():
    assert jain_index([]) == 1.0


def test_jain_negative_raises():
    with pytest.raises(ValueError):
        jain_index([1.0, -0.5])


def test_jain_known_value():
    # (1+2+3)^2 / (3 * (1+4+9)) = 36/42
    assert jain_index([1.0, 2.0, 3.0]) == pytest.approx(36.0 / 42.0)


# ----------------------------------------------------------------------
# window_throughput_bps
# ----------------------------------------------------------------------
def test_window_throughput_constant_rate():
    m = synth_metrics(duration=20.0, rate_bps=4e6)
    assert window_throughput_bps(m, 10.0, 20.0) == pytest.approx(4e6, rel=0.01)


def test_window_throughput_respects_bounds():
    m = SessionMetrics(duration=10.0)
    m.send_events = send_log([(1.0, 1000), (5.0, 1000), (9.0, 1000)])
    # [4, 8): only the t=5 event counts.
    assert window_throughput_bps(m, 4.0, 8.0) == pytest.approx(1000 * 8 / 4.0)


def test_window_throughput_empty_window():
    m = synth_metrics()
    assert window_throughput_bps(m, 5.0, 5.0) == 0.0
    assert window_throughput_bps(m, 8.0, 5.0) == 0.0


# ----------------------------------------------------------------------
# time_to_convergence
# ----------------------------------------------------------------------
def test_convergence_constant_rate_is_zero():
    m = synth_metrics(duration=20.0, rate_bps=4e6)
    assert time_to_convergence(m) == 0.0


def test_convergence_after_ramp():
    m = SessionMetrics(duration=20.0)
    step = 0.01
    events = []
    for i in range(2000):
        t = i * step
        rate = 1e6 if t < 5.0 else 4e6       # settles at t=5
        events.append((t, int(rate * step / 8)))
    m.send_events = send_log(events)
    conv = time_to_convergence(m)
    assert conv == pytest.approx(5.0, abs=1.0)


def test_convergence_oscillating_is_none():
    m = SessionMetrics(duration=20.0)
    step = 0.01
    events = []
    for i in range(2000):
        t = i * step
        rate = 6e6 if int(t) % 2 == 0 else 1e6   # never settles
        events.append((t, int(rate * step / 8)))
    m.send_events = send_log(events)
    assert time_to_convergence(m) is None


def test_convergence_short_span_is_none():
    m = synth_metrics(duration=20.0)
    assert time_to_convergence(m, start=19.5) is None


def test_convergence_no_events_is_none():
    assert time_to_convergence(SessionMetrics(duration=20.0)) is None


def test_convergence_zero_steady_is_none():
    m = SessionMetrics(duration=20.0)
    m.send_events = send_log([(0.5, 1000)])   # goes silent: steady rate 0
    assert time_to_convergence(m) is None


def test_convergence_late_joiner_measured_from_start():
    # Joins at t=8, ramps for 4s, steady afterwards.
    m = SessionMetrics(duration=24.0)
    step = 0.01
    t = 8.0
    events = []
    while t < 24.0:
        rate = 1e6 if t < 12.0 else 3e6
        events.append((t, int(rate * step / 8)))
        t += step
    m.send_events = send_log(events)
    conv = time_to_convergence(m, start=8.0)
    assert conv is not None
    assert conv == pytest.approx(4.0, abs=1.0)    # relative to the join


# ----------------------------------------------------------------------
# FairnessReport
# ----------------------------------------------------------------------
def test_report_from_flows_equal_rates():
    flows = {1: synth_metrics(rate_bps=4e6),
             2: synth_metrics(rate_bps=4e6)}
    rep = FairnessReport.from_flows(flows, duration=20.0,
                                    baselines={1: "ace", 2: "webrtc-star"},
                                    window_s=10.0)
    assert rep.t0 == 10.0 and rep.t1 == 20.0
    assert rep.jain_throughput == pytest.approx(1.0)
    assert [s.flow_id for s in rep.shares] == [1, 2]
    assert [s.baseline for s in rep.shares] == ["ace", "webrtc-star"]
    for s in rep.shares:
        assert s.share == pytest.approx(0.5, abs=0.01)
        assert s.throughput_bps == pytest.approx(4e6, rel=0.02)
        assert s.p95_latency_s == pytest.approx(0.05, abs=0.005)
        assert s.mean_vmaf == pytest.approx(80.0)
        assert s.fps == pytest.approx(30.0, rel=0.05)
    assert rep.convergence_s[1] == 0.0
    assert rep.worst_p95_latency_s == pytest.approx(0.05, abs=0.005)


def test_report_unequal_rates():
    flows = {1: synth_metrics(rate_bps=6e6, latency_s=0.03),
             2: synth_metrics(rate_bps=2e6, latency_s=0.09)}
    rep = FairnessReport.from_flows(flows, duration=20.0)
    assert rep.jain_throughput < 1.0
    assert rep.shares[0].share == pytest.approx(0.75, abs=0.02)
    assert rep.worst_p95_latency_s == pytest.approx(0.09, abs=0.005)


def test_report_late_joiner_start_offset():
    flows = {1: synth_metrics(rate_bps=4e6),
             2: synth_metrics(rate_bps=4e6, start=8.0)}
    rep = FairnessReport.from_flows(flows, duration=20.0,
                                    starts={2: 8.0})
    assert rep.convergence_s[2] == 0.0     # constant from its join


def test_report_idle_flow():
    idle = SessionMetrics(duration=20.0)
    flows = {1: synth_metrics(rate_bps=4e6), 2: idle}
    rep = FairnessReport.from_flows(flows, duration=20.0)
    assert rep.jain_throughput == pytest.approx(0.5)
    silent = next(s for s in rep.shares if s.flow_id == 2)
    assert silent.throughput_bps == 0.0 and silent.share == 0.0
    assert math.isnan(silent.mean_vmaf)
    assert rep.convergence_s[2] is None


def test_report_rows_shape():
    rep = FairnessReport.from_flows({1: synth_metrics()}, duration=20.0,
                                    baselines={1: "ace"})
    (row,) = rep.rows()
    assert row["flow_id"] == 1 and row["baseline"] == "ace"
    assert row["throughput_mbps"] == pytest.approx(4.0, rel=0.02)
    assert row["p95_latency_ms"] == pytest.approx(50.0, abs=5.0)
    assert set(row) == {"flow_id", "baseline", "throughput_mbps", "share",
                        "p95_latency_ms", "mean_vmaf", "fps",
                        "convergence_s"}

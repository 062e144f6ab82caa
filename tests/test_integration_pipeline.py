"""End-to-end integration tests over the full sender/receiver pipeline."""

import numpy as np
import pytest

from repro.net.trace import BandwidthTrace, make_step_trace, make_wifi_trace
from repro.rtc.baselines import build_session
from repro.rtc.session import SessionConfig
from repro.sim.rng import RngStream


def run(name, trace=None, duration=8.0, seed=2, **kwargs):
    trace = trace or BandwidthTrace.constant(20e6, duration=duration + 10)
    cfg = SessionConfig(duration=duration, seed=seed)
    session = build_session(name, trace, cfg, **kwargs)
    return session, session.run()


def test_frames_flow_end_to_end():
    session, m = run("webrtc-star")
    displayed = m.displayed_frames()
    assert len(displayed) >= 0.9 * len(m.frames)
    for f in displayed:
        assert f.e2e_latency is not None and f.e2e_latency > 0
        assert f.pacer_enqueue is not None
        assert f.pacer_last_exit is not None
        assert f.pacer_last_exit >= f.pacer_enqueue


def test_latency_floor_sanity():
    """e2e latency can never beat encode + propagation + serialization."""
    session, m = run("always-burst")
    min_latency = min(m.e2e_latencies())
    assert min_latency > 0.015  # one-way 15 ms propagation minimum


def test_deterministic_across_runs():
    _, m1 = run("ace", seed=7)
    _, m2 = run("ace", seed=7)
    assert m1.p95_latency() == m2.p95_latency()
    assert m1.mean_vmaf() == m2.mean_vmaf()
    assert m1.packets_sent == m2.packets_sent


def test_different_seeds_differ():
    _, m1 = run("ace", seed=1)
    _, m2 = run("ace", seed=2)
    assert m1.p95_latency() != m2.p95_latency()


def test_burst_faster_than_pace_on_clean_link():
    """With ample bandwidth and buffer, bursting beats pacing on latency
    (the Fig. 10 'sufficient buffer' regime)."""
    _, burst = run("always-burst")
    _, pace = run("always-pace")
    assert burst.p95_latency() < pace.p95_latency()


def test_tiny_buffer_punishes_bursts():
    """Fig. 10: when the bottleneck buffer shrinks, blind bursting loses
    packets; pacing stays clean."""
    trace = BandwidthTrace.constant(20e6, duration=20.0)
    cfg_small = SessionConfig(duration=8.0, queue_capacity_bytes=15_000)
    burst = build_session("always-burst", trace, cfg_small).run()
    pace = build_session("always-pace", trace, cfg_small).run()
    assert burst.loss_rate() > 0.02
    assert pace.loss_rate() < burst.loss_rate()


def test_ace_beats_webrtc_star_latency_at_similar_quality():
    """The headline result (Fig. 12), small-scale: ACE cuts P95 latency
    versus WebRTC* while staying within a few VMAF points."""
    trace = make_wifi_trace(RngStream(11, "trace"), duration=40.0)
    cfg = SessionConfig(duration=20.0, seed=3)
    ace = build_session("ace", trace, cfg).run()
    star = build_session("webrtc-star", trace, SessionConfig(duration=20.0, seed=3)).run()
    assert ace.p95_latency() < 0.85 * star.p95_latency()
    assert ace.mean_vmaf() > star.mean_vmaf() - 5.0


def test_cbr_lowest_latency_but_lower_quality_on_gaming():
    # Start near the bitrate cap so the GCC ramp (where the two rate
    # controllers behave alike) does not dominate the short test run.
    trace = make_wifi_trace(RngStream(11, "trace"), duration=60.0)
    cfg = dict(duration=30.0, seed=3, initial_bwe_bps=20e6)
    cbr = build_session("cbr", trace, SessionConfig(**cfg)).run()
    star = build_session("webrtc-star", trace, SessionConfig(**cfg)).run()
    assert cbr.p95_latency() < star.p95_latency()
    assert cbr.mean_vmaf() < star.mean_vmaf()


def test_retransmission_recovers_random_loss():
    trace = BandwidthTrace.constant(20e6, duration=20.0)
    cfg = SessionConfig(duration=8.0, random_loss_rate=0.02)
    session = build_session("webrtc-star", trace, cfg)
    m = session.run()
    assert session.sender.retransmissions > 0
    # most frames still display despite 2% random loss
    assert len(m.displayed_frames()) > 0.8 * len(m.frames)
    assert any(f.had_retransmission for f in m.displayed_frames())


def test_gcc_adapts_to_bandwidth_drop():
    """Fig. 20: BWE falls after a sharp bandwidth drop."""
    trace = make_step_trace(high_mbps=25, low_mbps=5, step_at=6.0, duration=20.0)
    session, m = run("webrtc-star", trace=trace, duration=12.0)
    hist = m.bwe_history
    before = np.mean([b for t, b in hist if 4.0 < t < 6.0])
    after = np.mean([b for t, b in hist if 9.0 < t < 12.0])
    assert after < before * 0.7


def test_encoder_target_follows_bwe():
    session, m = run("webrtc-star", duration=6.0)
    sizes = [f.size_bytes for f in m.frames[-60:]]
    bwe = m.bwe_history[-1][1]
    achieved = np.mean(sizes) * 8 * 30
    assert achieved == pytest.approx(0.95 * bwe, rel=0.35)


def test_cross_traffic_session_runs():
    trace = BandwidthTrace.constant(30e6, duration=30.0)
    cfg = SessionConfig(duration=10.0, cross_traffic=True,
                        cross_traffic_interarrival=2.0)
    session = build_session("ace", trace, cfg)
    m = session.run()
    assert session.cross_traffic is not None
    assert len(m.displayed_frames()) > 250


def test_ace_n_bucket_adapts_during_session():
    trace = make_wifi_trace(RngStream(11, "trace"), duration=30.0)
    session, m = run("ace-n", trace=trace, duration=10.0)
    log = session.sender.ace_n.log
    assert len(log) > 10
    sizes = set(log.after)
    assert len(sizes) > 3  # it actually moved


def test_ace_c_elevates_only_tail_frames():
    trace = BandwidthTrace.constant(20e6, duration=40.0)
    cfg = SessionConfig(duration=15.0, seed=2, initial_bwe_bps=15e6)
    session = build_session("ace-c", trace, cfg)
    m = session.run()
    levels = session.sender.ace_c.log.after
    frac = sum(level > 0 for level in levels) / len(levels)
    assert 0.0 < frac < 0.5
    levels = {f.complexity_level for f in m.frames}
    assert 0 in levels and len(levels) > 1

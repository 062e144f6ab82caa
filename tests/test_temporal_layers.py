"""Tests for temporal-layer frame dropping (graceful fps degradation)."""

import pytest

from repro.net.trace import BandwidthTrace
from repro.rtc.baselines import build_session
from repro.rtc.session import SessionConfig


def run(temporal_layers, rate_mbps, duration=8.0, seed=4):
    trace = BandwidthTrace.constant(rate_mbps * 1e6, duration=duration + 10)
    cfg = SessionConfig(duration=duration, seed=seed, initial_bwe_bps=8e6)
    session = build_session("webrtc-star", trace, cfg)
    session.sender.temporal_layers = temporal_layers
    metrics = session.run()
    return session, metrics


def test_disabled_by_default():
    session, _ = run(temporal_layers=1, rate_mbps=6.0)
    assert session.sender.frames_dropped == 0


def test_nearly_no_drops_on_ample_link():
    """An ample link only sees a handful of drops during the GCC ramp
    (the encoder briefly outruns the low initial estimate)."""
    session, metrics = run(temporal_layers=2, rate_mbps=30.0)
    assert session.sender.frames_dropped < 0.1 * len(metrics.frames)
    assert metrics.received_fps() > 26.0


def test_drops_under_pressure_without_stalling_display():
    """On a squeezed link the enhancement layer drops; the receiver
    advances past the gaps immediately instead of waiting out the skip
    deadline."""
    session, metrics = run(temporal_layers=2, rate_mbps=4.0)
    assert session.sender.frames_dropped > 10
    # base layer (even ids) still flows
    displayed_ids = {f.frame_id for f in metrics.displayed_frames()}
    even = [i for i in displayed_ids if i % 2 == 0]
    assert len(even) > 0.6 * (len(metrics.frames) / 2)
    # receiver knew about the gaps through the continuity signal, not
    # the 0.4 s timeout path
    rx = session.receiver
    assert rx.skipped_frames >= session.sender.frames_dropped


def test_dropping_reduces_latency_on_squeezed_link():
    _, with_drop = run(temporal_layers=2, rate_mbps=4.0)
    _, without = run(temporal_layers=1, rate_mbps=4.0)
    assert with_drop.p95_latency() < without.p95_latency()
    assert with_drop.received_fps() < without.received_fps() + 1


def test_only_enhancement_frames_dropped():
    session, metrics = run(temporal_layers=2, rate_mbps=4.0)
    sent_ids = {f.frame_id for f in metrics.frames}
    captured = max(sent_ids) + 1
    dropped_ids = set(range(captured)) - sent_ids
    assert dropped_ids, "some frames must have been dropped"
    assert all(i % 2 == 1 for i in dropped_ids), \
        "only odd (enhancement) frames may drop"

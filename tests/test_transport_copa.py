"""Tests for the Copa-style congestion controller."""

import pytest

from repro.net.trace import BandwidthTrace
from repro.rtc.baselines import build_session
from repro.rtc.session import SessionConfig
from repro.transport.cc.copa import CopaController
from repro.transport.feedback import FeedbackMessage, ReportBatch


def message(now, owds, start_seq=0, spacing=0.005, size=1200):
    sends = [now - 0.05 + i * spacing for i in range(len(owds))]
    reports = ReportBatch(
        seqs=list(range(start_seq, start_seq + len(owds))), send_times=sends,
        arrival_times=[send + owd for send, owd in zip(sends, owds)],
        sizes=[size] * len(owds))
    return FeedbackMessage(created_at=now, reports=reports,
                           highest_seq=start_seq + len(owds) - 1)


def drive(cc, rounds, owd_fn, t0=0.0, seq0=0):
    t, seq = t0, seq0
    cc.observe_reverse_delay(0.01)
    for i in range(rounds):
        owds = [owd_fn(i)] * 4
        cc.on_feedback(message(t, owds, start_seq=seq), now=t)
        seq += 4
        t += 0.05
    return t, seq


def test_grows_when_queue_empty():
    cc = CopaController(initial_bwe_bps=1e6)
    drive(cc, rounds=40, owd_fn=lambda i: 0.02)  # floor delay: target huge
    assert cc.bwe_bps > 1e6


def test_backs_off_when_queue_builds():
    cc = CopaController(initial_bwe_bps=20e6)
    # establish the floor, then sustained +60 ms queueing delay
    t, seq = drive(cc, rounds=10, owd_fn=lambda i: 0.02)
    before = cc.bwe_bps
    drive(cc, rounds=300, owd_fn=lambda i: 0.08, t0=t, seq0=seq)
    # target = packet_bits/delta/queue_delay = 9600/0.5/0.06 = 320 kbps;
    # the rate walks down toward it
    assert cc.bwe_bps < 0.5 * before


def test_velocity_doubles_on_consecutive_moves():
    cc = CopaController(initial_bwe_bps=1e6)
    drive(cc, rounds=10, owd_fn=lambda i: 0.02)
    assert cc._velocity > 1.0


def test_velocity_resets_on_direction_change():
    cc = CopaController(initial_bwe_bps=1e6)
    t, seq = drive(cc, rounds=10, owd_fn=lambda i: 0.02)   # increasing
    peak = cc._velocity
    assert peak > 2.0
    # a huge standing queue flips the direction once the standing window
    # rolls past the old floor samples; the velocity restarts from 1
    velocities = []
    cc.observe_reverse_delay(0.01)
    for i in range(6):
        cc.on_feedback(message(t, [0.50] * 4, start_seq=seq), now=t)
        velocities.append(cc._velocity)
        seq += 4
        t += 0.05
    assert min(velocities) == 1.0
    assert max(velocities[3:]) < peak


def test_delta_tradeoff():
    """Smaller delta (more throughput-hungry) targets a higher rate."""
    aggressive = CopaController(initial_bwe_bps=1e6, delta=0.1)
    conservative = CopaController(initial_bwe_bps=1e6, delta=1.0)
    for cc in (aggressive, conservative):
        t, seq = drive(cc, rounds=5, owd_fn=lambda i: 0.02)
        drive(cc, rounds=40, owd_fn=lambda i: 0.04, t0=t, seq0=seq)
    assert aggressive.bwe_bps > conservative.bwe_bps


def test_invalid_delta():
    with pytest.raises(ValueError):
        CopaController(delta=0.0)


def test_pipeline_run_with_copa():
    trace = BandwidthTrace.constant(20e6, duration=15.0)
    cfg = SessionConfig(duration=5.0, seed=3, initial_bwe_bps=4e6)
    session = build_session("webrtc-star", trace, cfg, cc_override="copa")
    metrics = session.run()
    assert isinstance(session.flow.cc, CopaController)
    assert len(metrics.displayed_frames()) > 100
    assert metrics.loss_rate() < 0.05

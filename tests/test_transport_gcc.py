"""Tests for the GCC congestion controller."""

import pytest

from repro.transport.cc.gcc import GccController, OveruseDetector, TrendlineEstimator
from repro.transport.feedback import FeedbackMessage, ReportBatch


def feedback(reports, now, highest=None, lost=0, nacks=()):
    return FeedbackMessage(
        created_at=now, reports=reports, nacked_seqs=list(nacks),
        highest_seq=highest if highest is not None else (
            max(reports.seqs, default=-1)),
        cumulative_lost=lost,
    )


def steady_reports(start_seq, t0, n=10, owd=0.02, spacing=0.01, size=1200):
    sends = [t0 + i * spacing for i in range(n)]
    return ReportBatch(seqs=list(range(start_seq, start_seq + n)),
                       send_times=sends,
                       arrival_times=[send + owd for send in sends],
                       sizes=[size] * n)


class TestTrendline:
    def test_flat_delay_gives_near_zero_slope(self):
        tl = TrendlineEstimator()
        slope = None
        for i in range(30):
            slope = tl.update(0.0, arrival_time=i * 0.01)
        assert abs(slope) < 1e-6

    def test_rising_delay_gives_positive_slope(self):
        tl = TrendlineEstimator()
        slope = None
        for i in range(30):
            slope = tl.update(0.001, arrival_time=i * 0.01)
        assert slope > 0

    def test_falling_delay_gives_negative_slope(self):
        tl = TrendlineEstimator()
        slope = None
        for i in range(30):
            slope = tl.update(-0.001, arrival_time=i * 0.01)
        assert slope < 0

    def test_time_window_evicts_old_samples(self):
        tl = TrendlineEstimator(time_windowed=True)
        for i in range(100):
            tl.update(0.0, arrival_time=i * 0.01)
        assert len(tl._samples) <= 22  # ~200ms / 10ms + margin


class TestOveruseDetector:
    def test_normal_within_threshold(self):
        det = OveruseDetector()
        assert det.detect(1.0, now=0.0) == "normal"

    def test_overuse_requires_sustained_signal(self):
        det = OveruseDetector()
        first = det.detect(20.0, now=0.0)
        later = det.detect(20.0, now=0.02)
        assert first == "normal"  # not sustained yet
        assert later == "overuse"

    def test_underuse_on_negative_trend(self):
        det = OveruseDetector()
        assert det.detect(-20.0, now=0.0) == "underuse"

    def test_threshold_adapts_up_under_large_trends(self):
        det = OveruseDetector()
        t0 = det.threshold
        for i in range(100):
            det.detect(30.0, now=i * 0.05)
        assert det.threshold > t0


class TestGccController:
    def test_increases_when_network_clean(self):
        cc = GccController(initial_bwe_bps=2e6)
        t = 0.0
        for round_ in range(40):
            reports = steady_reports(round_ * 10, t, owd=0.02)
            cc.on_feedback(feedback(reports, now=t + 0.05), now=t + 0.05)
            t += 0.05
        assert cc.bwe_bps > 2e6

    def test_growth_capped_by_acked_rate(self):
        cc = GccController(initial_bwe_bps=2e6)
        t = 0.0
        for round_ in range(100):
            # ~1200*10 bytes per 50 ms = 1.92 Mbps delivered
            reports = steady_reports(round_ * 10, t, owd=0.02)
            cc.on_feedback(feedback(reports, now=t + 0.05), now=t + 0.05)
            t += 0.05
        assert cc.bwe_bps < 1.6 * 1.92e6 + 100_000

    def test_decreases_on_rising_delay(self):
        cc = GccController(initial_bwe_bps=10e6)
        t = 0.0
        owd = 0.02
        for round_ in range(60):
            reports = steady_reports(round_ * 10, t, owd=owd)
            cc.on_feedback(feedback(reports, now=t + 0.05), now=t + 0.05)
            t += 0.05
            owd += 0.012  # queue building: +240 ms per second
        assert cc.bwe_bps < 10e6

    def test_heavy_loss_cuts_estimate(self):
        cc = GccController(initial_bwe_bps=10e6)
        reports = steady_reports(0, 0.0)
        cc.on_feedback(feedback(reports, now=0.05), now=0.05)
        # 30% of new packets lost in the next interval
        msg = feedback(steady_reports(10, 0.05), now=0.10, highest=30, lost=6)
        cc.on_feedback(msg, now=0.10)
        assert cc.bwe_bps < 10e6

    def test_bwe_respects_bounds(self):
        cc = GccController(initial_bwe_bps=2e6, min_bwe_bps=1e6, max_bwe_bps=3e6)
        t = 0.0
        for round_ in range(200):
            reports = steady_reports(round_ * 10, t, owd=0.02, size=12000)
            cc.on_feedback(feedback(reports, now=t + 0.05), now=t + 0.05)
            t += 0.05
        assert cc.bwe_bps <= 3e6

    def test_rtt_tracking(self):
        cc = GccController()
        cc.observe_rtt(0.05)
        cc.observe_rtt(0.03)
        cc.observe_rtt(0.08)
        assert cc.rtt_min == 0.03
        assert cc.rtt_last == 0.08

    def test_history_recorded(self):
        cc = GccController(initial_bwe_bps=2e6)
        t = 0.0
        for round_ in range(10):
            reports = steady_reports(round_ * 10, t)
            cc.on_feedback(feedback(reports, now=t + 0.05), now=t + 0.05)
            t += 0.05
        assert len(cc.log) > 0
        assert all(bwe > 0 for bwe in cc.log.after)

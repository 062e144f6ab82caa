"""Tests for the PacketPair capacity estimator."""

import numpy as np
import pytest

from repro.net import packet_pair
from repro.net.packet_pair import (MIN_SAMPLES, WINDOW,
                                    PacketPairEstimator)


def feed_pairs(est, capacity_bps, n=10, size=1200, start=0.0):
    """Feed n back-to-back pairs crossing a bottleneck of capacity_bps,
    one pair per feedback interval."""
    t = start
    for _ in range(n):
        spacing = size * 8 / capacity_bps
        est.on_lists([t, t + 1e-5], [t + 0.015, t + 0.015 + spacing],
                     [size, size])
        t += 0.05


def test_estimates_capacity_from_pairs():
    est = PacketPairEstimator()
    feed_pairs(est, capacity_bps=10e6)
    assert est.capacity_bps() == pytest.approx(10e6, rel=0.01)


def test_no_estimate_before_min_samples():
    est = PacketPairEstimator()
    feed_pairs(est, 10e6, n=MIN_SAMPLES - 1)
    assert est.capacity_bps() is None
    feed_pairs(est, 10e6, n=1)
    assert est.capacity_bps() == pytest.approx(10e6, rel=0.01)


def test_spread_out_sends_are_ignored():
    est = PacketPairEstimator()
    sends = [0.01 * i for i in range(20)]  # 10 ms apart: not back-to-back
    est.on_lists(sends, [t + 0.015 for t in sends], [1200] * 20)
    assert est.capacity_bps() is None


def test_reordered_arrivals_are_ignored(monkeypatch):
    monkeypatch.setattr(packet_pair, "MIN_SAMPLES", 1)
    est = PacketPairEstimator()
    # The second arrived earlier: reordered.
    est.on_lists([0.0, 0.00001], [0.020, 0.019], [1200, 1200])
    assert est.capacity_bps() is None       # one sample would answer


def test_a_subnormal_arrival_gap_gives_no_sample_on_either_lane(
        monkeypatch):
    # 480 bits over 5e-324 s overflows to an infinite capacity.
    monkeypatch.setattr(packet_pair, "MIN_SAMPLES", 1)
    lists, arrays = PacketPairEstimator(), PacketPairEstimator()
    columns = [-0.0625, -0.0625], [0.0, 5e-324], [60, 60]
    lists.on_lists(*columns)
    arrays.on_arrays(*(np.array(column) for column in columns))
    assert lists.capacity_bps() is None and arrays.capacity_bps() is None


def test_both_lanes_carry_the_previous_report_across_intervals():
    lists, arrays = PacketPairEstimator(), PacketPairEstimator()
    sends = [0.0, 1e-5, 2e-5, 3e-5, 1.0, 1.00001]
    arrivals = [0.02, 0.021, 0.0215, 0.023, 1.02, 1.0203]
    sizes = [1200, 600, 1200, 300, 1200, 1200]
    for cut in ((0, 2), (2, 3), (3, 6)):
        columns = [column[slice(*cut)] for column in (sends, arrivals, sizes)]
        lists.on_lists(*columns)
        arrays.on_arrays(*(np.array(column) for column in columns))
    assert list(lists._samples) == list(arrays._samples)
    assert len(lists._samples) == 4


def test_median_robust_to_outliers():
    est = PacketPairEstimator()
    feed_pairs(est, 10e6, n=9)
    # one wild outlier pair (cross-traffic squeezed the spacing)
    est.on_lists([10.0, 10.00001], [10.015, 10.015 + 1e-6], [1200, 1200])
    assert est.capacity_bps() == pytest.approx(10e6, rel=0.05)


def test_window_bounds_memory():
    est = PacketPairEstimator()
    feed_pairs(est, 10e6, n=WINDOW + 20)
    assert len(est._samples) == WINDOW


# ---------------------------------------------------------------------------
# against the simulator's truth (ROADMAP item 21(a), the PacketPair half)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["reference", "batch"])
def test_capacity_matches_the_trace_at_each_feedback(engine, monkeypatch):
    """ACE-N converts its queue delay to bytes with PacketPair's capacity
    (§4.1), so at each feedback that capacity, over the trace's, must sit
    at 1 on a constant link. Measured on ``ace``, const:20, seed 2, 20 s,
    both engines alike: 409 feedbacks, the ratio's p5/p50/p95 =
    1.000/1.000/1.000; 9 readings below 1, the lowest 0.962 (feedback
    226); the highest 1 + 8.5e-13. The bounds below sit outside those
    readings."""
    from repro.core.queue_estimator import QueueEstimator
    from repro.net.trace import BandwidthTrace
    from repro.rtc.baselines import build_session
    from repro.rtc.session import SessionConfig

    ratios, on_feedback = [], QueueEstimator.on_feedback

    def recording(estimator, message, now, *args, **kwargs):
        on_feedback(estimator, message, now, *args, **kwargs)
        ratios.append(estimator.packet_pair.capacity_bps() / 20e6)

    monkeypatch.setattr(QueueEstimator, "on_feedback", recording)
    session = build_session("ace", BandwidthTrace.constant(20e6, duration=30),
                            SessionConfig(duration=20.0, seed=2),
                            engine=engine)
    session.run()
    assert getattr(session.engine, "fallback_reason", None) is None
    assert len(ratios) > 400
    p5, p50, p95 = np.percentile(ratios, [5, 50, 95])
    assert p5 >= 0.99 and abs(p50 - 1.0) < 1e-9 and p95 <= 1.0 + 1e-9
    assert 0.9 <= min(ratios) and max(ratios) <= 1.0 + 1e-9

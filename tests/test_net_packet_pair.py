"""Tests for the PacketPair capacity estimator."""

import pytest

from repro.net.packet_pair import PacketPairEstimator


def feed_pairs(est, capacity_bps, n=10, size=1200, start=0.0):
    """Feed n back-to-back pairs crossing a bottleneck of capacity_bps."""
    t = start
    for _ in range(n):
        spacing = size * 8 / capacity_bps
        est.on_packet(t, t + 0.015, size)
        est.on_packet(t + 1e-5, t + 0.015 + spacing, size)
        t += 0.05


def test_estimates_capacity_from_pairs():
    est = PacketPairEstimator()
    feed_pairs(est, capacity_bps=10e6)
    assert est.capacity_bps() == pytest.approx(10e6, rel=0.01)


def test_no_estimate_before_min_samples():
    est = PacketPairEstimator(min_samples=5)
    feed_pairs(est, 10e6, n=2)
    assert est.capacity_bps() is None


def test_spread_out_sends_are_ignored():
    est = PacketPairEstimator()
    t = 0.0
    for _ in range(20):
        est.on_packet(t, t + 0.015, 1200)
        t += 0.01  # 10 ms apart: not back-to-back
    assert est.capacity_bps() is None


def test_reordered_arrivals_are_ignored():
    est = PacketPairEstimator(min_samples=1)
    est.on_packet(0.0, 0.020, 1200)
    est.on_packet(0.00001, 0.019, 1200)  # arrived earlier: reordered
    assert est.capacity_bps() is None       # one sample would answer


def test_median_robust_to_outliers():
    est = PacketPairEstimator(min_samples=3)
    feed_pairs(est, 10e6, n=9)
    # one wild outlier pair (cross-traffic squeezed the spacing)
    est.on_packet(10.0, 10.015, 1200)
    est.on_packet(10.00001, 10.015 + 1e-6, 1200)
    assert est.capacity_bps() == pytest.approx(10e6, rel=0.05)


def test_window_bounds_memory():
    est = PacketPairEstimator(window=5)
    feed_pairs(est, 10e6, n=20)
    assert len(est._samples) == 5


def test_invalid_window():
    with pytest.raises(ValueError):
        PacketPairEstimator(window=0)

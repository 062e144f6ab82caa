"""Tests for the token bucket primitive."""

import pytest

from repro.core.token_bucket import TokenBucket


def empty_bucket(rate_bps, bucket_bytes, now):
    """A bucket drained at ``now`` (a new one starts full)."""
    tb = TokenBucket(rate_bps, bucket_bytes, now=now)
    assert tb.consume(bucket_bytes, now)
    return tb


def test_starts_full_by_default():
    tb = TokenBucket(rate_bps=8e6, bucket_bytes=10_000, now=0.0)
    assert tb.level_at(0.0) == 10_000


def test_consume_depletes():
    tb = TokenBucket(rate_bps=8e6, bucket_bytes=10_000, now=0.0)
    assert tb.consume(6_000, 0.0)
    assert tb.level_at(0.0) == pytest.approx(4_000)
    assert not tb.consume(5_000, 0.0)


def test_refill_at_rate():
    tb = empty_bucket(8e6, 10_000, 0.0)
    # 8 Mbps = 1 MB/s -> 1000 bytes per ms
    assert tb.level_at(0.005) == pytest.approx(5_000)


def test_refill_caps_at_bucket_size():
    tb = empty_bucket(8e6, 10_000, 0.0)
    assert tb.level_at(10.0) == 10_000


def test_time_until_available():
    tb = empty_bucket(8e6, 10_000, 0.0)
    assert tb.take(1_000, 0.0) == pytest.approx(0.001)
    assert tb.level_at(0.0) == 0.0  # a wait takes nothing
    tb = TokenBucket(rate_bps=8e6, bucket_bytes=10_000, now=0.0)
    assert tb.take(1_000, 0.0) == 0.0


def test_oversize_demand_clamped_to_bucket():
    """A packet larger than the bucket waits only until the bucket fills."""
    tb = empty_bucket(8e6, 1_000, 0.0)
    assert tb.take(5_000, 0.0) == pytest.approx(0.001)


def test_epsilon_tolerance_prevents_stall():
    """Regression for the float-starvation spin: being short by less than
    an epsilon byte must count as available."""
    tb = TokenBucket(rate_bps=5_305_926.4, bucket_bytes=31_200.0, now=0.0)
    tb._tokens = 1199.999999999961
    assert tb.take(1200, 0.0) == 0.0
    assert tb.level_at(0.0) >= 0.0
    tb._tokens = 1199.999999999961
    assert tb.consume(1200, 0.0)
    assert tb.level_at(0.0) >= 0.0


def test_resize_spills_excess():
    tb = TokenBucket(rate_bps=8e6, bucket_bytes=10_000, now=0.0)
    tb.set_bucket_size(4_000, now=0.0)
    assert tb.level_at(0.0) == 4_000


def test_resize_up_keeps_tokens():
    tb = TokenBucket(rate_bps=8e6, bucket_bytes=4_000, now=0.0)
    tb.set_bucket_size(10_000, now=0.0)
    assert tb.level_at(0.0) == 4_000  # tokens keep accruing from here


def test_rate_change_refills_at_old_rate_first():
    tb = empty_bucket(8e6, 100_000, 0.0)
    tb.set_rate(16e6, now=0.01)  # 10 ms at 1 MB/s = 10 KB accrued
    assert tb.level_at(0.01) == pytest.approx(10_000)
    # after the change, refill at 2 MB/s
    assert tb.level_at(0.02) == pytest.approx(30_000)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        TokenBucket(rate_bps=0, bucket_bytes=1000)
    with pytest.raises(ValueError):
        TokenBucket(rate_bps=1e6, bucket_bytes=0)


def test_set_rate_rejects_non_positive():
    """Regression: set_rate silently floored to 1 bps while the
    constructor raised — both paths must reject the same inputs."""
    tb = TokenBucket(rate_bps=1e6, bucket_bytes=10_000, now=0.0)
    with pytest.raises(ValueError):
        tb.set_rate(0.0, now=1.0)
    with pytest.raises(ValueError):
        tb.set_rate(-5.0, now=1.0)
    assert tb.rate_bps == 1e6  # rejected calls leave the rate untouched
    tb.set_rate(2e6, now=1.0)
    assert tb.rate_bps == 2e6


def test_time_never_flows_backwards():
    tb = empty_bucket(8e6, 10_000, 1.0)
    tb.take(0.0, 2.0)               # refill up to t=2
    # a stale query must not subtract tokens
    before = tb.level_at(2.0)
    assert tb.level_at(1.5) == before
    tb.take(0.0, 1.5)
    assert tb.level_at(2.0) == before

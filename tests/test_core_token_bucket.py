"""Tests for the token bucket primitive."""

import pytest

from repro.core.token_bucket import TokenBucket


def test_starts_full_by_default():
    tb = TokenBucket(rate_bps=8e6, bucket_bytes=10_000, now=0.0)
    assert tb.tokens(0.0) == 10_000


def test_consume_depletes():
    tb = TokenBucket(rate_bps=8e6, bucket_bytes=10_000, now=0.0)
    assert tb.consume(6_000, 0.0)
    assert tb.tokens(0.0) == pytest.approx(4_000)
    assert not tb.consume(5_000, 0.0)


def test_refill_at_rate():
    tb = TokenBucket(rate_bps=8e6, bucket_bytes=10_000, initial_fill=0.0, now=0.0)
    # 8 Mbps = 1 MB/s -> 1000 bytes per ms
    assert tb.tokens(0.005) == pytest.approx(5_000)


def test_refill_caps_at_bucket_size():
    tb = TokenBucket(rate_bps=8e6, bucket_bytes=10_000, initial_fill=0.0, now=0.0)
    assert tb.tokens(10.0) == 10_000


def test_time_until_available():
    tb = TokenBucket(rate_bps=8e6, bucket_bytes=10_000, initial_fill=0.0, now=0.0)
    assert tb.time_until_available(1_000, 0.0) == pytest.approx(0.001)
    tb = TokenBucket(rate_bps=8e6, bucket_bytes=10_000, now=0.0)
    assert tb.time_until_available(1_000, 0.0) == 0.0


def test_oversize_demand_clamped_to_bucket():
    """A packet larger than the bucket waits only until the bucket fills."""
    tb = TokenBucket(rate_bps=8e6, bucket_bytes=1_000, initial_fill=0.0, now=0.0)
    assert tb.time_until_available(5_000, 0.0) == pytest.approx(0.001)


def test_epsilon_tolerance_prevents_stall():
    """Regression for the float-starvation spin: being short by less than
    an epsilon byte must count as available."""
    tb = TokenBucket(rate_bps=5_305_926.4, bucket_bytes=31_200.0, now=0.0)
    tb._tokens = 1199.999999999961
    assert tb.time_until_available(1200, 0.0) == 0.0
    assert tb.consume(1200, 0.0)
    assert tb.tokens(0.0) >= 0.0


def test_resize_spills_excess():
    tb = TokenBucket(rate_bps=8e6, bucket_bytes=10_000, now=0.0)
    tb.set_bucket_size(4_000, now=0.0)
    assert tb.tokens(0.0) == 4_000


def test_resize_up_keeps_tokens():
    tb = TokenBucket(rate_bps=8e6, bucket_bytes=4_000, now=0.0)
    tb.set_bucket_size(10_000, now=0.0)
    assert tb.tokens(0.0) == 4_000  # tokens keep accruing from here


def test_rate_change_refills_at_old_rate_first():
    tb = TokenBucket(rate_bps=8e6, bucket_bytes=100_000, initial_fill=0.0, now=0.0)
    tb.set_rate(16e6, now=0.01)  # 10 ms at 1 MB/s = 10 KB accrued
    assert tb.tokens(0.01) == pytest.approx(10_000)
    # after the change, refill at 2 MB/s
    assert tb.tokens(0.02) == pytest.approx(30_000)


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
    tb = TokenBucket(rate_bps=8e6, bucket_bytes=10_000, initial_fill=0.0, now=1.0)
    tb.tokens(2.0)
    # a stale query must not subtract tokens
    before = tb.tokens(2.0)
    assert tb.tokens(1.5) == before

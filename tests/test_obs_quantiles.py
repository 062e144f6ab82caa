"""Shared quantile helpers: the one nearest-rank implementation.

These helpers replaced three hand-rolled percentile copies (live
supervisor, fleet heartbeats, check_perf --live-load), so the rank
convention here is contractual: changing it silently shifts every
reported fleet pacing number.
"""

from __future__ import annotations

import math

import pytest

from repro.obs import clean_samples, histogram_quantile, percentiles
from repro.obs.registry import Histogram


# ---------------------------------------------------------------------------
# clean_samples
# ---------------------------------------------------------------------------
def test_clean_samples_drops_none_and_nan_keeps_inf():
    values = [1.0, None, float("nan"), math.inf, -2.5, float("-nan")]
    assert clean_samples(values) == [1.0, math.inf, -2.5]


def test_clean_samples_empty_and_all_invalid():
    assert clean_samples([]) == []
    assert clean_samples([None, float("nan")]) == []


# ---------------------------------------------------------------------------
# percentiles (nearest rank)
# ---------------------------------------------------------------------------
def test_percentiles_legacy_rank_convention():
    # Exactly the convention the live supervisor always used:
    # rank = round(p/100 * (n-1)) on the sorted sample.
    values = list(range(100))
    assert percentiles(values, (50, 99)) == (50, 98)
    assert percentiles(values, (0, 100)) == (0, 99)


def test_percentiles_empty_gives_none_per_pct():
    assert percentiles([], (50, 90, 99)) == (None, None, None)
    assert percentiles([None, float("nan")], (50,)) == (None,)


def test_percentiles_singleton_and_unsorted_input():
    assert percentiles([7.0], (1, 50, 99)) == (7.0, 7.0, 7.0)
    assert percentiles([3.0, 1.0, 2.0], (0, 50, 100)) == (1.0, 2.0, 3.0)


def test_percentiles_skips_nan_instead_of_poisoning_sort():
    values = [5.0, float("nan"), 1.0, None, 3.0]
    assert percentiles(values, (0, 50, 100)) == (1.0, 3.0, 5.0)


def test_percentile_single():
    assert percentiles([], (99,)) == (None,)
    assert percentiles([1.0, 2.0, 3.0], (50,)) == (2.0,)


# ---------------------------------------------------------------------------
# histogram_quantile
# ---------------------------------------------------------------------------
def test_histogram_quantile_empty_histogram_is_none():
    h = Histogram("x", buckets=(1.0, 2.0))
    assert histogram_quantile(h.cumulative(), 99) is None
    assert histogram_quantile([], 99) is None


def test_histogram_quantile_interpolates_within_bucket():
    h = Histogram("x", buckets=(1.0, 2.0, 4.0))
    for v in (0.5, 0.5, 1.5, 1.5):
        h.observe(v)
    # Median target = 2 of 4 samples -> upper edge of the first bucket.
    assert histogram_quantile(h.cumulative(), 50) == pytest.approx(1.0)
    # 75% target = 3 samples -> halfway through the (1, 2] bucket.
    assert histogram_quantile(h.cumulative(), 75) == pytest.approx(1.5)


def test_histogram_quantile_saturates_at_largest_finite_bound():
    # Values past the top bucket must report the top bound, not +inf —
    # the SLO watchdog compares this estimate against finite bounds.
    h = Histogram("x", buckets=(0.5, 1.0))
    for _ in range(10):
        h.observe(9.0)
    assert histogram_quantile(h.cumulative(), 99) == 1.0


def test_histogram_quantile_clamps_q():
    h = Histogram("x", buckets=(1.0, 2.0))
    h.observe(0.5)
    assert histogram_quantile(h.cumulative(), -5) is not None
    assert histogram_quantile(h.cumulative(), 250) == \
        histogram_quantile(h.cumulative(), 100)


# ---------------------------------------------------------------------------
# property tests (hypothesis): the estimator's contract over all inputs
# ---------------------------------------------------------------------------
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

#: the watchdog-style bucket ladder the properties run against; 2.5 is
#: the largest finite bound, so it is also the saturation ceiling.
_BOUNDS = (0.1, 0.5, 1.0, 2.5)

_samples = st.lists(
    st.floats(min_value=0.0, max_value=10.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=60)


def _filled(samples) -> Histogram:
    h = Histogram("x", buckets=_BOUNDS)
    for v in samples:
        h.observe(v)
    return h


@settings(max_examples=200, deadline=None)
@given(samples=_samples,
       qs=st.lists(st.floats(min_value=0.0, max_value=100.0,
                              allow_nan=False),
                   min_size=2, max_size=6))
def test_histogram_quantile_monotone_in_q(samples, qs):
    """For a fixed histogram, the estimate must be non-decreasing in q —
    a p99 below the p50 would make every SLO threshold meaningless."""
    cum = _filled(samples).cumulative()
    estimates = [histogram_quantile(cum, q) for q in sorted(qs)]
    assert all(e is not None for e in estimates)
    assert all(lo <= hi for lo, hi in zip(estimates, estimates[1:]))


@settings(max_examples=200, deadline=None)
@given(samples=_samples,
       q=st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
def test_histogram_quantile_saturates_at_largest_finite_bound(samples, q):
    """Estimates never escape [0, top-finite-bound]: mass in the +Inf
    overflow bucket reports the 2.5 ceiling, not infinity."""
    cum = _filled(samples).cumulative()
    estimate = histogram_quantile(cum, q)
    assert estimate is not None
    assert 0.0 <= estimate <= _BOUNDS[-1]


@settings(max_examples=100, deadline=None)
@given(samples=st.lists(st.floats(min_value=2.500001, max_value=50.0,
                                  allow_nan=False, allow_infinity=False),
                        min_size=1, max_size=30))
def test_histogram_quantile_overflow_only_mass_reports_ceiling(samples):
    """All samples past the top bucket: every quantile is exactly the
    largest finite bound."""
    cum = _filled(samples).cumulative()
    for q in (1, 50, 99, 100):
        assert histogram_quantile(cum, q) == _BOUNDS[-1]


# ---------------------------------------------------------------------------
# SampleWindow: the ring against a concatenate-then-keep-the-tail model
# ---------------------------------------------------------------------------
_CAPACITY = 8

_batches = st.lists(
    st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
             min_size=0, max_size=2 * _CAPACITY + 3),
    max_size=8)


@settings(max_examples=300, deadline=None)
@given(batches=_batches,
       pcts=st.lists(st.floats(min_value=0.0, max_value=100.0,
                               allow_nan=False), max_size=4))
def test_sample_window_equals_the_concatenating_model(batches, pcts):
    """Batches empty, shorter than the capacity, equal to it and longer:
    after each one the window holds the last ``capacity`` samples in
    order and answers :func:`percentiles` with Python floats, and an
    array it handed out earlier never changes."""
    import numpy as np

    from repro.obs.quantiles import SampleWindow

    window = SampleWindow(_CAPACITY)
    model: list[float] = []
    handed_out = []
    for batch in ([], *batches):
        window.extend(np.array(batch, dtype=np.float64))
        model = (model + batch)[-_CAPACITY:]
        values = window.values
        assert values.tolist() == model
        got = window.percentiles(pcts)
        assert got == percentiles(model, pcts)
        assert all(type(v) is float for v in got if v is not None)
        handed_out.append((values, values.copy()))
    for values, copy in handed_out:
        assert np.array_equal(values, copy)

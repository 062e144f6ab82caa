"""Tests for bandwidth traces and generators."""

import numpy as np
import pytest

from repro.net.trace import (
    TRACE_INTERVAL_S,
    BandwidthTrace,
    TraceLibrary,
    make_4g_trace,
    make_5g_trace,
    make_campus_wifi_trace,
    make_step_trace,
    make_weak_network_trace,
    make_wifi_trace,
    trace_by_kind,
)
from repro.sim.rng import RngStream


def test_constant_trace_rate():
    trace = BandwidthTrace.constant(10e6, duration=10.0)
    assert trace.rate_at(0.0) == 10e6
    assert trace.rate_at(5.0) == 10e6
    assert np.mean(trace.rates_bps) == 10e6


def test_piecewise_lookup():
    trace = BandwidthTrace(timestamps=[0.0, 1.0, 2.0], rates_bps=[1e6, 2e6, 3e6])
    assert trace.rate_at(0.5) == 1e6
    assert trace.rate_at(1.0) == 2e6
    assert trace.rate_at(1.9) == 2e6
    assert trace.rate_at(2.5) == 3e6


def test_trace_loops_past_end():
    trace = BandwidthTrace(timestamps=[0.0, 1.0], rates_bps=[1e6, 2e6])
    # duration = 2.0 (1.0 span + 1.0 median step); t=2.1 wraps to 0.1.
    assert trace.rate_at(2.1) == trace.rate_at(0.1) == 1e6


def test_validation_rejects_bad_traces():
    with pytest.raises(ValueError):
        BandwidthTrace(timestamps=[0.0, 1.0], rates_bps=[1e6])
    with pytest.raises(ValueError):
        BandwidthTrace(timestamps=[], rates_bps=[])
    with pytest.raises(ValueError):
        BandwidthTrace(timestamps=[1.0, 0.5], rates_bps=[1e6, 1e6])
    with pytest.raises(ValueError):
        BandwidthTrace(timestamps=[0.0, 1.0], rates_bps=[1e6, -5.0])


def test_generators_produce_positive_rates():
    rng = RngStream(1, "t")
    for maker in (make_wifi_trace, make_4g_trace, make_5g_trace):
        trace = maker(RngStream(1, maker.__name__), duration=30.0)
        assert min(trace.rates_bps) > 0
        assert len(trace.timestamps) == int(30.0 / TRACE_INTERVAL_S)


def test_trace_sample_interval_matches_paper_format():
    trace = make_wifi_trace(RngStream(1, "x"), duration=10.0)
    steps = [b - a for a, b in zip(trace.timestamps, trace.timestamps[1:])]
    assert all(abs(s - TRACE_INTERVAL_S) < 1e-9 for s in steps)


def test_weak_network_venues():
    for venue in ("canteen", "coffee_shop", "airport"):
        trace = make_weak_network_trace(RngStream(1, venue), venue=venue)
        assert np.mean(trace.rates_bps) < 40e6  # weak networks are slow
    with pytest.raises(ValueError):
        make_weak_network_trace(RngStream(1, "x"), venue="moon-base")


def test_campus_trace_diurnal_load():
    """Midday (peak) campus Wi-Fi should be slower than 4am."""
    peak = make_campus_wifi_trace(RngStream(1, "c"), hour_of_day=16.0)
    night = make_campus_wifi_trace(RngStream(1, "c"), hour_of_day=4.0)
    assert np.mean(night.rates_bps) > np.mean(peak.rates_bps)


def test_step_trace_shape():
    trace = make_step_trace(high_mbps=50, low_mbps=10, step_at=5.0,
                            duration=20.0, recover_at=15.0)
    assert trace.rate_at(1.0) == 50e6
    assert trace.rate_at(10.0) == 10e6
    assert trace.rate_at(16.0) == 50e6


def test_trace_library_statistics_match_paper():
    """Cross-trace median ~55 Mbps, p25 ~29, p75 ~125 (paper §6.1)."""
    lib = TraceLibrary(seed=1, duration=60.0)
    rates = np.concatenate([t.rates_bps for group in lib.traces.values()
                            for t in group]) / 1e6
    assert 35 <= np.median(rates) <= 80
    assert 18 <= np.percentile(rates, 25) <= 45
    assert 80 <= np.percentile(rates, 75) <= 180
    assert sum(len(group) for group in lib.traces.values()) == 9
    for cls in ("wifi", "4g", "5g"):
        assert len(lib.by_class(cls)) == 3
    with pytest.raises(KeyError):
        lib.by_class("dialup")


def test_trace_by_kind_is_the_makers_on_the_callers_stream():
    def same(a, b):
        return a.name == b.name and list(a.rates_bps) == list(b.rates_bps)

    assert same(trace_by_kind("4g", RngStream(2, "s"), 30.0),
                make_4g_trace(RngStream(2, "s"), duration=30.0))
    assert same(trace_by_kind("weak:airport", RngStream(2, "s"), 30.0),
                make_weak_network_trace(RngStream(2, "s"), duration=30.0,
                                        venue="airport"))
    const = trace_by_kind("const:12.50", RngStream(2, "s"), 30.0)
    assert const.name == "const:12.5" and const.rate_at(3.0) == 12.5e6
    for kind, message in (("dialup", "unknown trace 'dialup'"),
                          ("const:x", "wants a number of Mbps"),
                          ("weak:mars", "unknown venue 'mars'")):
        with pytest.raises(ValueError, match=message):
            trace_by_kind(kind, RngStream(2, "s"), 30.0)

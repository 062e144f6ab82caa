"""Tests for the bench harness helpers (tables, workloads)."""

import math

import pytest

from repro.bench.tables import cdf_points, fmt_ms, fmt_pct, print_series, print_table
from repro.bench.workloads import run_baseline, run_baselines, trace_library
from repro.net.trace import BandwidthTrace


class TestFormatting:
    def test_fmt_ms(self):
        assert fmt_ms(0.1234) == "123.4"
        assert fmt_ms(float("nan")) == "n/a"
        assert fmt_ms(None) == "n/a"

    def test_fmt_pct(self):
        assert fmt_pct(0.0123) == "1.23%"
        assert fmt_pct(float("nan")) == "n/a"

    def test_print_table_output(self, capsys):
        print_table("Demo", ["a", "long-header"], [[1, 2], ["xyz", "w"]])
        out = capsys.readouterr().out
        assert "=== Demo ===" in out
        assert "long-header" in out
        assert "xyz" in out

    def test_print_series_downsamples(self, capsys):
        xs = list(range(1000))
        ys = [x * 2 for x in xs]
        print_series("S", xs, ys, max_points=10)
        out = capsys.readouterr().out
        assert out.count("\n") < 120

    def test_cdf_points(self):
        pts = cdf_points(list(range(1, 101)))
        d = dict(pts)
        assert d[50] == pytest.approx(50.5)
        assert d[99] > d[95] > d[50]
        assert cdf_points([]) == []
        assert cdf_points([None, 1.0])  # Nones filtered


class TestWorkloads:
    def test_trace_library_cached(self):
        assert trace_library(seed=1) is trace_library(seed=1)
        assert trace_library(seed=1) is not trace_library(seed=2)

    def test_run_baseline_returns_metrics(self):
        trace = BandwidthTrace.constant(15e6, duration=10.0)
        m = run_baseline("cbr", trace, duration=2.0)
        assert m.duration == 2.0
        assert len(m.frames) >= 55

    def test_run_baseline_return_session(self):
        trace = BandwidthTrace.constant(15e6, duration=10.0)
        m, session = run_baseline("ace", trace, duration=2.0,
                                  return_session=True)
        assert session.sender.ace_n is not None
        assert m is not None

    def test_run_baselines_same_workload(self):
        trace = BandwidthTrace.constant(15e6, duration=10.0)
        results = run_baselines(["cbr", "webrtc-star"], trace, duration=2.0)
        assert set(results) == {"cbr", "webrtc-star"}
        # same trace/seed -> same capture schedule
        assert len(results["cbr"].frames) == len(results["webrtc-star"].frames)

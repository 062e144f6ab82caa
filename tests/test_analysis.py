"""Tests for the analysis subpackage (results, reports, comparisons)."""

import math

import pytest

from repro.analysis import (
    RunResult,
    compare_runs,
    load_results,
    save_results,
)
from repro.net.trace import BandwidthTrace
from repro.rtc.baselines import build_session
from repro.rtc.session import SessionConfig


@pytest.fixture(scope="module")
def metrics():
    trace = BandwidthTrace.constant(15e6, duration=15.0)
    session = build_session("cbr", trace, SessionConfig(duration=4.0, seed=5,
                                                        initial_bwe_bps=8e6))
    return session.run()


class TestRunResult:
    def test_from_metrics(self, metrics):
        r = RunResult.from_metrics(metrics, baseline="cbr", trace="const",
                                   seed=5)
        assert r.frames == len(metrics.frames)
        assert r.p95_latency == metrics.p95_latency()
        assert (r.baseline, r.trace, r.seed, r.category) \
            == ("cbr", "const", 5, "gaming")

    def test_roundtrip_json(self, metrics, tmp_path):
        r = RunResult.from_metrics(metrics, baseline="cbr", trace="const",
                                   seed=5, note="smoke")
        path = tmp_path / "results.json"
        save_results([r], path)
        loaded = load_results(path)
        assert len(loaded) == 1
        assert [(x.baseline, x.trace, x.seed, x.category)
                for x in (loaded[0], r)] == [("cbr", "const", 5, "gaming")] * 2
        assert loaded[0].p95_latency == pytest.approx(r.p95_latency)
        assert loaded[0].extra == {"note": "smoke"}

    def test_nan_survives_roundtrip(self, tmp_path):
        r = RunResult(baseline="x", trace="t", seed=1, duration=1.0)
        path = tmp_path / "nan.json"
        save_results([r], path)
        loaded = load_results(path)[0]
        assert math.isnan(loaded.p95_latency)


class TestReports:
    def test_compare_runs_relative_to_reference(self, metrics):
        ref = RunResult.from_metrics(metrics, baseline="webrtc-star",
                                     trace="const", seed=5)
        faster = RunResult.from_metrics(metrics, baseline="ace",
                                        trace="const", seed=5)
        faster.p95_latency = ref.p95_latency * 0.5
        text = compare_runs([ref, faster])
        assert "ace" in text and "webrtc-star" in text
        assert "+50%" in text

    def test_compare_runs_without_reference(self, metrics):
        r = RunResult.from_metrics(metrics, baseline="ace", trace="t", seed=1)
        text = compare_runs([r])
        assert "n/a" in text

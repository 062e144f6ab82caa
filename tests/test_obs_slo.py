"""SLO watchdog: rule semantics, hysteresis, drift, alert plumbing."""

from __future__ import annotations

import pytest

from repro.obs import MetricRegistry, SloRule, SloWatchdog, \
    fleet_slo_rules, session_slo_rules
from repro.obs.export import prometheus_snapshot


def make_gauge_watchdog(rule, value=0.0, **kwargs):
    source = MetricRegistry()
    gauge = source.gauge("x.level")
    gauge.set(value)
    return SloWatchdog([rule], source=source, **kwargs), gauge


# ---------------------------------------------------------------------------
# rule validation
# ---------------------------------------------------------------------------
def test_rule_rejects_bad_op_and_for_count():
    with pytest.raises(ValueError, match="op"):
        SloRule("r", "m", op="!=")
    with pytest.raises(ValueError, match="for_count"):
        SloRule("r", "m", for_count=0)


def test_rule_slug_is_prometheus_safe():
    assert SloRule("fleet pacing-p99!", "m").slug() == "fleet_pacing_p99"


# ---------------------------------------------------------------------------
# threshold mode
# ---------------------------------------------------------------------------
def test_threshold_rule_fires_after_for_count_and_clears():
    rule = SloRule("hot", "x.level", threshold=10.0, for_count=2)
    wd, gauge = make_gauge_watchdog(rule)

    gauge.set(20.0)
    assert wd.evaluate(1.0) == []          # streak 1 of 2: no alert yet
    events = wd.evaluate(2.0)              # streak 2: fires
    assert [e["state"] for e in events] == ["firing"]
    assert events[0]["rule"] == "hot" and events[0]["bound"] == 10.0
    assert wd.firing == ["hot"]
    assert wd.evaluate(3.0) == []          # still breaching: no re-fire

    gauge.set(5.0)
    events = wd.evaluate(4.0)
    assert [e["state"] for e in events] == ["cleared"]
    assert wd.firing == []


def test_threshold_streak_resets_on_recovery():
    rule = SloRule("hot", "x.level", threshold=10.0, for_count=3)
    wd, gauge = make_gauge_watchdog(rule)
    for t, v in enumerate([20.0, 20.0, 5.0, 20.0, 20.0]):
        gauge.set(v)
        assert wd.evaluate(float(t)) == []  # never 3 in a row
    assert wd.firing == []


def test_missing_metric_is_skipped_not_fired():
    rule = SloRule("ghost", "no.such.metric", threshold=0.0)
    wd = SloWatchdog([rule], source=MetricRegistry())
    assert wd.evaluate(0.0) == []
    assert wd.firing == []


def test_histogram_quantile_rule():
    source = MetricRegistry()
    h = source.histogram("lat.s", buckets=(0.1, 0.5, 1.0))
    rule = SloRule("p99", "lat.s", quantile=99.0, threshold=0.5,
                   for_count=1)
    wd = SloWatchdog([rule], source=source)
    for _ in range(10):
        h.observe(0.05)
    assert wd.evaluate(1.0) == []
    for _ in range(10):
        h.observe(2.0)  # tail lands in the overflow -> saturates at 1.0
    events = wd.evaluate(2.0)
    assert [e["state"] for e in events] == ["firing"]
    assert events[0]["value"] == 1.0


# ---------------------------------------------------------------------------
# drift mode
# ---------------------------------------------------------------------------
def test_drift_rule_needs_warmup_then_fires_on_sustained_jump():
    rule = SloRule("drift", "x.level", drift=1.0, ewma_alpha=0.5,
                   min_samples=3, for_count=2)
    wd, gauge = make_gauge_watchdog(rule, value=10.0)
    for t in range(4):                     # warm-up: baseline ~10
        assert wd.evaluate(float(t)) == []
    gauge.set(100.0)                       # 10x the baseline
    assert wd.evaluate(10.0) == []         # streak 1 of 2
    events = wd.evaluate(11.0)
    assert [e["state"] for e in events] == ["firing"]
    assert events[0]["mode"] == "drift"
    # Baseline froze at ~10 (breaching samples are not learned), so
    # the stall cannot normalise itself away.
    assert events[0]["bound"] == pytest.approx(20.0)
    gauge.set(10.0)
    assert [e["state"] for e in wd.evaluate(12.0)] == ["cleared"]


def test_drift_floor_suppresses_small_transients():
    # Healthy baseline near zero: without the floor, any benign blip is
    # a huge relative jump. With it, only large-and-drifting fires.
    rule = SloRule("drift", "x.level", drift=1.0, min_samples=2,
                   for_count=1, floor=1000.0)
    wd, gauge = make_gauge_watchdog(rule, value=1.0)
    for t in range(4):
        wd.evaluate(float(t))
    gauge.set(500.0)                       # 500x baseline but under floor
    assert wd.evaluate(10.0) == []
    gauge.set(5000.0)                      # over the floor AND drifting
    events = wd.evaluate(11.0)
    assert [e["state"] for e in events] == ["firing"]


# ---------------------------------------------------------------------------
# alert plumbing
# ---------------------------------------------------------------------------
def test_publish_shard_mirrors_alert_state():
    rule = SloRule("hot", "x.level", threshold=1.0, for_count=1)
    wd, gauge = make_gauge_watchdog(rule)
    gauge.set(5.0)
    wd.evaluate(1.0)
    text = prometheus_snapshot(wd.publish)
    assert "repro_slo_alerts_total 1.0" in text
    assert "repro_slo_firing 1.0" in text
    assert "repro_slo_breached_hot 1.0" in text
    gauge.set(0.0)
    wd.evaluate(2.0)
    text = prometheus_snapshot(wd.publish)
    assert "repro_slo_firing 0.0" in text
    assert "repro_slo_breached_hot 0.0" in text


def test_on_alert_callback_and_summary():
    seen = []
    rule = SloRule("hot", "x.level", threshold=1.0, for_count=1)
    wd, gauge = make_gauge_watchdog(rule, on_alert=seen.append)
    gauge.set(5.0)
    wd.evaluate(1.5)
    assert len(seen) == 1
    assert seen[0]["kind"] == "slo-alert"
    assert seen[0]["at"] == 1.5
    s = wd.summary()
    assert s["rules"] == 1 and s["alerts"] == 1
    assert s["firing"] == ["hot"]
    assert s["events"][-1]["state"] == "firing"


# ---------------------------------------------------------------------------
# default rule sets
# ---------------------------------------------------------------------------
def test_default_rule_sets_shape():
    session = session_slo_rules(pacing_p99_s=0.1)
    assert [r.name for r in session] == ["pacing-p99", "pacer-backlog-drift"]
    assert session[0].metric == "burst.pacing_delay_s"
    assert session[0].threshold == 0.1
    fleet = fleet_slo_rules(pacing_p99_s=0.2)
    assert [r.name for r in fleet] == \
        ["fleet-pacing-p99", "fleet-session-failed"]
    assert fleet[0].threshold == 0.2

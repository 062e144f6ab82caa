"""The fleet dashboard renderer and its Prometheus feed.

Frames are pure functions of (record history, width), so these tests
pin golden frames verbatim: any drift in layout, glyph selection, or
padding shows up as a readable string diff.
"""

from __future__ import annotations

import pytest

from repro.obs.dash import (
    CLEAR,
    RED,
    SPARK_GLYPHS,
    FleetDashboard,
    parse_prometheus,
    record_from_prometheus,
    sparkline,
)


# ---------------------------------------------------------------------------
# sparkline
# ---------------------------------------------------------------------------
def test_sparkline_ramp_uses_full_glyph_range():
    values = [float(i) for i in range(8)]
    assert sparkline(values, 8) == SPARK_GLYPHS


def test_sparkline_flat_window_renders_lowest_glyph():
    assert sparkline([5.0, 5.0, 5.0], 8) == SPARK_GLYPHS[0] * 3
    assert sparkline([0.0, 0.0], 8) == SPARK_GLYPHS[0] * 2


def test_sparkline_none_renders_space_and_window_trims():
    out = sparkline([None, 1.0, 2.0], 8)
    assert out == " " + SPARK_GLYPHS[0] + SPARK_GLYPHS[-1]
    # Only the last `width` samples are drawn.
    assert sparkline([9.0] * 10 + [0.0, 8.0], 2) == \
        SPARK_GLYPHS[0] + SPARK_GLYPHS[-1]
    assert sparkline([None, None], 8) == "  "


def test_sparkline_explicit_bounds_clamp():
    out = sparkline([-5.0, 50.0], 8, lo=0.0, hi=10.0)
    assert out == SPARK_GLYPHS[0] + SPARK_GLYPHS[-1]


# ---------------------------------------------------------------------------
# FleetDashboard golden frames
# ---------------------------------------------------------------------------
def _record(**overrides):
    record = {
        "running": 2, "completed": 1, "failed": 0, "pending": 1,
        "pacing_p99_ms": 42.5,
        "rss_mb": 48.0, "cpu_total_s": 1.25,
        "sessions": {
            "s0-ace": {"status": "running", "frames": 120,
                       "pacing_p99_ms": 40.0},
            "s1-cbr": {"status": "running", "frames": 118,
                       "pacing_p99_ms": 45.0},
        },
    }
    record.update(overrides)
    return record


def test_dashboard_golden_frame_plain():
    dash = FleetDashboard(color=False, clear=False)
    frame = dash.update(_record())
    expected = (
        "live fleet  run 2 ok 1 fail 0 wait 1  p99    42.5 ms    "
        + SPARK_GLYPHS[0] + " " * 23 + "\n"
        "  rss 48 MB  cpu 1.2 s" + " " * 58 + "\n"
        "  s0-ace             running   f   120 p99    40.0 ms   "
        + SPARK_GLYPHS[0] + " " * 23 + "\n"
        "  s1-cbr             running   f   118 p99    45.0 ms   "
        + SPARK_GLYPHS[0] + " " * 23 + "\n"
        "slo: ok" + " " * 73 + "\n"
    )
    assert frame == expected


def test_dashboard_frames_are_fixed_width():
    dash = FleetDashboard(color=False, clear=False)
    dash.update(_record())
    frame = dash.update(_record(pacing_p99_ms=99.9))
    for line in frame.splitlines():
        assert len(line) == 80


def test_dashboard_sparkline_accumulates_history():
    dash = FleetDashboard(color=False, clear=False)
    for p99 in (10.0, 20.0, 30.0):
        frame = dash.update(_record(pacing_p99_ms=p99))
    head = frame.splitlines()[0]
    assert head.rstrip().endswith(
        SPARK_GLYPHS[0] + SPARK_GLYPHS[4] + SPARK_GLYPHS[7])


def test_dashboard_slo_firing_and_failed_rows_highlight():
    dash = FleetDashboard(color=True, clear=False)
    record = _record(slo_firing=["pacing-p99"])
    record["sessions"]["s1-cbr"]["status"] = "failed"
    frame = dash.update(record)
    assert "SLO FIRING: pacing-p99" in frame
    failed_line = next(l for l in frame.splitlines() if "s1-cbr" in l)
    assert failed_line.startswith(RED)


def test_dashboard_plain_mode_has_no_escape_codes():
    dash = FleetDashboard(color=False, clear=False)
    frame = dash.update(_record(slo_firing=["pacing-p99"]))
    assert "\x1b" not in frame


def test_dashboard_clear_prefix_only_when_enabled():
    assert FleetDashboard(color=False, clear=True) \
        .update(_record()).startswith(CLEAR)
    assert not FleetDashboard(color=False, clear=False) \
        .update(_record()).startswith("\x1b")


def test_dashboard_departed_session_keeps_row_with_gap():
    dash = FleetDashboard(color=False, clear=False)
    dash.update(_record())
    gone = _record()
    del gone["sessions"]["s1-cbr"]
    frame = dash.update(gone)
    # The row survives (ring retained) with a gap in its sparkline.
    assert "s1-cbr" in frame


# ---------------------------------------------------------------------------
# Prometheus feed
# ---------------------------------------------------------------------------
_EXPOSITION = """\
# HELP repro_live_sessions_running Sessions currently running
# TYPE repro_live_sessions_running gauge
repro_live_sessions_running{session="fleet"} 2
repro_live_sessions_completed_total{session="fleet"} 1
repro_live_sessions_failed_total{session="fleet"} 0
repro_live_pacing_p99_s{session="fleet"} 0.0425
repro_live_rss_bytes{session="fleet"} 50331648
repro_live_cpu_total_s{session="fleet"} 1.5
repro_slo_firing{session="slo"} 1
repro_slo_breached_pacing_p99{session="slo"} 1
repro_live_status{session="s0-ace",status="running"} 1.0
repro_live_frames{session="s0-ace"} 120.0
repro_live_pacing_p50_ms{session="s0-ace"} 12.25
repro_live_pacing_p99_ms{session="s0-ace"} 40.0
repro_live_cpu_s{session="s0-ace"} 0.75
repro_live_wire_faults{session="s0-ace"} 2
repro_frames_displayed_total{session="s0-ace"} 97
repro_burst_pacing_delay_s_bucket{session="s0-ace",le="0.01"} 50
repro_burst_pacing_delay_s_bucket{session="s0-ace",le="0.1"} 99
repro_burst_pacing_delay_s_bucket{session="s0-ace",le="+Inf"} 100
not a sample line
bad_value{x="y"} notafloat
"""


def test_parse_prometheus_triples():
    samples = parse_prometheus(_EXPOSITION)
    names = [name for name, _, _ in samples]
    assert "repro_live_sessions_running" in names
    assert "bad_value" not in names  # unparsable value skipped
    running = next(s for s in samples
                   if s[0] == "repro_live_sessions_running")
    assert running[1] == {"session": "fleet"} and running[2] == 2.0


def test_record_from_prometheus_rebuilds_heartbeat():
    record = record_from_prometheus(_EXPOSITION)
    assert record["running"] == 2
    assert record["completed"] == 1
    assert record["failed"] == 0
    assert record["pacing_p99_ms"] == pytest.approx(42.5)
    assert record["rss_mb"] == pytest.approx(48.0)
    assert record["cpu_total_s"] == 1.5
    assert record["slo_firing"] == ["pacing-p99"]
    # Each session's row is its live.* gauges under the heartbeat's
    # keys; the displayed-frames counter and the lifetime histogram
    # buckets beside them are not read.
    assert record["sessions"] == {"s0-ace": {
        "status": "running", "frames": 120, "pacing_p50_ms": 12.25,
        "pacing_p99_ms": 40.0, "cpu_s": 0.75, "wire_faults": 2.0}}


def test_record_from_prometheus_feeds_dashboard():
    dash = FleetDashboard(color=False, clear=False)
    frame = dash.update(record_from_prometheus(_EXPOSITION))
    assert "s0-ace" in frame
    assert "SLO FIRING: pacing-p99" in frame


def test_record_from_prometheus_empty_exposition():
    record = record_from_prometheus("")
    assert record["running"] == 0 and record["sessions"] == {}
    # An empty record still renders a frame instead of crashing.
    assert FleetDashboard(color=False, clear=False).update(record)


# ---------------------------------------------------------------------------
# CLI fallback (no TTY)
# ---------------------------------------------------------------------------
def test_load_dash_no_tty_exits_zero(capsys):
    """``repro load --dash`` piped (no TTY): plain stacked frames, no
    escape codes, exit 0."""
    from repro.cli import main

    rc = main(["load", "--sessions", "1", "--duration", "0.6",
               "--drain", "0.2", "--heartbeat", "0.3", "--dash"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "live fleet" in out
    assert "\x1b" not in out


def test_watch_requires_endpoint():
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["watch"])


def test_watch_unreachable_endpoint_fails(capsys):
    from repro.cli import main

    rc = main(["watch", "--url", "http://127.0.0.1:9/", "--interval",
               "0.05", "--frames", "5"])
    assert rc == 1
    assert "unreachable" in capsys.readouterr().out

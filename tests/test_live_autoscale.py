"""Autoscale ceiling probe: ascent/bisect logic on a synthetic box.

The real probe runs live fleets; these tests inject a ``prober`` with a
known capacity so the search logic is exercised deterministically and
in microseconds.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.live.autoscale import _resolution, run_autoscale
from repro.live.server import LoadConfig

#: the fleet a probe scales: LoadConfig defaults, 250 ms pacing-p99 bound.
TEMPLATE = LoadConfig(slo_p99_s=0.25)


def capacity_prober(capacity: int):
    """A box that sustains exactly ``capacity`` sessions."""
    calls = []

    def probe(sessions: int, template: LoadConfig) -> dict:
        calls.append(sessions)
        ok = sessions <= capacity
        return {"sessions": sessions, "ok": ok,
                "failed": 0 if ok else 1, "completed": sessions,
                "pacing_p99_ms": 10.0 if ok else 900.0,
                "cpu_total_s": None, "rss_mb": None, "wall_s": 0.0}

    probe.calls = calls
    return probe


def test_converges_onto_capacity_within_resolution():
    probe = capacity_prober(23)
    result = run_autoscale(
        TEMPLATE, start=2, max_sessions=64, prober=probe)
    assert result["converged"] is True
    assert result["at_cap"] is False
    ceiling = result["ceiling_sessions"]
    assert ceiling <= 23
    assert 23 - ceiling <= _resolution(ceiling)
    # Ascent was geometric: 2, 4, 8, 16, 32(TRIP), then bisection.
    assert probe.calls[:5] == [2, 4, 8, 16, 32]
    assert result["rounds"][-1]["sessions"] == probe.calls[-1]


def test_reports_at_cap_when_box_never_trips():
    probe = capacity_prober(10_000)
    result = run_autoscale(
        TEMPLATE, start=2, max_sessions=16, prober=probe)
    assert result["ceiling_sessions"] == 16
    assert result["at_cap"] is True
    assert result["converged"] is False
    assert max(probe.calls) == 16


def test_first_round_failure_means_zero_ceiling():
    probe = capacity_prober(0)
    result = run_autoscale(
        TEMPLATE, start=4, max_sessions=16, prober=probe)
    assert result["ceiling_sessions"] == 0
    assert result["converged"] is False
    assert result["sessions_per_core"] == 0.0


def test_default_start_is_core_count():
    probe = capacity_prober(10_000)
    run_autoscale(TEMPLATE, start=0, max_sessions=4, prober=probe)
    cores = os.cpu_count() or 1
    assert probe.calls[0] == min(cores, 4)


def test_artifact_written_and_loadable(tmp_path):
    probe = capacity_prober(6)
    out = tmp_path / "nested" / "ceiling.json"
    result = run_autoscale(
        TEMPLATE, start=2, max_sessions=16, prober=probe,
        artifact_path=str(out))
    assert result["artifact"] == str(out)
    data = json.loads(out.read_text())
    assert data["kind"] == "live-autoscale"
    assert data["ceiling_sessions"] == result["ceiling_sessions"]
    assert data["rounds"]
    assert "load_kwargs" not in data["config"]


def test_resolution_scales_with_ceiling():
    assert _resolution(0) == 1
    assert _resolution(7) == 1
    assert _resolution(8) == 1
    assert _resolution(16) == 2
    assert _resolution(100) == 12


def test_cli_probes_the_fleet_load_would_run(monkeypatch, tmp_path):
    """`load --autoscale` builds its template as `load` builds its fleet:
    every workload and live-path flag reaches each round."""
    import repro.live.autoscale as autoscale
    from repro.cli import main

    seen = []

    def fake_round(sessions, template, echo=None, trace_factory=None):
        seen.append((template, trace_factory))
        ok = sessions <= 2
        return {"sessions": sessions, "ok": ok, "failed": 0 if ok else 1,
                "completed": sessions, "pacing_p99_ms": 1.0,
                "cpu_total_s": None, "rss_mb": None, "wall_s": 0.0}

    monkeypatch.setattr(autoscale, "probe_round", fake_round)
    out = tmp_path / "ceiling.json"
    rc = main(["load", "--autoscale", "--autoscale-start", "1",
               "--autoscale-max", "4", "--autoscale-out", str(out),
               "--mix", "ace,webrtc-star", "--trace", "const:10",
               "--fps", "15", "--initial-bwe", "3", "--rtt", "50",
               "--loss", "0.01", "--queue", "50000", "--unshaped",
               "--seed", "7", "--slo-p99-ms", "120"])
    assert rc == 0
    template, trace_factory = seen[0]
    assert (template.fps, template.initial_bwe_bps, template.base_rtt,
            template.random_loss_rate, template.queue_capacity_bytes,
            template.shaped, template.seed) \
        == (15.0, 3e6, 0.05, 0.01, 50_000, False, 7)
    assert template.mix == ("ace", "webrtc-star")
    assert template.slo_p99_s == pytest.approx(0.12)
    assert template.duration == autoscale.ROUND_DURATION_S
    assert trace_factory(0).name == "const:10"
    data = json.loads(out.read_text())
    assert data["ceiling_sessions"] == 2
    assert data["p99_limit_ms"] == pytest.approx(120.0)


@pytest.mark.parametrize("flag", [
    ["--run-dir", "x"], ["--series"], ["--snapshot-out", "x"], ["--dash"],
    ["--stats-port", "0"], ["--inject-stall", "1"]])
def test_cli_refuses_flags_a_probe_cannot_honour(flag):
    from repro.cli import main

    with pytest.raises(SystemExit, match="--autoscale cannot honour"):
        main(["load", "--autoscale", *flag])

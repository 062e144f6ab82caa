"""Bit-identity regression fingerprints for the simulated session.

The clock/transport refactor (``repro.live``) promised that routing the
sim stack through ``SimTransport`` and the ``Clock`` protocol changes
*nothing*: the exact event sequence, and therefore every metric, must
match what the pre-refactor code produced. These SHA-256 fingerprints
were captured on the pre-refactor tree; any change to them means a
behavioural change in the simulator, which must be deliberate (update
the constants in the same commit, and say why in its message).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.net import make_wifi_trace
from repro.rtc import SessionConfig, build_session
from repro.sim import RngStream

#: sha256 hexdigests of fingerprint() for each baseline under the
#: canonical workload below; captured pre-refactor.
GOLDEN = {
    "ace": "9498cc019479033ff0561a2e2a34e0c707e3d56df484a50050fbd2d321893245",
    "webrtc-star":
        "6961f7988a73394838c0c51010fbd59e4f57beda2c3f0afe30b20514e82561a8",
    "always-burst":
        "a4c144cd56d2fc8bf57cb28348d7f9954917f6bdff430066644510bc52064513",
    "salsify":
        "a6f34d5edf323c25cc030d6a9fd13f78f1d1dde0a29c37853add054dd541fba5",
}

DURATION = 6.0
SEED = 5


def fingerprint(metrics) -> str:
    """Hash every timing-sensitive field of a session's metrics."""
    h = hashlib.sha256()
    h.update(repr(metrics.packets_sent).encode())
    h.update(repr(metrics.packets_lost).encode())
    h.update(repr(metrics.packets_retransmitted).encode())
    for f in metrics.frames:
        h.update(("%d %.9f %d %.9f %d" % (
            f.frame_id, f.capture_time, f.size_bytes,
            f.quality_vmaf, f.complexity_level)).encode())
        for value in (f.encode_time, f.pacer_enqueue, f.pacer_last_exit,
                      f.complete_at, f.displayed_at):
            h.update(b"?" if value is None else ("%.9f" % value).encode())
    for t, size in metrics.send_events:
        h.update(("%.9f %d" % (t, size)).encode())
    for t, bwe in metrics.bwe_history:
        h.update(("%.9f %.6f" % (t, bwe)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("baseline", sorted(GOLDEN))
def test_sim_results_bit_identical_to_pre_refactor(baseline):
    trace = make_wifi_trace(RngStream(11, "trace"), duration=DURATION + 10)
    config = SessionConfig(duration=DURATION, seed=SEED)
    metrics = build_session(baseline, trace, config).run()
    assert fingerprint(metrics) == GOLDEN[baseline], (
        f"simulated {baseline} session diverged from the pre-refactor "
        f"golden fingerprint — the sim path is supposed to be "
        f"bit-identical")


@pytest.mark.parametrize("baseline", sorted(GOLDEN))
def test_sim_results_bit_identical_with_telemetry_on(baseline):
    """Telemetry is a pure observer: a fully instrumented session (spans,
    sampled gauges, flight recorder, periodic tick) must reproduce the
    same golden fingerprints as an uninstrumented one."""
    trace = make_wifi_trace(RngStream(11, "trace"), duration=DURATION + 10)
    config = SessionConfig(duration=DURATION, seed=SEED)
    session = build_session(baseline, trace, config)
    telemetry = session.enable_telemetry()
    metrics = session.run()
    assert telemetry.events, "telemetry was enabled but recorded nothing"
    assert fingerprint(metrics) == GOLDEN[baseline], (
        f"enabling telemetry changed the simulated {baseline} session — "
        f"instrumentation must not perturb results")


@pytest.mark.parametrize("baseline", sorted(GOLDEN))
def test_sim_results_bit_identical_with_series_recording_on(baseline):
    """The time-series recorder rides the telemetry tick and is a pure
    observer too: recording bounded per-tick series (gauge reads,
    counter values, pacing quantiles off the burst rings) must leave the
    golden fingerprints untouched."""
    trace = make_wifi_trace(RngStream(11, "trace"), duration=DURATION + 10)
    config = SessionConfig(duration=DURATION, seed=SEED)
    session = build_session(baseline, trace, config)
    telemetry = session.enable_telemetry()
    recorder = telemetry.attach_series()
    metrics = session.run()
    assert recorder.frame().t, "series recording was on but captured nothing"
    assert fingerprint(metrics) == GOLDEN[baseline], (
        f"series recording changed the simulated {baseline} session — "
        f"the recorder must be a pure observer")


@pytest.mark.parametrize("baseline", sorted(GOLDEN))
def test_batch_results_unchanged_by_observing(baseline):
    """Pure observer on the batch engine too: telemetry, the watchdog and
    series recording ride the fast path (their tick is one more macro-
    step boundary) without moving the fingerprint of the batch run."""
    def run(observe: bool) -> str:
        trace = make_wifi_trace(RngStream(11, "trace"), duration=DURATION + 10)
        config = SessionConfig(duration=DURATION, seed=SEED)
        session = build_session(baseline, trace, config, engine="batch")
        if observe:
            telemetry = session.enable_telemetry()
            telemetry.attach_watchdog()
            telemetry.attach_series()
        metrics = session.run()
        assert session.engine.fallback_reason is None
        return fingerprint(metrics)

    assert run(observe=True) == run(observe=False)


def test_fingerprint_is_deterministic_across_runs():
    """Guards the fingerprint itself: two fresh sessions on the same
    workload must hash identically (no hidden global state)."""
    def once() -> str:
        trace = make_wifi_trace(RngStream(11, "trace"), duration=DURATION + 10)
        config = SessionConfig(duration=DURATION, seed=SEED)
        return fingerprint(build_session("ace", trace, config).run())

    assert once() == once()

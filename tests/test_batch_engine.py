"""Batch-engine equivalence, fallback, and manifest-recording tests.

The batch engine (DESIGN §10) macro-steps the pacer→link→queue pipeline
between decision boundaries. Its contract:

* ``engine="reference"`` is the default and is the bit-exact golden
  path (also pinned by ``tests/test_sim_regression.py``).
* ``engine="batch"`` produces metrics equivalent to reference within
  float-reassociation noise on every committed baseline (verified here
  via :func:`~repro.analysis.aggregate.paired_compare`).
* Configurations the fast path does not model fall back to reference
  semantics with a recorded :attr:`BatchEngine.fallback_reason` — and
  then the results are *exactly* identical.
* Fleet manifests record the engine, so cached grid cells can never be
  silently mixed across engines.
"""

import json
import math
import signal
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.aggregate import paired_compare
from repro.analysis.results import RunResult, canonical_metrics_json
from repro.net.trace import BandwidthTrace, make_wifi_trace
from repro.rtc.baselines import build_session, get_spec, list_baselines
from repro.rtc.metrics import SendLog
from repro.rtc.session import SessionConfig
from repro.sim import ENGINE_NAMES, get_engine
from repro.sim.rng import RngStream
from repro.transport.pacer.base import Pacer

#: paired-compare tolerance for fast-path sessions: measured worst
#: relative divergence on 12-second wifi sessions is ~4e-12 (float
#: reassociation amplified through the control loop); 1e-6 leaves six
#: orders of magnitude of margin while still catching any real
#: modelling divergence.
REL_TOL = 1e-6

PAIRED_METRICS = ("p50_latency", "p95_latency", "mean_vmaf", "loss_rate",
                  "stall_rate", "received_fps")


def _wifi_trace(duration: float = 12.0) -> BandwidthTrace:
    return make_wifi_trace(RngStream(11, "test.batch.trace"),
                           duration=duration)


def _run_metrics(baseline: str, trace, config: SessionConfig, engine: str):
    session = build_session(baseline, trace, config, engine=engine)
    metrics = session.run()
    return session, metrics


def _paired_results(baseline: str, trace, config: SessionConfig):
    """RunResults for both engines, keyed so engines form the pair axis."""
    out = []
    for engine in ENGINE_NAMES:
        _, metrics = _run_metrics(baseline, trace, config, engine)
        out.append(RunResult.from_metrics(
            metrics, baseline=engine, trace=trace.name, seed=config.seed))
    return out


def test_engine_registry():
    assert get_engine("reference").name == "reference"
    assert get_engine("batch").name == "batch"
    with pytest.raises(ValueError):
        get_engine("warp")
    # Engines are stateful; every call must hand out a fresh instance.
    assert get_engine("batch") is not get_engine("batch")


def test_reference_engine_is_the_default_and_bit_identical():
    trace = BandwidthTrace.constant(8e6, duration=10.0)
    cfg = SessionConfig(duration=3.0, seed=5)
    _, default_metrics = _run_metrics("ace", trace, cfg, "reference")
    implicit = build_session("ace", trace, cfg).run()
    assert (canonical_metrics_json(default_metrics)
            == canonical_metrics_json(implicit))


@pytest.mark.parametrize("baseline", list_baselines())
def test_batch_paired_compare_all_baselines(baseline):
    """Every committed baseline agrees across engines within REL_TOL.

    Baselines whose configuration is ineligible for the fast path
    (FEC, audio, ...) exercise the fallback and must agree exactly;
    fast-path baselines agree within float-reassociation noise.
    """
    trace = _wifi_trace()
    cfg = SessionConfig(duration=4.0, seed=7, initial_bwe_bps=6e6)
    results = _paired_results(baseline, trace, cfg)
    for metric in PAIRED_METRICS:
        cmp = paired_compare(results, "reference", "batch", metric=metric)
        assert cmp.n == 1, f"{baseline}/{metric}: workloads did not pair"
        ref = getattr(results[0], metric)
        diff = abs(cmp.mean_diff)
        limit = REL_TOL * max(abs(ref), 1e-3)
        assert diff <= limit, (
            f"{baseline}: {metric} diverged by {diff:.3e} "
            f"(reference {ref!r}, limit {limit:.3e})")


def test_batch_fast_path_engages_and_shrinks_event_count():
    trace = BandwidthTrace.constant(12e6, duration=10.0)
    cfg = SessionConfig(duration=4.0, seed=3, initial_bwe_bps=8e6)
    ref_session, _ = _run_metrics("ace", trace, cfg, "reference")
    batch_session, _ = _run_metrics("ace", trace, cfg, "batch")
    assert batch_session.engine.fallback_reason is None
    # The macro-step pipeline replaces per-packet heap events; the batch
    # loop must process a small fraction of the reference event count.
    assert batch_session.loop.processed < ref_session.loop.processed / 3


def test_finalize_merges_the_lanes_by_time_media_first_on_a_tie():
    session = build_session(
        "ace", BandwidthTrace.constant(12e6, duration=10.0),
        SessionConfig(duration=1.0, seed=3))
    engine = get_engine("batch")
    engine.prepare(session)
    engine._pipeline._send_event_chunks = [
        (np.array([1.0, 2.0]), np.array([1200, 1100])),
        (np.array([3.0]), np.array([500]))]
    # The scalar lane released one packet at exactly a media release.
    session.sender.send_events.add((2.0, 99))
    session.sender.send_events.add((2.5, 77))
    engine.finalize(session)
    events = session.sender.send_events
    assert events == SendLog([1.0, 2.0, 2.0, 2.5, 3.0],
                             [1200, 1100, 99, 77, 500])
    assert {type(size) for _t, size in events} == {int}
    assert {type(t) for t, _size in events} == {float}


def test_send_log_is_in_time_order_when_retransmissions_rode_along():
    trace = BandwidthTrace.constant(20e6, duration=20.0)
    cfg = SessionConfig(duration=4.0, seed=2, initial_bwe_bps=8e6)
    ref_session, ref = _run_metrics("ace", trace, cfg, "reference")
    session, metrics = _run_metrics("ace", trace, cfg, "batch")
    assert session.engine.fallback_reason is None
    assert metrics.packets_retransmitted == 37
    times = metrics.send_events.times
    assert (times[1:] >= times[:-1]).all()
    assert len(times) == metrics.packets_sent
    assert np.array_equal(metrics.send_events.sizes, ref.send_events.sizes)


@pytest.mark.parametrize("config_kwargs, expect", [
    (dict(random_loss_rate=0.02), "loss"),
    (dict(delay_jitter_std=0.002), "jitter"),
    (dict(cross_traffic=True), "cross traffic"),
    (dict(audio=True), "audio"),
])
def test_batch_fallback_is_reference_exact(config_kwargs, expect):
    """Ineligible configs fall back with a reason and match bit-for-bit."""
    trace = BandwidthTrace.constant(8e6, duration=8.0)
    cfg = SessionConfig(duration=2.5, seed=9, **config_kwargs)
    _, ref_metrics = _run_metrics("ace", trace, cfg, "reference")
    batch_session, batch_metrics = _run_metrics("ace", trace, cfg, "batch")
    reason = batch_session.engine.fallback_reason
    assert reason is not None and expect in reason
    assert (canonical_metrics_json(ref_metrics)
            == canonical_metrics_json(batch_metrics))


class _SlotPacer(Pacer):
    """The ``examples/custom_controller.py`` shape: a policy stated only
    as ``_take``, no ``release_train``."""

    __slots__ = ("_next_slot",)

    def __init__(self, loop, send_fn):
        super().__init__(loop, send_fn)
        self._next_slot = 0.0

    def _take(self, packet):
        now = self.loop.now
        if self._next_slot > now:
            return self._next_slot - now
        self._next_slot = now + packet.size_bytes * 8 / (
            2 * self.pacing_rate_bps)
        return 0.0


def test_a_pacer_without_a_closed_form_falls_back_reference_exact():
    trace = BandwidthTrace.constant(8e6, duration=8.0)
    cfg = SessionConfig(duration=2.5, seed=9)

    def run(engine):
        spec = replace(get_spec("webrtc-star"), pacer=_SlotPacer)
        session = build_session(spec, trace, cfg, engine=engine)
        return session, session.run()

    _, ref_metrics = run("reference")
    batch_session, batch_metrics = run("batch")
    reason = batch_session.engine.fallback_reason
    assert reason is not None and "unsupported pacer type" in reason
    assert ref_metrics.packets_sent > 100
    assert (canonical_metrics_json(ref_metrics)
            == canonical_metrics_json(batch_metrics))


def test_batch_fast_path_with_telemetry():
    """Observing must not change the engine: telemetry, the SLO watchdog
    and series recording all ride the fast path, and the returned
    metrics say which engine ran."""
    trace = BandwidthTrace.constant(8e6, duration=8.0)
    cfg = SessionConfig(duration=2.0, seed=2)
    session = build_session("ace", trace, cfg, engine="batch")
    telemetry = session.enable_telemetry()
    telemetry.attach_watchdog()
    telemetry.attach_series()
    metrics = session.run()
    assert session.engine.fallback_reason is None
    assert (metrics.engine, metrics.fallback_reason) == ("batch", None)
    assert telemetry.registry.counter("burst.packets").value \
        == metrics.packets_sent
    assert len(telemetry.series) > 10


def test_fallback_is_recorded_on_metrics_not_in_the_schema():
    trace = BandwidthTrace.constant(8e6, duration=8.0)
    cfg = SessionConfig(duration=1.0, seed=2, random_loss_rate=0.02)
    metrics = build_session("ace", trace, cfg, engine="batch").run()
    assert metrics.engine == "reference"
    assert "loss" in metrics.fallback_reason
    payload = canonical_metrics_json(metrics)
    assert "fallback_reason" not in payload and '"engine"' not in payload
    plain = build_session("ace", trace, cfg).run()
    assert (plain.engine, plain.fallback_reason) == ("reference", None)
    assert canonical_metrics_json(plain) == payload


def test_lane_census_is_recorded_on_metrics_not_in_the_schema():
    """How many media packets the vector lane carried and how many were
    walked one by one (drops among them) rides beside ``engine``."""
    trace = BandwidthTrace.constant(12e6, duration=10.0)
    cfg = SessionConfig(duration=2.0, seed=3, initial_bwe_bps=8e6,
                        queue_capacity_bytes=20_000)
    session, metrics = _run_metrics("always-burst", trace, cfg, "batch")
    vector, scalar = metrics.lane_packets
    assert session.path.link.stats.dropped_packets and vector and scalar
    assert (vector + scalar
            == metrics.packets_sent - metrics.packets_retransmitted)
    assert "lane_packets" not in canonical_metrics_json(metrics)
    _, plain = _run_metrics("always-burst", trace, cfg, "reference")
    assert plain.lane_packets is None
    lossy = SessionConfig(duration=1.0, seed=2, random_loss_rate=0.02)
    assert _run_metrics("ace", trace, lossy, "batch")[1].lane_packets is None


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_link_that_never_comes_back_raises_on_both_engines(engine):
    """The batch engine's scalar walk stepped through an outage with no
    bound and spun forever; both engines now give up the same way."""
    dead = BandwidthTrace([0.0, 0.2], [0.0, 0.0])
    session = build_session("ace", dead, SessionConfig(duration=1.0, seed=3),
                            engine=engine)

    def hung(_signum, _frame):
        raise TimeoutError(f"{engine} engine still running after 60 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(RuntimeError, match="link outage outlasts 1e5 s"):
            session.run()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_grid_manifest_records_engine(tmp_path):
    from repro.bench.parallel import run_grid

    trace = BandwidthTrace.constant(10e6, duration=6.0, name="flat-10")
    for engine in ENGINE_NAMES:
        run_dir = tmp_path / engine
        run_grid(["ace"], [trace], seeds=(3,), duration=1.5,
                 run_dir=str(run_dir), engine=engine)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["engine"] == engine


def test_grid_run_dir_records_engine_and_fallback_per_cell(tmp_path):
    """The manifest records the *requested* engine; cells.jsonl and the
    summary record which engine ran each cell and why not the other."""
    from repro.bench.parallel import run_grid

    trace = BandwidthTrace.constant(10e6, duration=6.0, name="flat-10")
    results = run_grid(["ace", "ace-fec"], [trace], seeds=(3,), duration=1.5,
                       run_dir=str(tmp_path), engine="batch")
    assert [m.engine for m in results.values()] == ["batch", "reference"]
    cells = [json.loads(line)
             for line in (tmp_path / "cells.jsonl").read_text().splitlines()]
    cells = {c["key"][0]: c for c in cells if c["kind"] == "cell"}
    assert cells["ace"]["engine"] == "batch"
    assert cells["ace"]["fallback_reason"] is None
    assert cells["ace-fec"]["engine"] == "reference"
    assert cells["ace-fec"]["fallback_reason"] == "FEC enabled"
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["engines"] == {"batch": 1, "reference": 1}
    assert summary["fallbacks"] == {"FEC enabled": 1}
    assert json.loads(
        (tmp_path / "manifest.json").read_text())["engine"] == "batch"


def test_grid_engines_agree(tmp_path):
    """run_grid(engine="batch") matches the reference grid within tol."""
    from repro.bench.parallel import run_grid

    trace = BandwidthTrace.constant(9e6, duration=8.0, name="flat-9")
    grids = {
        engine: run_grid(["ace", "webrtc-star"], [trace], seeds=(3,),
                         duration=2.5, engine=engine)
        for engine in ENGINE_NAMES
    }
    assert list(grids["reference"]) == list(grids["batch"])
    for key, ref in grids["reference"].items():
        bat = grids["batch"][key]
        a, b = ref.p95_latency(), bat.p95_latency()
        assert math.isfinite(a) and math.isfinite(b)
        assert abs(a - b) <= REL_TOL * max(abs(a), 1e-3), key

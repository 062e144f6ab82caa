"""Differential property test: seeded fuzz scenarios through both engines.

Satellite of the batch-engine work (DESIGN §10): the ``repro fuzz``
scenario generator derives randomized-but-reproducible workloads from
``(root_seed, index)``; this test runs every case through the reference
and batch engines and asserts :func:`paired_compare` agreement on the
headline metrics. Cases with impairments the fast path does not model
(loss, jitter, cross traffic, audio) exercise the fallback seam and
must agree exactly; eligible cases agree within float-reassociation
noise.

On divergence the failing case is *shrunk* with the fuzz harness's
greedy simplifier (the failure predicate being cross-engine divergence
rather than an invariant violation) and the shrunk case is re-run under
flight-recorder telemetry so the assertion message carries the event
context of the minimal reproduction.

The second half is the *telemetry* differential: observing must not
change the result or the engine, so the same session observed on both
engines must report the same counts, histograms and alerts, and series
and spans within the engine contract's tolerance. Then the overflow
regime — frames larger than the drop-tail queue — by packet, drop and
retransmission count. The last cases are the region the fuzzer never
visited and a bug lived in until PR 21: a NACK for a packet whose frame
has already been displayed (small queue, BWE start well under capacity).
"""

import math

import pytest

from repro.analysis.aggregate import paired_compare
from repro.analysis.results import RunResult
from repro.audit.fuzz import (
    FuzzCase,
    build_case_trace,
    case_from_seed,
    shrink,
)
from repro.net.trace import BandwidthTrace, make_wifi_trace
from repro.rtc.baselines import build_session, list_baselines
from repro.rtc.session import SessionConfig
from repro.sim.batch import ineligible_reason
from repro.sim.rng import RngStream

ROOT_SEED = 1
N_CASES = 10

#: relative tolerance for fast-path cases (fallback cases are exact);
#: measured fast-path divergence is ~1e-12, so this is pure margin.
REL_TOL = 1e-6

METRICS = ("p50_latency", "p95_latency", "mean_vmaf", "loss_rate",
           "stall_rate", "received_fps")


def _case_config(case: FuzzCase) -> SessionConfig:
    # Mirrors repro.audit.fuzz.run_case so replaying a failure with
    # ``repro fuzz --replay`` reproduces the same session.
    return SessionConfig(
        duration=case.duration,
        seed=case.root_seed * 1_000_003 + case.index,
        base_rtt=case.base_rtt,
        queue_capacity_bytes=case.queue_capacity_bytes,
        random_loss_rate=case.random_loss_rate,
        contention_loss_rate=case.contention_loss_rate,
        delay_jitter_std=case.delay_jitter_std,
        cross_traffic=case.cross_traffic,
        audio=case.audio,
    )


def _run_engine(case: FuzzCase, engine: str) -> RunResult:
    session = build_session(case.baseline, build_case_trace(case),
                            _case_config(case), engine=engine)
    metrics = session.run()
    # The engine pair axis goes where paired_compare expects baselines;
    # each case is its own workload (trace=label) so cases pair 1:1.
    return RunResult.from_metrics(metrics, baseline=engine,
                                  trace=case.label,
                                  seed=_case_config(case).seed)


def _divergence(case: FuzzCase) -> tuple[float, str]:
    """Worst relative metric divergence between the two engines."""
    results = [_run_engine(case, "reference"), _run_engine(case, "batch")]
    worst, worst_metric = 0.0, "none"
    for metric in METRICS:
        cmp = paired_compare(results, "reference", "batch", metric=metric)
        if cmp.n != 1:
            continue  # metric was NaN on at least one side (e.g. no frames)
        ref = getattr(results[0], metric)
        rel = abs(cmp.mean_diff) / max(abs(ref), 1e-3)
        if rel > worst:
            worst, worst_metric = rel, metric
    return worst, worst_metric


def _flight_dump(case: FuzzCase) -> str:
    """Event context of ``case`` from a flight-recorder-only run."""
    from repro.obs import Telemetry

    session = build_session(case.baseline, build_case_trace(case),
                            _case_config(case))
    session.enable_telemetry(Telemetry(keep_events=False))
    session.run()
    return session.telemetry.flight.dump()


def test_fuzz_scenarios_cover_both_seam_sides():
    """The sweep must exercise the fast path AND the fallback path."""
    reasons = []
    for index in range(N_CASES):
        case = case_from_seed(ROOT_SEED, index)
        session = build_session(case.baseline, build_case_trace(case),
                                _case_config(case))
        reasons.append(ineligible_reason(session))
    assert any(r is None for r in reasons), \
        f"no eligible case in sweep: {reasons}"
    assert any(r is not None for r in reasons), \
        "no fallback case in sweep"


@pytest.mark.parametrize("index", range(N_CASES))
def test_fuzz_case_agrees_across_engines(index):
    case = case_from_seed(ROOT_SEED, index)
    worst, metric = _divergence(case)
    if worst <= REL_TOL:
        return
    shrunk = shrink(case, fails=lambda c: _divergence(c)[0] > REL_TOL)
    dump = _flight_dump(shrunk)
    pytest.fail(
        f"engines diverged on {case.describe()}: worst metric {metric} "
        f"rel diff {worst:.3e} (tol {REL_TOL:.0e})\n"
        f"shrunk reproduction: {shrunk.describe()}\n"
        f"replay: python -m repro fuzz --replay {shrunk.label}\n"
        f"flight recorder of shrunk case:\n{dump}")


# ---------------------------------------------------------------------------
# telemetry differential: the same observed session on both engines
# ---------------------------------------------------------------------------
COUNTERS = ("burst.packets", "burst.trains", "frames.encoded",
            "frames.displayed", "link.drop_packets")


def _observed(engine: str, baseline: str, trace, config, pacing_p99_s):
    """Run with telemetry + SLO watchdog + series attached."""
    session = build_session(baseline, trace, config, engine=engine)
    telemetry = session.enable_telemetry()
    watchdog = telemetry.attach_watchdog(pacing_p99_s=pacing_p99_s)
    recorder = telemetry.attach_series()
    metrics = session.run()
    return session, telemetry, watchdog.summary(), recorder.frame(), metrics


def _close(a, b, floor: float) -> bool:
    """``REL_TOL`` agreement; ``floor`` is the scale below which a value
    counts as zero (a token level of 1e-10 bytes against 0.0)."""
    if a is None or b is None:
        return a is b
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(abs(a), floor)


def _assert_telemetry_agrees(baseline: str, trace, config,
                             pacing_p99_s: float = 0.25) -> None:
    plain = build_session(baseline, trace, config)
    expected_reason = ineligible_reason(plain)
    _, ref, ref_slo, ref_frame, ref_m = _observed(
        "reference", baseline, trace, config, pacing_p99_s)
    session, bat, bat_slo, bat_frame, bat_m = _observed(
        "batch", baseline, trace, config, pacing_p99_s)
    # Observing does not change the engine: the batch run falls back
    # only if the unobserved session would (FEC, ...).
    assert session.engine.fallback_reason == expected_reason
    assert bat_m.fallback_reason == expected_reason
    assert bat_m.engine == ("batch" if expected_reason is None
                            else "reference")
    assert ref_m.engine == "reference" and ref_m.fallback_reason is None

    for name in COUNTERS:
        assert (ref.registry.counters[name].value
                == bat.registry.counters[name].value), name
    assert set(ref.registry.histograms) == set(bat.registry.histograms)
    for name, hist in ref.registry.histograms.items():
        assert hist.counts == bat.registry.histograms[name].counts, name

    for key in ("rules", "evaluations", "alerts", "firing"):
        assert ref_slo[key] == bat_slo[key], key
    assert len(ref_slo["events"]) == len(bat_slo["events"])
    for a, b in zip(ref_slo["events"], bat_slo["events"]):
        assert set(a) == set(b)
        for key, value in a.items():
            if isinstance(value, float):
                assert _close(value, b[key], 1e-3), (key, value, b[key])
            else:
                assert value == b[key], key

    assert ref_frame.t == bat_frame.t
    assert set(ref_frame.series) == set(bat_frame.series)
    for name, column in ref_frame.series.items():
        for i, (a, b) in enumerate(zip(column, bat_frame.series[name])):
            assert _close(a, b, 1.0), (name, i, a, b)

    assert set(ref.spans.spans) == set(bat.spans.spans)
    for frame_id, span in ref.spans.spans.items():
        twin = bat.spans.get(frame_id)
        assert set(span.stamps) == set(twin.stamps), frame_id
        for component, a in span.durations().items():
            assert _close(a, twin.durations()[component], 1e-3), \
                (frame_id, component)


@pytest.mark.parametrize("baseline", list_baselines())
def test_telemetry_agrees_across_engines(baseline):
    """The 14-baseline equivalence set, observed on both engines. The
    tight p99 bound makes the watchdog fire on several of them."""
    trace = make_wifi_trace(RngStream(11, "test.batch.trace"), duration=12.0)
    config = SessionConfig(duration=4.0, seed=7, initial_bwe_bps=6e6)
    _assert_telemetry_agrees(baseline, trace, config, pacing_p99_s=0.05)


def test_telemetry_agrees_on_the_observed_workload():
    """The benchmark's ``observed`` configuration (perfbench/README.md)."""
    trace = BandwidthTrace.constant(20e6, duration=16.0)
    config = SessionConfig(duration=6.0, seed=5, initial_bwe_bps=8e6,
                           max_bwe_bps=12e6)
    _assert_telemetry_agrees("ace", trace, config)


# ---------------------------------------------------------------------------
# the overflow regime: frames larger than the drop-tail queue
# ---------------------------------------------------------------------------
_PACKET = dict(duration=4.0, initial_bwe_bps=50e6, max_bwe_bps=100e6)

#: (baseline, link rate, config, least share of media packets on the
#: vector lane)
OVERFLOW_CASES = [
    # The benchmark's ``batch_packet`` configuration: ~110-packet frames
    # against the 100 kB queue (perfbench/README.md). The pessimistic
    # whole-train guard left 9 % of them on the vector lane.
    ("ace", 100e6, dict(seed=3, **_PACKET), 0.95),
    ("ace", 100e6, dict(seed=4, **_PACKET), 0.95),
    # Unpaced and leaky-paced frames against a 30 kB queue; every third
    # always-burst packet is a drop, so its tails are long.
    ("always-burst", 20e6, dict(duration=4.0, seed=3,
                                queue_capacity_bytes=30_000), 0.7),
    ("webrtc-star", 20e6, dict(duration=4.0, seed=3,
                               queue_capacity_bytes=30_000), 0.95),
]


@pytest.mark.parametrize("baseline, rate_bps, config_kwargs, vector_share",
                         OVERFLOW_CASES)
def test_engines_agree_in_the_overflow_regime(baseline, rate_bps,
                                              config_kwargs, vector_share):
    """By count, not by clock: both engines send, drop and retransmit the
    same packets, and frames ride the vector lane up to their first drop
    instead of being walked packet by packet."""
    trace = BandwidthTrace.constant(rate_bps, duration=14.0)
    config = SessionConfig(**config_kwargs)
    runs = []
    for engine in ("reference", "batch"):
        session = build_session(baseline, trace, config, engine=engine)
        metrics = session.run()
        assert session.engine.fallback_reason is None
        runs.append((RunResult.from_metrics(
            metrics, baseline=engine, trace=trace.name, seed=config.seed),
            metrics, session.path.link.stats.dropped_packets))
    (ref, ref_m, ref_drops), (bat, bat_m, bat_drops) = runs
    assert ref_drops == bat_drops > 0
    assert ref_m.packets_sent == bat_m.packets_sent
    assert ref_m.packets_retransmitted == bat_m.packets_retransmitted > 0
    for metric in METRICS:
        a, b = getattr(ref, metric), getattr(bat, metric)
        assert _close(a, b, 1e-3), (metric, a, b)
    vector, scalar = bat_m.lane_packets
    assert vector + scalar == bat_m.packets_sent - bat_m.packets_retransmitted
    assert vector >= vector_share * (vector + scalar), (vector, scalar)


# ---------------------------------------------------------------------------
# a NACK for a displayed frame finds nothing, on either engine
# ---------------------------------------------------------------------------
def _const20(seed: int, duration: float, engine: str):
    trace = BandwidthTrace.constant(20e6, duration=duration + 10.0,
                                    name="const:20")
    config = SessionConfig(duration=duration, seed=seed, initial_bwe_bps=8e6)
    session = build_session("ace", trace, config, engine=engine)
    metrics = session.run()
    assert session.engine.fallback_reason is None
    return session, metrics


def test_nack_for_a_displayed_frame_resurrects_nothing():
    """``ace`` over const:20 from an 8 Mbps start, seed 2: 37 tail drops,
    so 37 retransmissions. While the batch pipeline kept its own burst
    table, which never forgot a displayed frame, a late or repeated NACK
    rebuilt and resent such a packet there (43 retransmissions, 6 637
    packets, 88 decisions); the sender's frame table is the only one
    now, and both engines forget from it. Both engines then make the same
    choices: the ACE-N, ACE-C and GCC logs name the same branches in the
    same order, with values within ``REL_TOL``."""
    runs = [_const20(2, 4.0, engine) for engine in ("reference", "batch")]
    for session, metrics in runs:
        assert metrics.packets_sent == 6640
        assert (metrics.packets_retransmitted
                == session.path.link.stats.dropped_packets == 37)
        # Every frame whose RTX state is still held is still undisplayed.
        displayed = {f.frame_id for f in metrics.displayed_frames()}
        assert not displayed & {e[0] for e in session.sender._rtx_frames}
    (ref, _), (bat, _) = runs
    for name in ("ace_n", "ace_c", "cc"):
        a, b = (getattr(s.sender, name).log for s in (ref, bat))
        assert a.branch == b.branch, name
        for column in ("time", "before", "after", "input"):
            for x, y in zip(getattr(a, column), getattr(b, column)):
                assert _close(x, y, 1.0), (name, column, x, y)
    assert len(ref.sender.ace_n.log) == 89


@pytest.mark.parametrize("seed", [2, 3])
def test_const20_headline_divergence_within_contract(seed):
    """The 30 s runs perfbench's census recorded diverging by 3.5e-1
    and 1.0e-1 (same cause) sit at float-reassociation noise."""
    results = [RunResult.from_metrics(
        _const20(seed, 30.0, engine)[1], baseline=engine, trace="const:20",
        seed=seed) for engine in ("reference", "batch")]
    worst = 0.0
    for metric in METRICS:
        ref, bat = (getattr(r, metric) for r in results)
        if math.isnan(ref) and math.isnan(bat):
            continue
        worst = max(worst, abs(ref - bat) / max(abs(ref), 1e-3))
    assert worst <= REL_TOL, f"headline divergence {worst:.3e}"

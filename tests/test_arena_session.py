"""ArenaSession tests: pinned fingerprints, late joiners, routes, AQM.

Includes the PR's acceptance experiment: 2 ACE + 2 GCC (webrtc-star)
flows on a shared 20 Mbps drop-tail bottleneck must share fairly
(Jain >= 0.9 over the final 10 s), and the Confucius-style discipline
must improve the worst flow's p95 frame latency on the same seed.
"""

import pytest

from repro.arena import (
    ArenaFlowSpec,
    ArenaMetrics,
    ArenaSession,
    BottleneckSpec,
)
from repro.net.trace import BandwidthTrace
from repro.rtc.baselines import build_session
from repro.rtc.metrics import SessionMetrics
from repro.rtc.session import SessionConfig
from tests.test_sim_regression import fingerprint


def const_trace(mbps=20.0, duration=40.0):
    return BandwidthTrace.constant(mbps * 1e6, duration=duration,
                                   name=f"const{mbps:g}")


def run_arena(flows, mbps=20.0, duration=8.0, seed=5, **kwargs):
    cfg = SessionConfig(duration=duration, seed=seed, initial_bwe_bps=6e6)
    session = ArenaSession(flows, const_trace(mbps, duration + 10), cfg,
                           **kwargs)
    return session, session.run()


# ----------------------------------------------------------------------
# pinned per-flow fingerprints (recorded at commit 18102f2, before the
# arena was rebuilt on the shared FlowStack)
# ----------------------------------------------------------------------
def _golden_mix():
    """perfbench's arena_mix: three pacer types, two late joiners, one
    Confucius router."""
    duration = 6.0
    cfg = SessionConfig(duration=duration, seed=5, initial_bwe_bps=6e6)
    flows = [ArenaFlowSpec("ace", flow_id=1),
             ArenaFlowSpec("webrtc-star", flow_id=2),
             ArenaFlowSpec("always-burst", flow_id=3, start=duration / 6),
             ArenaFlowSpec("ace", flow_id=4, start=duration / 3)]
    return ArenaSession(flows, const_trace(40.0, 16.0), cfg,
                        discipline="confucius")


def _golden_chain():
    """Two-hop drop-tail chain; flow 2 bypasses the narrow router."""
    cfg = SessionConfig(duration=6.0, seed=5, initial_bwe_bps=4e6)
    return ArenaSession(
        [ArenaFlowSpec("ace", flow_id=1, route=(0, 1)),
         ArenaFlowSpec("ace", flow_id=2, route=(0,))],
        config=cfg, bottlenecks=[BottleneckSpec(const_trace(30.0, 16.0)),
                                 BottleneckSpec(const_trace(6.0, 16.0))])


def _golden_codel():
    cfg = SessionConfig(duration=6.0, seed=5, initial_bwe_bps=6e6)
    return ArenaSession([ArenaFlowSpec("ace", flow_id=1),
                         ArenaFlowSpec("cbr", flow_id=2)],
                        const_trace(12.0, 16.0), cfg, discipline="codel")


ARENA_GOLDEN = {
    "mix": (_golden_mix, {
        1: "e4217eaf6327ef310d4dc3e355030bb53f143c6f8b5299cc3694e894c1791ddb",
        2: "b9661bdb1282f57897d090d7eed5bd7997379deb8f75fd12a087cbec16ef540a",
        3: "20210bbb45f5ee587f1d6c50a47b53a4b9550cf26597f8ea589371daa55c8d24",
        4: "751b2cf4f4c8fe2a4af4812d5764805957c04789b8a7c2756aece16c33a22cb1",
    }),
    "chain": (_golden_chain, {
        1: "e861720f34171f59000ea3a12e8f6714ac7b43b62b6009448b875f70dcee52f0",
        2: "c1df9549145c293bde5d122c1d2ac208bea32e00cbf6415b888e3bdd02c81a23",
    }),
    "codel": (_golden_codel, {
        1: "c051010b69ff304a1c299b5d25961850bb8d5636574de586c5881a75066abcd3",
        2: "0982d493599afefeeb6ef61031a4379631cb819ad84b584738c119c3972f5041",
    }),
}


@pytest.mark.parametrize("name", sorted(ARENA_GOLDEN))
def test_arena_flows_bit_identical_to_pinned_fingerprints(name):
    build, golden = ARENA_GOLDEN[name]
    metrics = build().run()
    assert {fid: fingerprint(m) for fid, m in metrics.items()} == golden, (
        f"arena run {name!r} diverged from its pinned per-flow "
        "fingerprints — the arena is supposed to be bit-identical")
    assert all(m.packets_lost > 0 for m in metrics.flows.values()), (
        "the pinned runs are meant to exercise the loss path")


# ----------------------------------------------------------------------
# satellite fixes: eager per-flow state, incremental loss counting
# ----------------------------------------------------------------------
def test_per_flow_state_initialized_for_all_flows_at_construction():
    cfg = SessionConfig(duration=4.0, seed=3)
    session = ArenaSession([ArenaFlowSpec("cbr", flow_id=1),
                            ArenaFlowSpec("cbr", flow_id=2),
                            ArenaFlowSpec("ace", flow_id=3)],
                           const_trace(30.0), cfg)
    assert sorted(session.stacks) == [1, 2, 3]
    # each receiver hands its displays to its own flow
    assert all(stack.receiver.display_fn == stack._displayed
               for stack in session.stacks.values())
    assert session._flow_losses == {1: 0, 2: 0, 3: 0}


def test_incremental_loss_counts_match_lost_packets_scan():
    cfg = SessionConfig(duration=6.0, seed=7, initial_bwe_bps=6e6,
                        random_loss_rate=0.02)
    session = ArenaSession([ArenaFlowSpec("cbr", flow_id=1),
                            ArenaFlowSpec("cbr", flow_id=2)],
                           const_trace(20.0), cfg)
    # An independent record of every drop: the path keeps only a count.
    dropped, on_drop = [], session.path.on_drop

    def collecting(packet):
        dropped.append(packet)
        on_drop(packet)

    session.path.on_drop = collecting
    results = session.run()
    scan = {fid: sum(1 for p in dropped if p.flow_id == fid)
            for fid in (1, 2)}
    assert sum(scan.values()) > 0, "loss config produced no losses"
    for fid in (1, 2):
        assert results[fid].packets_lost == scan[fid]


@pytest.mark.parametrize("discipline", ["droptail", "codel"])
def test_aqm_stream_exists_only_for_a_non_default_discipline(discipline):
    """DESIGN §13: the "aqm" RNG stream is created only when a router
    runs a non-default discipline — single flow and arena alike."""
    cfg = SessionConfig(duration=1.0, seed=3)
    single = build_session("cbr", const_trace(), cfg, discipline=discipline)
    arena = ArenaSession([ArenaFlowSpec("cbr", flow_id=1)], const_trace(),
                         cfg, discipline=discipline)
    for session in (single, arena):
        assert ("aqm" in session.rngs._streams) == (discipline != "droptail")


# ----------------------------------------------------------------------
# late joiners / early leavers
# ----------------------------------------------------------------------
def test_late_joiner_sends_nothing_before_start():
    _, results = run_arena(
        [ArenaFlowSpec("cbr", flow_id=1),
         ArenaFlowSpec("cbr", flow_id=2, start=4.0)], duration=8.0)
    late = results[2]
    assert late.send_events, "late joiner never sent"
    assert min(t for t, _ in late.send_events) >= 4.0
    assert results.specs[2]["start"] == 4.0
    # the early flow was sending from the beginning
    assert min(t for t, _ in results[1].send_events) < 1.0


def test_early_leaver_stops_sending():
    _, results = run_arena(
        [ArenaFlowSpec("cbr", flow_id=1),
         ArenaFlowSpec("cbr", flow_id=2, stop=3.0)], duration=8.0)
    stopped = results[2]
    assert stopped.send_events
    # pacer may flush a queued frame right at the stop boundary
    assert max(t for t, _ in stopped.send_events) < 3.5
    assert max(t for t, _ in results[1].send_events) > 7.0


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def test_validation_errors():
    trace = const_trace()
    cfg = SessionConfig(duration=8.0, seed=3)
    with pytest.raises(ValueError):
        ArenaSession([], trace, cfg)
    with pytest.raises(ValueError):
        ArenaSession([ArenaFlowSpec("ace", flow_id=1),
                      ArenaFlowSpec("cbr", flow_id=1)], trace, cfg)
    with pytest.raises(ValueError):
        ArenaSession([ArenaFlowSpec("ace", flow_id=0)], trace, cfg)
    with pytest.raises(ValueError):       # start outside the run
        ArenaSession([ArenaFlowSpec("ace", flow_id=1, start=8.0)],
                     trace, cfg)
    with pytest.raises(ValueError):       # stop before start
        ArenaSession([ArenaFlowSpec("ace", flow_id=1, start=2.0, stop=1.0)],
                     trace, cfg)
    with pytest.raises(ValueError):       # route references router 1 of 1
        ArenaSession([ArenaFlowSpec("ace", flow_id=1, route=(1,))],
                     trace, cfg)
    with pytest.raises(KeyError):         # unknown discipline
        ArenaSession([ArenaFlowSpec("ace", flow_id=1)], trace, cfg,
                     discipline="red")
    with pytest.raises(ValueError):       # no trace and no bottlenecks
        ArenaSession([ArenaFlowSpec("ace", flow_id=1)], None, cfg)


@pytest.mark.parametrize("field", ["audio", "cross_traffic"])
def test_unsupported_config_fields_are_rejected_by_name(field):
    """No per-flow AudioReceiver / cross-traffic generator exists in the
    arena; asking for one must fail loudly instead of being ignored."""
    cfg = SessionConfig(duration=4.0, seed=3, **{field: True})
    with pytest.raises(ValueError, match=f"SessionConfig.{field}"):
        ArenaSession([ArenaFlowSpec("ace", flow_id=1)], const_trace(), cfg)


def test_cannot_run_twice():
    session, _ = run_arena([ArenaFlowSpec("cbr", flow_id=1)], duration=2.0)
    with pytest.raises(RuntimeError):
        session.run()


# ----------------------------------------------------------------------
# multi-router chains and per-flow routes
# ----------------------------------------------------------------------
def test_router_chain_with_partial_routes():
    cfg = SessionConfig(duration=8.0, seed=5, initial_bwe_bps=4e6)
    bottlenecks = [BottleneckSpec(const_trace(30.0)),
                   BottleneckSpec(const_trace(6.0))]
    # flow 1 crosses both routers; flow 2 bypasses the narrow one.
    session = ArenaSession(
        [ArenaFlowSpec("cbr", flow_id=1, route=(0, 1)),
         ArenaFlowSpec("cbr", flow_id=2, route=(0,))],
        config=cfg, bottlenecks=bottlenecks)
    results = session.run()
    stats = results.router_stats
    assert len(stats) == 2
    assert stats[0]["enqueued_packets"] > 0
    assert 0 < stats[1]["enqueued_packets"] < stats[0]["enqueued_packets"]
    for fid in (1, 2):
        assert len(results[fid].displayed_frames()) > 0
    # crossing the extra (narrower) router can only add latency
    assert results[1].p95_latency() >= results[2].p95_latency()


def test_arena_metrics_dict_like_api():
    _, results = run_arena([ArenaFlowSpec("cbr", flow_id=1),
                            ArenaFlowSpec("cbr", flow_id=2)], duration=3.0)
    assert isinstance(results, ArenaMetrics)
    assert isinstance(results[1], SessionMetrics)
    assert {fid for fid, _ in results.items()} == {1, 2}
    assert all(isinstance(m, SessionMetrics) for _, m in results.items())
    assert results.baselines() == {1: "cbr", 2: "cbr"}
    assert results.starts() == {1: 0.0, 2: 0.0}
    assert all(m.bandwidth_fn is not None for _, m in results.items())


def test_enable_telemetry_registers_arena_gauges():
    cfg = SessionConfig(duration=2.0, seed=3)
    session = ArenaSession([ArenaFlowSpec("cbr", flow_id=1),
                            ArenaFlowSpec("cbr", flow_id=2)],
                           const_trace(20.0), cfg)
    tel = session.enable_telemetry()
    assert session.enable_telemetry() is tel      # idempotent
    names = set(tel.registry.names())
    assert "arena.router0.queue_bytes" in names
    for fid in (1, 2):
        assert f"arena.flow{fid}.queue_bytes" in names
        assert f"arena.flow{fid}.queue_share" in names
    session.run()
    tel.registry.sample_all()
    gauge = tel.registry.gauges["arena.flow1.queue_share"]
    assert gauge.value is not None and 0.0 <= gauge.value <= 1.0


def test_per_flow_gauges_see_the_packets_a_lone_droptail_router_queues():
    """A lone plain drop-tail router would run closed-form, where the
    queued packets are on the server's ledger and a scan of the (empty)
    discipline reads 0 B for every flow. ``instrument_arena`` asks the
    routers to depart by event: the per-flow gauges are non-zero under
    backlog, add up to the router's occupancy at every tick, and the run
    is the uninstrumented one bit for bit."""
    def build():
        cfg = SessionConfig(duration=4.0, seed=5, initial_bwe_bps=6e6)
        return ArenaSession([ArenaFlowSpec("always-burst", flow_id=1),
                             ArenaFlowSpec("webrtc-star", flow_id=2)],
                            const_trace(6.0, 14.0), cfg)

    plain = build()
    assert plain.path.link.server is not None
    plain_results = plain.run()

    session = build()
    recorder = session.enable_telemetry().attach_series()
    assert session.path.link.server is None
    results = session.run()
    for fid in (1, 2):
        assert fingerprint(results[fid]) == fingerprint(plain_results[fid])
    assert session.path.router_stats() == plain.path.router_stats()

    series = recorder.frame().series
    router = series["arena.router0.queue_bytes"]
    flows = [series[f"arena.flow{fid}.queue_bytes"] for fid in (1, 2)]
    assert len(router) >= 40 and max(router) > 30_000
    assert all(max(column) > 10_000 for column in flows)
    assert [a + b for a, b in zip(*flows)] == router
    shares = [series[f"arena.flow{fid}.queue_share"] for fid in (1, 2)]
    assert all(a + b == pytest.approx(1.0) for a, b, total
               in zip(*shares, router) if total)


# ----------------------------------------------------------------------
# acceptance: fairness and AQM benefit (ISSUE 7 criteria)
# ----------------------------------------------------------------------
ACCEPT_MIX = [("ace", 1), ("ace", 2), ("webrtc-star", 3), ("webrtc-star", 4)]


def _accept_run(discipline):
    cfg = SessionConfig(duration=22.0, seed=3, initial_bwe_bps=6e6)
    session = ArenaSession(
        [ArenaFlowSpec(b, flow_id=f) for b, f in ACCEPT_MIX],
        const_trace(20.0, 40.0), cfg, discipline=discipline)
    return session.run()


@pytest.fixture(scope="module")
def accept_runs():
    return {d: _accept_run(d) for d in ("droptail", "confucius")}


def test_acceptance_droptail_jain_fairness(accept_runs):
    report = accept_runs["droptail"].fairness(window_s=10.0)
    assert report.jain_throughput >= 0.9, (
        f"2xACE + 2xGCC on shared 20 Mbps drop-tail must share fairly; "
        f"Jain={report.jain_throughput:.3f}")
    assert len(report.shares) == 4
    assert all(s.throughput_bps > 0 for s in report.shares)


def test_acceptance_confucius_improves_worst_flow_latency(accept_runs):
    droptail = accept_runs["droptail"].fairness(window_s=10.0)
    confucius = accept_runs["confucius"].fairness(window_s=10.0)
    assert confucius.worst_p95_latency_s < droptail.worst_p95_latency_s, (
        f"Confucius-style discipline should shield the worst flow: "
        f"{confucius.worst_p95_latency_s * 1e3:.1f} ms vs drop-tail "
        f"{droptail.worst_p95_latency_s * 1e3:.1f} ms")
    assert accept_runs["confucius"].discipline == "confucius"
    stats = accept_runs["confucius"].router_stats[0]
    assert stats["discipline"] == "confucius"

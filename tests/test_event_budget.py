"""The reference loop's event budget, and what observers see of it.

A closed-form path (lone plain drop-tail hop) spends two events on a
packet — ``pacer.pump`` and ``path.to-receiver``: the path asks the link
at release, half a hop ahead, and only a tail drop keeps a
``path.to-bottleneck`` hop, to reach the loss path at its arrival
instant. A jittered one spends a third, ``path.departure``, which draws
the jitter at the departure instant. The path hops carry no ``Event``
handle. A lone PIE or Confucius router folds the same way (the path
offers at release, the router posts the receiver hop when it chooses
the head; ``arena_mix``'s configuration, under 1.90). What folds
neither way (CoDel, whose head drops happen at dequeue, and a chain)
keeps its ``link.serve`` event and its arrival hop: the per-name
counts below were recorded at bcdfe33 (four heap events per packet
everywhere) and must not move.

Both engines also have a budget in Python calls, counted by cProfile:
on the reference loop it says what a packet costs between the pump and
the receiver; on the batch engine, whose point is that nothing runs per
packet, whether a consumer of its trains has started walking them again.
"""

import cProfile
import pstats

from repro.arena import ArenaFlowSpec, ArenaMetrics, ArenaSession, \
    BottleneckSpec
from repro.obs import LoopProfiler
from repro.rtc.baselines import build_session
from repro.rtc.session import SessionConfig
from repro.sim.events import Event
from tests.test_arena_session import const_trace as const
from tests.test_obs_profiler import event_counts
from tests.test_sim_regression import _impaired


def ref_packet_session(duration=4.0, seed=3, engine="reference"):
    """perfbench's ``ref_packet`` (``batch_packet``) configuration."""
    return build_session("ace", const(100, duration + 10.0), SessionConfig(
        duration=duration, seed=seed, initial_bwe_bps=50e6,
        max_bwe_bps=100e6), engine=engine)


def jittered(queue_capacity_bytes=100_000):
    return build_session("ace", const(12.0, 16.0), SessionConfig(
        duration=3.0, seed=3, initial_bwe_bps=6e6, delay_jitter_std=0.002,
        queue_capacity_bytes=queue_capacity_bytes))


def impaired():
    """perfbench's ``impaired_fallback`` configuration (seed 3): loss,
    jitter, cross traffic and audio; batch requested, falls back."""
    trace, config, _kwargs = _impaired()
    return build_session("ace", trace, config, engine="batch")


def codel():
    return build_session("ace", const(8.0, 16.0), SessionConfig(
        duration=3.0, seed=3, initial_bwe_bps=6e6), discipline="codel")


def chain():
    cfg = SessionConfig(duration=3.0, seed=5, initial_bwe_bps=4e6)
    return ArenaSession(
        [ArenaFlowSpec("ace", flow_id=1, route=(0, 1)),
         ArenaFlowSpec("ace", flow_id=2, route=(0,))],
        config=cfg, bottlenecks=[BottleneckSpec(const(30.0, 16.0)),
                                 BottleneckSpec(const(6.0, 16.0))])


def arena_mix(duration=5.0, seed=3):
    """perfbench's ``arena_mix`` configuration: four flows, three pacer
    types, one Confucius router."""
    return ArenaSession(
        [ArenaFlowSpec("ace", flow_id=1),
         ArenaFlowSpec("webrtc-star", flow_id=2),
         ArenaFlowSpec("always-burst", flow_id=3, start=duration / 6),
         ArenaFlowSpec("ace", flow_id=4, start=duration / 3)],
        const(40, duration + 10.0),
        SessionConfig(duration=duration, seed=seed, initial_bwe_bps=6e6),
        discipline="confucius")


#: callbacks per event name (``event_counts``) at the parent commit.
PARENT_COUNTS = {
    "codel": (codel, {
        "link.serve": 2004, "pacer.pump": 1626, "path.feedback": 69,
        "path.to-bottleneck": 2008, "path.to-receiver": 2004,
        "receiver.feedback": 70, "receiver.skip": 3, "sender.capture": 92,
        "sender.encoded": 91}),
    "chain": (chain, {
        "link.serve": 5685, "pacer.pump": 2028, "path.feedback": 138,
        "path.to-bottleneck": 4258, "path.to-receiver": 4258,
        "receiver.feedback": 140, "sender.capture": 184,
        "sender.encoded": 182}),
}


def sent_packets(metrics):
    """Packets a session (all of an arena's flows) sent."""
    if isinstance(metrics, ArenaMetrics):
        return sum(flow.packets_sent for flow in metrics.flows.values())
    return metrics.packets_sent


def calls_per_packet(session):
    """Run ``session`` under cProfile: (metrics, Python calls per packet,
    the five most-called functions and their calls per packet)."""
    profile = cProfile.Profile()
    metrics = profile.runcall(session.run)
    packets = sent_packets(metrics)
    stats = pstats.Stats(profile)
    busiest = sorted(stats.stats.items(), key=lambda kv: -kv[1][1])[:5]
    census = "; ".join(
        f"{name} ({path.rsplit('/', 1)[-1]}:{line}) {calls / packets:.2f}"
        for (path, line, name), (_cc, calls, *_rest) in busiest)
    return metrics, stats.total_calls / packets, census


def test_closed_form_path_spends_two_events_per_packet():
    session = ref_packet_session()
    assert session.path.link.server is not None
    metrics = session.run()
    assert metrics.packets_sent > 30_000
    per_packet = session.loop.processed / metrics.packets_sent
    assert per_packet <= 2.01, per_packet       # bcdfe33: 4.00, 26923fe: 3.00
    stats = session.path.link.stats
    assert stats.delivered_packets == stats.enqueued_packets > 0
    assert 0 < stats.dropped_packets < 100
    assert session.path.link.queued_packets == 0


def test_reference_loop_spends_under_fifty_six_calls_per_packet():
    """Repeatable to a few dozen calls. 26923fe: 62.95 — an arrival hop
    and a ``Link.send`` per packet, and a pacer asked twice (wait, then
    commit) and told once more (``on_send``) per release."""
    metrics, per_packet, census = calls_per_packet(ref_packet_session())
    assert metrics.packets_sent > 30_000
    assert per_packet <= 56, (
        f"{per_packet:.2f} calls per packet; the most called, per "
        f"packet: {census}")


def test_impaired_path_spends_under_sixty_seven_calls_per_packet():
    """Repeatable to a few dozen calls. cfd974a: 79.00 — the evented
    link's arrival hop, ``Link.send``, the drop-tail protocol and the
    serve event per packet, wrapper frames around each loss draw and a
    FEC decoder fed every seq of a flow without FEC."""
    session = impaired()
    metrics, per_packet, census = calls_per_packet(session)
    assert session.engine.fallback_reason is not None
    assert session.path.link.server is not None
    assert metrics.packets_sent > 15_000
    assert session.loop.processed / metrics.packets_sent <= 3.06
    assert per_packet <= 67, (
        f"{per_packet:.2f} calls per packet; the most called, per "
        f"packet: {census}")


def test_jittered_path_spends_three_events_per_packet():
    """``pacer.pump``, the departure hop and ``path.to-receiver`` per
    packet (cfd974a: four, with ``link.serve`` and an arrival hop);
    a tail drop keeps its arrival hop and has no departure."""
    for capacity in (100_000, 30_000):
        session = jittered(capacity)
        assert session.path.link.server is not None
        profiler = session.loop.set_profiler(LoopProfiler())
        session.run()
        counts = event_counts(profiler)
        stats = session.path.link.stats
        assert "link.serve" not in counts
        assert counts["path.departure"] == counts["path.to-receiver"] \
            == stats.delivered_packets > 2_000
        assert counts.get("path.to-bottleneck", 0) == stats.dropped_packets
        if capacity == 30_000:
            assert stats.dropped_packets > 0
        else:
            assert session.loop.processed / stats.delivered_packets <= 3.01


def test_folded_confucius_router_spends_under_two_events_per_packet():
    """``arena_mix``: the path offers each packet to the Confucius
    router at release and the router posts the receiver hop when it
    chooses the head (c782d71: 3.73 events per packet, with an arrival
    hop and a ``link.serve`` event each); a drop or an eviction keeps a
    hop to its arrival instant."""
    session = arena_mix()
    assert session.path.link.lead is not None
    profiler = session.loop.set_profiler(LoopProfiler())
    metrics = session.run()
    counts = event_counts(profiler)
    stats = session.path.link.stats
    assert "link.serve" not in counts
    assert counts["path.to-receiver"] == stats.delivered_packets > 15_000
    assert counts["path.to-bottleneck"] == stats.dropped_packets > 0
    assert session.path.link.queue.evictions > 0
    per_packet = session.loop.processed / sent_packets(metrics)
    assert per_packet <= 1.90, per_packet


def test_folded_confucius_router_spends_under_eighty_two_calls_per_packet():
    """Repeatable to a few dozen calls. c782d71: 95.78 — the arrival
    hop, the serve event, a route lookup per departure and three dicts
    and a ``_rate_now`` call per flow at each choice between lanes;
    after: 80.03."""
    metrics, per_packet, census = calls_per_packet(arena_mix())
    assert sent_packets(metrics) > 15_000
    assert per_packet <= 82, (
        f"{per_packet:.2f} calls per packet; the most called, per "
        f"packet: {census}")


def test_evented_configurations_keep_the_parents_event_counts():
    for name, (build, parent) in PARENT_COUNTS.items():
        session = build()
        profiler = session.loop.set_profiler(LoopProfiler())
        session.run()
        assert event_counts(profiler) == parent, name
        assert profiler.total_events == session.loop.processed, name


def test_profiler_on_closed_form_path_sees_every_hop_but_no_serve():
    session = ref_packet_session(duration=1.0)
    profiler = session.loop.set_profiler(LoopProfiler())
    metrics = session.run()
    counts = event_counts(profiler)
    assert profiler.total_events == session.loop.processed
    assert "link.serve" not in counts
    stats = session.path.link.stats
    assert counts["path.to-receiver"] == stats.delivered_packets
    # Only a tail drop keeps its arrival hop.
    assert counts["path.to-bottleneck"] == stats.dropped_packets > 0
    assert stats.delivered_packets + stats.dropped_packets \
        <= metrics.packets_sent
    assert counts["path.feedback"] > 0


def test_on_event_hook_gets_an_event_for_each_handle_free_hop():
    session = ref_packet_session(duration=0.5)
    loop = session.loop
    seen = []

    def hook(event):
        assert type(event) is Event and event.time == loop.now
        seen.append((event.name, event.time, event.seq))

    loop.on_event = hook
    session.run()
    assert len(seen) == loop.processed
    assert seen == sorted(seen, key=lambda e: e[1:])    # (time, seq) order
    assert len({seq for _n, _t, seq in seen}) == len(seen)
    hops = {name for name, _t, _s in seen}
    assert {"path.to-receiver", "path.feedback", "pacer.pump",
            "sender.capture"} <= hops
    drops = [t for name, t, _s in seen if name == "path.to-bottleneck"]
    assert len(drops) == session.path.link.stats.dropped_packets


def test_batch_fast_path_spends_under_three_calls_per_packet():
    """Repeatable to a few dozen calls. ce584bc: 5.27 = 194 118 calls /
    36 808 packets — a Python sort key over every send event, two deques
    walked per RTT sample, a set of every seq received; after: 2.65."""
    session = ref_packet_session(engine="batch")
    _metrics, per_packet, census = calls_per_packet(session)
    assert session.engine.fallback_reason is None
    assert per_packet <= 3.2, (
        f"{per_packet:.2f} calls per packet; the most called, per "
        f"packet: {census}")

"""The reference loop's event budget, and what observers see of it.

A closed-form path (lone plain drop-tail hop, no jitter) spends three
events on a packet — ``pacer.pump``, ``path.to-bottleneck``,
``path.to-receiver`` — and the two path hops carry no ``Event`` handle.
Everything the closed form cannot take keeps its ``link.serve`` event:
the per-name counts below were recorded at the parent commit (bcdfe33,
four heap events per packet everywhere) and must not move.

The batch engine's budget is in Python calls, not heap events: its
point is that nothing runs per packet, and a cProfile census is what
says whether a consumer of its trains has started walking them again.
"""

import cProfile
import pstats

from repro.arena import ArenaFlowSpec, ArenaSession, BottleneckSpec
from repro.obs import LoopProfiler
from repro.rtc.baselines import build_session
from repro.rtc.session import SessionConfig
from repro.sim.events import Event
from tests.test_arena_session import const_trace as const


def ref_packet_session(duration=4.0, seed=3, engine="reference"):
    """perfbench's ``ref_packet`` (``batch_packet``) configuration."""
    return build_session("ace", const(100, duration + 10.0), SessionConfig(
        duration=duration, seed=seed, initial_bwe_bps=50e6,
        max_bwe_bps=100e6), engine=engine)


def jittered():
    return build_session("ace", const(12.0, 16.0), SessionConfig(
        duration=3.0, seed=3, initial_bwe_bps=6e6, delay_jitter_std=0.002))


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


#: LoopProfiler.counts() at the parent commit.
PARENT_COUNTS = {
    "jittered": (jittered, {
        "link.serve": 2589, "pacer.pump": 2184, "path.feedback": 69,
        "path.to-bottleneck": 2589, "path.to-receiver": 2589,
        "receiver.feedback": 70, "receiver.skip": 1, "sender.capture": 92,
        "sender.encoded": 91}),
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


def test_closed_form_path_spends_three_events_per_packet():
    session = ref_packet_session()
    assert session.path.link.server is not None
    metrics = session.run()
    assert metrics.packets_sent > 30_000
    per_packet = session.loop.processed / metrics.packets_sent
    assert per_packet <= 3.01, per_packet       # parent: 4.00
    stats = session.path.link.stats
    assert stats.delivered_packets == stats.enqueued_packets > 0
    assert session.path.link.queued_packets == 0


def test_evented_configurations_keep_the_parents_event_counts():
    for name, (build, parent) in PARENT_COUNTS.items():
        session = build()
        profiler = session.loop.set_profiler(LoopProfiler())
        session.run()
        assert profiler.counts() == parent, name
        assert profiler.total_events == session.loop.processed, name


def test_profiler_on_closed_form_path_sees_every_hop_but_no_serve():
    session = ref_packet_session(duration=1.0)
    profiler = session.loop.set_profiler(LoopProfiler())
    metrics = session.run()
    counts = profiler.counts()
    assert profiler.total_events == session.loop.processed
    assert "link.serve" not in counts
    delivered = session.path.link.stats.delivered_packets
    assert counts["path.to-receiver"] == delivered
    assert counts["path.to-bottleneck"] == metrics.packets_sent
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
    assert {"path.to-bottleneck", "path.to-receiver", "path.feedback",
            "pacer.pump", "sender.capture"} <= hops


def test_batch_fast_path_spends_under_three_calls_per_packet():
    """Repeatable to a few dozen calls. ce584bc: 5.27 = 194 118 calls /
    36 808 packets — a Python sort key over every send event, two deques
    walked per RTT sample, a set of every seq received; after: 2.65."""
    session = ref_packet_session(engine="batch")
    profile = cProfile.Profile()
    metrics = profile.runcall(session.run)
    assert session.engine.fallback_reason is None
    packets = metrics.packets_sent
    stats = pstats.Stats(profile)
    busiest = sorted(stats.stats.items(), key=lambda kv: -kv[1][1])[:5]
    census = "; ".join(
        f"{name} ({path.rsplit('/', 1)[-1]}:{line}) {calls / packets:.2f}"
        for (path, line, name), (_cc, calls, *_rest) in busiest)
    assert stats.total_calls / packets <= 3.2, (
        f"{stats.total_calls / packets:.2f} calls per packet; the most "
        f"called, per packet: {census}")

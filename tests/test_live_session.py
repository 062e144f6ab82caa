"""Live-mode tests: the kept loopback shim as the path's oracle, the UDP
endpoints and end-to-end UDP loopback runs.

The session tests run the real stack on a wall clock for about a second
each, so assertions are kept coarse (frames flowed, metrics populated,
impairment visible) — exact timing belongs to the deterministic
simulator tests.
"""

from __future__ import annotations

import asyncio
import math
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.live import LiveConfig, LoopbackImpairment, UdpTransport
from repro.live.clock import WallClock
from repro.live.server import LoadConfig, build_load_specs, run_load
from repro.live.session import build_live_session, run_live
from repro.net.link import Link
from repro.net.packet import Packet, PacketType
from repro.net.path import NetworkPath, PathConfig
from repro.net.trace import BandwidthTrace
from repro.obs.dash import record_from_prometheus
from repro.sim.events import EventLoop
from repro.sim.rng import SeedSequenceFactory
from tests.test_obs_profiler import event_counts


# ---------------------------------------------------------------------------
# impairment shim (deterministic, no sockets)
# ---------------------------------------------------------------------------
def test_unshaped_impairment_is_propagation_only():
    shim = LoopbackImpairment(PathConfig(base_rtt=0.04))
    assert shim.admit(1200, now=0.0) == pytest.approx(0.02)
    assert shim.admit(1200, now=5.0) == pytest.approx(0.02)
    assert shim.delivered == 2 and shim.dropped == 0


def test_shaped_impairment_serializes_back_to_back_packets():
    trace = BandwidthTrace.constant(1e6, duration=100.0)  # 1 Mbps
    shim = LoopbackImpairment(PathConfig(base_rtt=0.0), trace=trace)
    # 1250 bytes at 1 Mbps = 10 ms on the wire.
    first = shim.admit(1250, now=0.0)
    second = shim.admit(1250, now=0.0)
    assert first == pytest.approx(0.010)
    assert second == pytest.approx(0.020)  # queued behind the first
    # After the backlog clears, delay resets to one serialization.
    third = shim.admit(1250, now=1.0)
    assert third == pytest.approx(0.010)


def test_impairment_drop_tail_queue_overflow():
    trace = BandwidthTrace.constant(1e6, duration=100.0)
    shim = LoopbackImpairment(
        PathConfig(base_rtt=0.0, queue_capacity_bytes=3000),
        trace=trace)
    assert shim.admit(1250, now=0.0) is not None
    assert shim.admit(1250, now=0.0) is not None
    assert shim.queued_bytes == 2500
    assert shim.admit(1250, now=0.0) is None  # 3750 > 3000: tail drop
    assert shim.dropped == 1 and shim.delivered == 2


def test_impairment_random_loss_uses_rng_stream():
    shim = LoopbackImpairment(
        PathConfig(random_loss_rate=1.0),
        rng=SeedSequenceFactory(1).stream("path.loss"))
    assert shim.admit(1200, now=0.0) is None
    assert shim.dropped == 1

    lossless = LoopbackImpairment(
        PathConfig(random_loss_rate=0.0),
        rng=SeedSequenceFactory(1).stream("path.loss"))
    assert lossless.admit(1200, now=0.0) is not None


def _mbps_trace(*mbps):
    """One sample per 200 ms, the paper's trace format."""
    return BandwidthTrace([0.2 * i for i in range(len(mbps))],
                          [m * 1e6 for m in mbps])


def _link_departures(trace, capacity, offers):
    """Departure per offered ``(time, size)`` (None = tail drop) from the
    simulator's closed-form drop-tail ``Link``."""
    loop = EventLoop()
    link = Link(loop, trace, queue_capacity_bytes=capacity,
                on_deliver=lambda packet: None)
    link.depart_at_enqueue()
    packets = [Packet(size_bytes=size, seq=i)
               for i, (_t, size) in enumerate(offers)]
    for (t, _size), packet in zip(offers, packets):
        loop.call_at(t, lambda p=packet: link.send(p))
    loop.run(until=offers[-1][0] + 1.0)
    return [None if p.dropped else p.t_leave_queue for p in packets]


def _shim_departures(trace, capacity, offers):
    shim = LoopbackImpairment(
        PathConfig(base_rtt=0.0, queue_capacity_bytes=capacity),
        trace=trace)
    delays = [shim.admit(size, now=t) for t, size in offers]
    return [None if delay is None else t + delay
            for (t, _size), delay in zip(offers, delays)]


@pytest.mark.parametrize("mbps, capacity, offers", [
    # a 4 x 12.5 kB backlog across a 1 -> 10 Mbps step: the last two
    # serialize at the rate of *their* service start
    ((1, 10), 100_000, [(0.0, 12_500)] * 4),
    # an outage two samples long, met by a fresh datagram and by one
    # offered after the link is back
    ((10, 0, 0, 10, 10), 100_000, [(0.25, 1200), (0.7, 1200)]),
    # an overflow burst: tail drops, then room again as the queue drains
    ((1, 1), 3000, [(0.0, 1250)] * 4 + [(0.011, 1250), (0.05, 1250)]),
])
def test_shim_bottleneck_is_the_simulators(mbps, capacity, offers):
    """Same offers, same departures and same drops as ``Link``: the live
    shim runs the simulator's FIFO service law, not a copy of it."""
    link = _link_departures(_mbps_trace(*mbps), capacity, offers)
    shim = _shim_departures(_mbps_trace(*mbps), capacity, offers)
    assert [d is None for d in shim] == [d is None for d in link]
    assert any(d is not None for d in link)
    assert shim == pytest.approx(link, abs=1e-9)


def test_shim_rate_step_and_outage_departures():
    step = _shim_departures(_mbps_trace(1, 10), 100_000, [(0.0, 12_500)] * 4)
    assert step == pytest.approx([0.1, 0.2, 0.21, 0.22])
    # A datagram that meets a zero-rate sample waits for the link to
    # return at 0.6 s (found within one 50 ms retry step), not 8 * size
    # seconds at a 1 bps floor — and does not hold up the one after it.
    waited, after = _shim_departures(_mbps_trace(10, 0, 0, 10, 10), 100_000,
                                     [(0.25, 1200), (0.7, 1200)])
    assert 0.6 < waited <= 0.65 + 0.00096 + 1e-9
    assert after == pytest.approx(0.70096)


def test_shim_on_a_link_that_never_comes_back_raises_like_the_link():
    offers = [(0.0, 1200)]
    with pytest.raises(RuntimeError, match="outlasts 1e5 s") as link_error:
        _link_departures(_mbps_trace(0, 0), 100_000, offers)
    with pytest.raises(RuntimeError) as shim_error:
        _shim_departures(_mbps_trace(0, 0), 100_000, offers)
    assert str(shim_error.value) == str(link_error.value)


def test_impairment_feedback_delay_is_reverse_propagation():
    shim = LoopbackImpairment(PathConfig(base_rtt=0.05))
    assert shim.feedback_delay == pytest.approx(0.025)


@settings(max_examples=80, deadline=None)
@given(sends=st.lists(st.tuples(st.floats(1e-5, 0.01), st.integers(60, 1500)),
                      min_size=1, max_size=120),
       mbps=st.lists(st.one_of(st.just(0.0), st.floats(0.2, 30.0)),
                     min_size=1, max_size=6).filter(any),
       capacity=st.integers(3000, 60_000),
       base_rtt=st.one_of(st.just(0.0), st.floats(0.001, 0.1)),
       loss=st.sampled_from([0.0, 0.1, 0.5]),
       seed=st.integers(0, 2 ** 16))
def test_the_live_path_forwards_as_the_shim_admits(
        sends, mbps, capacity, base_rtt, loss, seed):
    """Forward parity, the shim as the oracle: ``NetworkPath`` (what a
    live session now runs) drops the packets the shim drops and delivers
    each other one at ``t + shim.admit(size, t + half_hop)``, within
    1e-9 s — the path meets the bottleneck half a hop after the send, so
    the oracle is asked there. Random loss draws from the same named
    stream, one draw per packet, on both. Drops are compared as a set:
    the path reports an ingress loss at the send and a queue drop at the
    bottleneck arrival half a hop later, so a later send's ingress loss
    can reach ``on_drop`` before an earlier send's queue drop.

    Send gaps are drawn from a continuous distribution: the two feeders
    resolve an exact float tie between a departure and an arrival
    differently (the path offers half a hop ahead of its clock, with
    ``lead`` = half hop, the shim at the arrival itself, ``lead`` = 0;
    DESIGN §6), and a wall clock never produces such a tie."""
    config = PathConfig(base_rtt=base_rtt, queue_capacity_bytes=capacity,
                        random_loss_rate=loss)
    loop = EventLoop()
    path = NetworkPath(loop, _mbps_trace(*mbps), config,
                       rng=SeedSequenceFactory(seed).stream("path.loss"))
    shim = LoopbackImpairment(
        config, trace=_mbps_trace(*mbps),
        rng=SeedSequenceFactory(seed).stream("path.loss"))
    arrived, dropped = {}, []
    path.on_arrival = lambda packet: arrived.setdefault(packet.seq, loop.now)
    path.on_drop = lambda packet: dropped.append(packet.seq)
    half_hop = config.one_way_delay / 2
    expected, t = {}, 0.0
    for seq, (gap, size) in enumerate(sends):
        t += gap
        loop.call_at(t, partial(path.send, Packet(size_bytes=size, seq=seq)))
        delay = shim.admit(size, t + half_hop)
        expected[seq] = None if delay is None else t + delay
    loop.run()
    assert sorted(dropped) == [seq for seq, when in expected.items()
                               if when is None]
    assert sorted(arrived) == [seq for seq, when in expected.items()
                               if when is not None]
    for seq, when in arrived.items():
        assert when == pytest.approx(expected[seq], abs=1e-9), seq


# ---------------------------------------------------------------------------
# UDP transport (sockets, no full stack)
# ---------------------------------------------------------------------------
def test_udp_transport_delivers_media_and_feedback():
    async def check():
        clock = WallClock(asyncio.get_running_loop())
        a = await UdpTransport.create(clock)
        b = await UdpTransport.create(clock)
        a.connect(b.local_addr)
        b.connect(a.local_addr)

        arrived = []
        fed_back = []
        b.on_arrival = arrived.append
        a.on_feedback = fed_back.append
        try:
            a.send(Packet(size_bytes=600, seq=11, frame_id=3,
                          frame_packet_index=0, frame_packet_count=1,
                          t_leave_pacer=0.001))
            from repro.transport.feedback import FeedbackMessage
            b.send_feedback(FeedbackMessage(created_at=0.5, highest_seq=11))
            await asyncio.sleep(0.2)
        finally:
            a.close()
            b.close()

        assert len(arrived) == 1
        packet = arrived[0]
        assert packet.seq == 11 and packet.frame_id == 3
        assert packet.t_arrival is not None and packet.t_arrival >= 0
        assert len(fed_back) == 1
        assert fed_back[0].highest_seq == 11

    asyncio.run(check())


def test_udp_transport_drops_and_counts_malformed_datagrams():
    """A truncated media datagram, a truncated feedback datagram and an
    unknown kind byte are each dropped and counted; the drain goes on
    to the valid datagram behind them and nothing reaches the loop's
    exception handler."""
    import socket

    from repro.live.wire import KIND_FEEDBACK, KIND_MEDIA, encode_packet

    async def check():
        aloop = asyncio.get_running_loop()
        errors = []
        aloop.set_exception_handler(lambda _loop, ctx: errors.append(ctx))
        clock = WallClock(aloop)
        b = await UdpTransport.create(clock)
        arrived, fed_back = [], []
        b.on_arrival = arrived.append
        b.on_feedback = fed_back.append
        raw = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            for data in (bytes([KIND_MEDIA, 0, 0]),
                         bytes([KIND_FEEDBACK, 0, 1, 2, 3]),
                         bytes([0x07]) + bytes(40),
                         encode_packet(Packet(size_bytes=300, seq=9))):
                raw.sendto(data, b.local_addr)
            await asyncio.sleep(0.1)
        finally:
            raw.close()
            b.close()
        assert [p.seq for p in arrived] == [9] and fed_back == []
        assert b.malformed == 3 and b.socket_errors == 0
        assert errors == []

    asyncio.run(check())


def test_udp_transport_counts_send_errors_and_goes_on():
    async def check():
        clock = WallClock(asyncio.get_running_loop())
        a = await UdpTransport.create(clock)
        b = await UdpTransport.create(clock)
        a.connect(b.local_addr)
        arrived = []
        b.on_arrival = arrived.append
        try:
            # Larger than a UDP payload can be: sendto fails (EMSGSIZE).
            a.send(Packet(size_bytes=70_000, seq=1))
            a.send(Packet(size_bytes=600, seq=2))
            await asyncio.sleep(0.1)
        finally:
            a.close()
            a.close()                   # idempotent
            b.close()
        assert a.socket_errors == 1
        assert [p.seq for p in arrived] == [2]

    asyncio.run(check())


# ---------------------------------------------------------------------------
# end-to-end sessions (wall clock; ~1 s each)
# ---------------------------------------------------------------------------
def short_config(**kwargs) -> LiveConfig:
    defaults = dict(duration=1.0, drain=0.3, seed=3)
    defaults.update(kwargs)
    return LiveConfig(**defaults)


@pytest.fixture()
def profiled_clocks(monkeypatch):
    """Every ``WallClock`` a live session builds, each with a
    ``LoopProfiler`` on its loop."""
    from repro.live import session as live_session_module
    from repro.obs.profiler import LoopProfiler

    clocks = []

    def profiled_clock(aloop):
        clock = WallClock(aloop)
        clock.loop.set_profiler(LoopProfiler())
        clocks.append(clock)
        return clock

    monkeypatch.setattr(live_session_module, "WallClock", profiled_clock)
    return clocks


def test_live_session_end_to_end_clean_path():
    config = short_config()
    metrics = run_live("webrtc-star", config=config,
                       trace=BandwidthTrace.constant(20e6, duration=12.0))

    # Wall-clock bounds: on a loaded host each failure message names
    # what was measured.
    frames = len(metrics.frames)
    displayed = [f for f in metrics.frames if f.displayed_at is not None]
    p95 = metrics.p95_latency()
    measured = (f"{frames} frames, {len(displayed)} displayed, "
                f"{metrics.packets_sent} sent, {metrics.packets_lost} lost, "
                f"p95 {p95:.4f} s")
    # ~30 frames captured in 1 s at 30 fps; allow generous jitter slack.
    assert 20 <= frames <= 40, measured
    assert len(displayed) >= 0.7 * frames, measured
    assert metrics.packets_sent > 0, measured
    assert metrics.packets_lost == 0, measured
    # Real latency: at least the 15 ms one-way propagation, below 2 s.
    assert 0.015 < p95 < 2.0, measured
    assert metrics.bwe_history  # feedback made it back to the controller
    assert metrics.send_events


def test_live_session_impairment_shows_up_in_metrics():
    config = short_config(random_loss_rate=0.3, seed=5)
    session = build_live_session(
        "webrtc-star", config,
        trace=BandwidthTrace.constant(20e6, duration=12.0))
    metrics = asyncio.run(session.run())

    # 30% i.i.d. loss over hundreds of packets: drops are certain, and
    # each reaches the session's loss count through the path's on_drop.
    assert metrics.packets_lost > 0
    assert session.path.lost_packets == metrics.packets_lost
    assert metrics.loss_rate() > 0.05
    # NACK-driven recovery kicked in.
    assert metrics.packets_retransmitted > 0


def test_live_session_runs_ace_stack():
    metrics = run_live("ace", config=short_config(),
                       trace=BandwidthTrace.constant(20e6, duration=12.0))
    displayed = [f for f in metrics.frames if f.displayed_at is not None]
    assert displayed
    assert metrics.mean_vmaf() > 0


def test_live_session_rejects_fec_baselines():
    with pytest.raises(ValueError, match="FEC"):
        run_live("ace-fec", config=short_config())


class _EndpointCensus:
    """Counts ``UdpTransport`` endpoints opened and closed."""

    def __init__(self, monkeypatch, fail_on: int = 0) -> None:
        self.opened = self.closed = 0
        create, close = UdpTransport.create.__func__, UdpTransport.close

        async def counting_create(cls, *args, **kwargs):
            if self.opened + 1 == fail_on:
                raise OSError(24, "Too many open files")
            endpoint = await create(cls, *args, **kwargs)
            self.opened += 1
            return endpoint

        def counting_close(endpoint):
            self.closed += 1
            close(endpoint)

        monkeypatch.setattr(UdpTransport, "create",
                            classmethod(counting_create))
        monkeypatch.setattr(UdpTransport, "close", counting_close)


def test_live_session_closes_both_endpoints_when_the_stack_fails(
        monkeypatch):
    """A failure after the binds (here the stack build) closes every
    endpoint it opened — on a supervisor's long-lived loop a leaked
    socket outlives the session."""
    census = _EndpointCensus(monkeypatch)

    def failing_stack(*args, **kwargs):
        raise RuntimeError("stack build failed")

    monkeypatch.setattr("repro.rtc.session.FlowStack", failing_stack)
    session = build_live_session("ace", LiveConfig(duration=0.2))
    with pytest.raises(RuntimeError, match="stack build failed"):
        asyncio.run(session.run())
    assert census.opened == 2 and census.closed == 2


@pytest.mark.parametrize("mix,name", [
    (("ace-fec",), "ace-fec"), (("ace", "nope"), "nope")])
def test_a_fleet_refuses_a_bad_mix_before_any_endpoint_opens(
        monkeypatch, mix, name):
    """A mix naming an unknown baseline, or one whose FEC parity the
    wire format cannot carry, fails the fleet, not each session."""
    census = _EndpointCensus(monkeypatch)
    with pytest.raises(ValueError, match=name):
        build_load_specs(LoadConfig(mix=mix))
    with pytest.raises(ValueError, match=name):
        run_load(LoadConfig(sessions=2, duration=0.2, mix=mix))
    assert census.opened == 0


@pytest.mark.parametrize("name,value", [
    ("audio", True), ("cross_traffic", True)])
def test_the_live_path_refuses_what_the_shim_cannot_emulate(
        monkeypatch, name, value):
    """A live config (``repro live``) and a load config's session configs
    (``repro load``) refuse, naming the field, what one flow per socket
    pair cannot carry — before any endpoint is opened."""
    census = _EndpointCensus(monkeypatch)
    with pytest.raises(ValueError, match=name):
        LiveConfig(**{name: value})
    with pytest.raises(ValueError, match=name):
        build_load_specs(LoadConfig(**{name: value}))
    with pytest.raises(ValueError, match=name):
        run_load(LoadConfig(sessions=1, duration=0.2, **{name: value}))
    assert census.opened == 0


def test_a_live_session_runs_jitter_and_contention_on_the_path(
        profiled_clocks):
    """What the path honours, a live session honours: with jitter (and
    contention loss) a session completes, and each packet takes the
    jittered path's departure hop on the clock's loop."""
    metrics = run_live("ace", config=short_config(
        delay_jitter_std=0.002, contention_loss_rate=0.05),
        trace=BandwidthTrace.constant(20e6, duration=12.0))
    assert metrics.packets_sent > 0 and metrics.frames
    (clock,) = profiled_clocks
    assert event_counts(clock.loop.profiler)["path.departure"] > 0


@pytest.mark.parametrize("shaped", [True, False])
def test_an_unshaped_live_path_drops_nothing_at_the_bottleneck(shaped):
    """``shaped=False`` is a bottleneck that never binds: a 200 kB burst
    offered at one instant loses nothing there, where the shaped path's
    100 kB queue tail-drops. The session carries no capacity curve."""

    async def check():
        session = build_live_session(
            "webrtc-star", short_config(duration=0.4, drain=0.2,
                                        shaped=shaped),
            trace=BandwidthTrace.constant(20e6, duration=12.0))
        task = asyncio.ensure_future(session.run())
        while session.sender is None:
            if task.done():
                task.result()           # surface the startup error
            await asyncio.sleep(0.01)
        for seq in range(170):          # cross traffic: the flow ignores it
            session.path.send(Packet(size_bytes=1200, seq=seq,
                                     ptype=PacketType.CROSS))
        await task
        return session

    session = asyncio.run(check())
    stats = session.path.link.stats
    assert stats.enqueued_packets + stats.dropped_packets >= 170
    assert (stats.dropped_packets > 0) is shaped
    assert (session.trace is None) is not shaped


def test_live_session_closes_the_first_endpoint_when_a_bind_fails(
        monkeypatch):
    """EMFILE on the second bind (a large ``repro load`` fleet) still
    closes the first endpoint."""
    census = _EndpointCensus(monkeypatch, fail_on=2)
    session = build_live_session("ace", LiveConfig(duration=0.2))
    with pytest.raises(OSError, match="Too many open files"):
        asyncio.run(session.run())
    assert census.opened == 1 and census.closed == 1


def test_live_session_cannot_run_twice():
    config = short_config(duration=0.3, drain=0.1)
    session = build_live_session(
        "webrtc-star", config,
        trace=BandwidthTrace.constant(20e6, duration=12.0))
    asyncio.run(session.run())
    with pytest.raises(RuntimeError):
        asyncio.run(session.run())


def test_live_session_teardown_leaves_nothing_scheduled():
    """After run() returns, no session timer may still be pending on the
    loop: the feedback tick, the pacer pump and the telemetry tick
    reschedule themselves forever, so teardown closes the clock — no
    entry and no asyncio timer left — and delayed sends die with close()."""

    async def check():
        session = build_live_session(
            "ace", short_config(duration=0.5, drain=0.2, telemetry=True),
            trace=BandwidthTrace.constant(20e6, duration=12.0))
        await session.run()
        assert session.clock.loop.next_time() == math.inf \
            and session.clock._timer is None
        # Nothing fires after the session is done: an empty loop
        # iteration right after run() sees no stray session callbacks.
        released_before = session.sender.pacer.stats.sent_packets
        await asyncio.sleep(0.3)
        assert session.sender.pacer.stats.sent_packets == released_before

    asyncio.run(check())


def test_fleet_session_clocks_hold_one_asyncio_timer(monkeypatch):
    """While a two-session fleet runs, each session clock has at most
    one asyncio timer pending; after teardown it has none."""
    from repro.live import LoadConfig, run_load

    pending = {}        # clock -> asyncio timers armed and not fired
    arms = {}           # clock -> arm calls
    most = {}           # clock -> most timers pending at once
    arm, wake = WallClock._arm, WallClock._wake

    def live(clock):
        return [t for t in pending.get(clock, []) if not t.cancelled()]

    def spying_arm(clock, when):
        # Runs inside loop callbacks, where a failed assert would only be
        # logged: record, and assert after the run.
        arm(clock, when)
        arms[clock] = arms.get(clock, 0) + 1
        pending.setdefault(clock, []).append(clock._timer)
        most[clock] = max(most.get(clock, 0), len(live(clock)))

    def spying_wake(clock):
        pending[clock].remove(clock._timer)
        wake(clock)

    monkeypatch.setattr(WallClock, "_arm", spying_arm)
    monkeypatch.setattr(WallClock, "_wake", spying_wake)
    supervisor = run_load(LoadConfig(
        sessions=2, mix=("ace", "webrtc-star"), duration=0.8, drain=0.2,
        seed=3, heartbeat_interval=None))
    assert [r.status for r in supervisor.records] == ["completed"] * 2
    clocks = {r.session.clock for r in supervisor.records}
    assert len(clocks) == 2 and clocks <= set(pending)
    assert all(arms[clock] > 10 for clock in clocks)
    assert all(most[clock] == 1 for clock in clocks)
    assert all(live(clock) == [] for clock in clocks)


def test_live_session_request_stop_ends_early():
    """request_stop() drains a running session well before duration."""

    async def check():
        session = build_live_session(
            "ace", short_config(duration=30.0, drain=0.2),
            trace=BandwidthTrace.constant(20e6, duration=60.0))
        task = asyncio.ensure_future(session.run())
        await asyncio.sleep(0.6)
        session.request_stop()
        metrics = await asyncio.wait_for(task, timeout=5.0)
        # Metrics are normalized to the elapsed media time, not the
        # 30 s that never ran.
        assert metrics.duration < 2.0
        assert metrics.frames

    asyncio.run(check())


def test_live_session_stats_port_busy_fails_clearly():
    """A busy --stats-port surfaces as a clear startup error, not an
    unhandled OSError from deep inside asyncio."""

    async def check():
        blocker = await asyncio.start_server(
            lambda r, w: None, "127.0.0.1", 0)
        port = blocker.sockets[0].getsockname()[1]
        session = build_live_session(
            "ace", short_config(duration=0.4, stats_port=port),
            trace=BandwidthTrace.constant(20e6, duration=12.0))
        try:
            with pytest.raises(RuntimeError, match="stats port"):
                await session.run()
        finally:
            blocker.close()
            await blocker.wait_closed()

    asyncio.run(check())


def test_live_session_telemetry_and_stats_port():
    """Telemetry spans flow in live mode and the stats endpoint serves a
    Prometheus snapshot over HTTP while the session runs."""
    config = short_config(duration=0.8, stats_port=0)
    session = build_live_session(
        "ace", config, trace=BandwidthTrace.constant(20e6, duration=12.0))

    async def run_and_scrape():
        task = asyncio.ensure_future(session.run())
        while session.stats_addr is None:
            if task.done():
                task.result()  # surface the startup error
            await asyncio.sleep(0.02)
        host, port = session.stats_addr[:2]

        async def scrape():
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            body = await reader.read()
            writer.close()
            return body.decode()

        # The first telemetry tick and the first encoded frame land a
        # fraction of a second into the run, so poll until the sampled
        # gauge and the frame counter show up instead of racing them.
        text = await scrape()
        while not task.done() and ("repro_cc_bwe_bps" not in text
                                   or "repro_frames_encoded_total" not in text
                                   or "repro_live_pacing_p99_ms" not in text):
            await asyncio.sleep(0.05)
            try:
                text = await scrape()
            except OSError:  # the session finished and closed the server
                break
        metrics = await task
        return text, metrics

    text, metrics = asyncio.run(run_and_scrape())
    assert "200 OK" in text
    assert "repro_cc_bwe_bps" in text
    assert "repro_frames_encoded_total" in text
    # The lone session serves its heartbeat row the way a fleet of one
    # does, so `repro watch` shows its status and pacing p99.
    record = record_from_prometheus(text.split("\r\n\r\n", 1)[1])
    assert record["running"] == 1
    assert record["sessions"]["ace"]["status"] == "running"
    assert record["sessions"]["ace"]["pacing_p99_ms"] >= 0.0
    telemetry = session.telemetry
    assert telemetry is not None
    spans = telemetry.spans.completed()
    assert spans, "no frame completed a full live span"
    displayed = [f for f in metrics.frames if f.displayed_at is not None]
    # Teardown timing can leave the receiver-side span view and the
    # sender-side metrics off by a frame or two; keep the check coarse.
    assert abs(len(spans) - len(displayed)) <= 3


# ---------------------------------------------------------------------------
# pacing-stall injector: one cancellable handle, no timer left behind
# ---------------------------------------------------------------------------
@pytest.fixture()
def stall_timers(monkeypatch):
    """Every ``slo.stall`` timer a WallClock hands out, in order."""
    timers = []
    original = WallClock.call_later

    def recording(self, delay, callback, name=""):
        timer = original(self, delay, callback, name)
        if name == "slo.stall":
            timers.append(timer)
        return timer

    monkeypatch.setattr(WallClock, "call_later", recording)
    return timers


def test_stall_handle_is_cancelled_by_teardown(stall_timers):
    """A stall window outlasting the session leaves a re-arm pending at
    teardown; closing the clock drops it, so it never fires on the loop."""

    async def check():
        session = build_live_session(
            "ace", short_config(duration=0.5, drain=0.1,
                                stall=(0.1, 30.0)),
            trace=BandwidthTrace.constant(20e6, duration=12.0))
        await session.run()
        assert len(stall_timers) > 2, "the stall never re-armed"
        assert session.clock.loop.next_time() == math.inf \
            and session.clock._timer is None
        fired = len(stall_timers)
        await asyncio.sleep(0.15)
        assert len(stall_timers) == fired, "a stall clamp fired after run()"

    asyncio.run(check())


def test_stall_handle_is_cancelled_by_request_stop(stall_timers):
    async def check():
        session = build_live_session(
            "ace", short_config(duration=30.0, drain=0.2,
                                stall=(0.1, 30.0)),
            trace=BandwidthTrace.constant(20e6, duration=60.0))
        task = asyncio.ensure_future(session.run())
        await asyncio.sleep(0.5)
        assert stall_timers and not stall_timers[-1].cancelled
        session.request_stop()
        assert stall_timers[-1].cancelled
        assert session.stall._handle is None
        fired = len(stall_timers)
        await asyncio.wait_for(task, timeout=5.0)
        assert len(stall_timers) == fired, "the stall re-armed after stop"

    asyncio.run(check())


# ---------------------------------------------------------------------------
# one event loop under the wall clock: the loop's observers see a live run
# ---------------------------------------------------------------------------
def test_live_audit_checks_once_per_clock_event():
    session = build_live_session(
        "ace", short_config(audit=True),
        trace=BandwidthTrace.constant(20e6, duration=12.0))
    asyncio.run(session.run())
    auditor = session.auditor
    assert auditor.violations == []
    # Socket reads move controller state between clock events.
    assert not auditor.fine_grained and not auditor.strict
    # One check per executed clock event, plus finalize's own.
    assert auditor.events_checked == session.clock.loop.processed + 1
    assert auditor.events_checked > 100


def test_a_loop_profiler_counts_a_live_sessions_events_by_name(
        profiled_clocks):
    run_live("ace", config=short_config(telemetry=True),
             trace=BandwidthTrace.constant(20e6, duration=12.0))
    (clock,) = profiled_clocks
    profiler = clock.loop.profiler
    assert profiler.total_events == clock.loop.processed > 0
    assert {"pacer.pump", "receiver.feedback", "obs.tick",
            "sender.capture", "path.to-receiver", "path.feedback"} <= set(
        event_counts(profiler))


def test_live_hops_are_path_events_on_the_clock_loop(profiled_clocks,
                                                     monkeypatch):
    """Media and feedback cross the path as ``path.to-receiver`` and
    ``path.feedback`` events on the session clock's loop, and neither UDP
    endpoint arms an asyncio timer of its own. Feedback reaches the
    sender no earlier than the one-way delay after the receiver made
    it, as in the simulator."""
    from repro.rtc.sender import Sender

    armed, delays = [], []
    on_feedback = Sender.on_feedback

    def timed(sender, message):
        delays.append(sender.loop.now - message.created_at)
        on_feedback(sender, message)

    monkeypatch.setattr(Sender, "on_feedback", timed)
    session = build_live_session(
        "ace", short_config(base_rtt=0.04),
        trace=BandwidthTrace.constant(20e6, duration=12.0))

    async def run():
        aloop = asyncio.get_running_loop()
        for method in ("call_at", "call_later"):
            original = getattr(aloop, method)

            def recording(when, callback, *args, _original=original,
                          **kwargs):
                armed.append(callback)
                return _original(when, callback, *args, **kwargs)

            setattr(aloop, method, recording)
        await session.run()

    asyncio.run(run())
    (clock,) = profiled_clocks
    counts = event_counts(clock.loop.profiler)
    assert counts["path.to-receiver"] > 0 and counts["path.feedback"] > 0
    assert not any(getattr(cb, "__self__", None) in session.ends
                   for cb in armed)
    assert delays and min(delays) >= 0.02

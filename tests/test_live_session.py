"""Live-mode tests: the impairment shim and end-to-end UDP loopback runs.

The session tests run the real stack on a wall clock for about a second
each, so assertions are kept coarse (frames flowed, metrics populated,
impairment visible) — exact timing belongs to the deterministic
simulator tests.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.live import (
    ImpairmentConfig,
    LiveConfig,
    LoopbackImpairment,
    UdpTransport,
)
from repro.live.clock import WallClock
from repro.live.session import build_live_session, run_live
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.trace import BandwidthTrace
from repro.sim.events import EventLoop
from repro.sim.rng import SeedSequenceFactory


# ---------------------------------------------------------------------------
# impairment shim (deterministic, no sockets)
# ---------------------------------------------------------------------------
def test_unshaped_impairment_is_propagation_only():
    shim = LoopbackImpairment(ImpairmentConfig(base_rtt=0.04))
    assert shim.admit(1200, now=0.0) == pytest.approx(0.02)
    assert shim.admit(1200, now=5.0) == pytest.approx(0.02)
    assert shim.delivered == 2 and shim.dropped == 0


def test_shaped_impairment_serializes_back_to_back_packets():
    trace = BandwidthTrace.constant(1e6, duration=100.0)  # 1 Mbps
    shim = LoopbackImpairment(ImpairmentConfig(base_rtt=0.0), trace=trace)
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
        ImpairmentConfig(base_rtt=0.0, queue_capacity_bytes=3000),
        trace=trace)
    assert shim.admit(1250, now=0.0) is not None
    assert shim.admit(1250, now=0.0) is not None
    assert shim.queued_bytes == 2500
    assert shim.admit(1250, now=0.0) is None  # 3750 > 3000: tail drop
    assert shim.dropped == 1 and shim.delivered == 2


def test_impairment_random_loss_uses_rng_stream():
    shim = LoopbackImpairment(
        ImpairmentConfig(random_loss_rate=1.0),
        rng=SeedSequenceFactory(1).stream("path.loss"))
    assert shim.admit(1200, now=0.0) is None
    assert shim.dropped == 1

    lossless = LoopbackImpairment(
        ImpairmentConfig(random_loss_rate=0.0),
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
    link.depart_at_enqueue(0.0)
    packets = [Packet(size_bytes=size, seq=i)
               for i, (_t, size) in enumerate(offers)]
    for (t, _size), packet in zip(offers, packets):
        loop.call_at(t, lambda p=packet: link.send(p))
    loop.run(until=offers[-1][0] + 1.0)
    return [None if p.dropped else p.t_leave_queue for p in packets]


def _shim_departures(trace, capacity, offers):
    shim = LoopbackImpairment(
        ImpairmentConfig(base_rtt=0.0, queue_capacity_bytes=capacity),
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
    shim = LoopbackImpairment(ImpairmentConfig(base_rtt=0.05))
    assert shim.feedback_delay == pytest.approx(0.025)


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


def test_udp_transport_close_cancels_delayed_sends():
    """Regression: impairment-delayed datagrams left clock.call_later
    timers pending after close(), firing into a closed endpoint — a
    timer leak per session under a multi-session supervisor."""

    async def check():
        clock = WallClock(asyncio.get_running_loop())
        # 1 Mbps shaping: a packet burst queues several delayed sends.
        shim = LoopbackImpairment(
            ImpairmentConfig(base_rtt=0.2),
            trace=BandwidthTrace.constant(1e6, duration=60.0))
        a = await UdpTransport.create(clock, impairment=shim)
        b = await UdpTransport.create(clock)
        a.connect(b.local_addr)
        b.connect(a.local_addr)
        arrived = []
        b.on_arrival = arrived.append
        for seq in range(5):
            a.send(Packet(size_bytes=1200, seq=seq))
        assert a.pending_timers > 0
        a.close()
        assert a.pending_timers == 0
        # The cancelled timers must never fire a send.
        await asyncio.sleep(0.3)
        b.close()
        assert arrived == []

    asyncio.run(check())


def test_udp_transport_impairment_drops_are_recorded():
    async def check():
        clock = WallClock(asyncio.get_running_loop())
        shim = LoopbackImpairment(
            ImpairmentConfig(random_loss_rate=1.0),
            rng=SeedSequenceFactory(1).stream("path.loss"))
        a = await UdpTransport.create(clock, impairment=shim)
        b = await UdpTransport.create(clock)
        a.connect(b.local_addr)
        b.connect(a.local_addr)
        dropped = []
        a.on_drop = dropped.append
        try:
            a.send(Packet(size_bytes=600, seq=1))
            await asyncio.sleep(0.05)
        finally:
            a.close()
            b.close()
        assert len(a.dropped_packets) == 1
        assert dropped and dropped[0].seq == 1

    asyncio.run(check())


# ---------------------------------------------------------------------------
# end-to-end sessions (wall clock; ~1 s each)
# ---------------------------------------------------------------------------
def short_config(**kwargs) -> LiveConfig:
    defaults = dict(duration=1.0, drain=0.3, seed=3)
    defaults.update(kwargs)
    return LiveConfig(**defaults)


def test_live_session_end_to_end_clean_path():
    config = short_config()
    metrics = run_live("webrtc-star", config=config,
                       trace=BandwidthTrace.constant(20e6, duration=12.0))

    # ~30 frames captured in 1 s at 30 fps; allow generous jitter slack.
    assert 20 <= len(metrics.frames) <= 40
    displayed = [f for f in metrics.frames if f.displayed_at is not None]
    assert len(displayed) >= 0.7 * len(metrics.frames)
    assert metrics.packets_sent > 0
    assert metrics.packets_lost == 0
    # Real latency: at least the 15 ms one-way propagation, below 2 s.
    p95 = metrics.p95_latency()
    assert 0.015 < p95 < 2.0
    assert metrics.bwe_history  # feedback made it back to the controller
    assert metrics.send_events


def test_live_session_impairment_shows_up_in_metrics():
    config = short_config(random_loss_rate=0.3, seed=5)
    session = build_live_session(
        "webrtc-star", config,
        trace=BandwidthTrace.constant(20e6, duration=12.0))
    metrics = asyncio.run(session.run())

    # 30% i.i.d. loss over hundreds of packets: drops are certain.
    assert metrics.packets_lost > 0
    assert session.impairment.dropped == metrics.packets_lost
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
    loop: the feedback tick and the pacer pump used to reschedule
    themselves forever, and delayed sends outlived close()."""

    async def check():
        session = build_live_session(
            "ace", short_config(duration=0.5, drain=0.2),
            trace=BandwidthTrace.constant(20e6, duration=12.0))
        await session.run()
        assert session.receiver._feedback_handle is None or \
            session.receiver._stopped
        assert session.sender.pacer._pump_event is None
        # Nothing fires after the session is done: an empty loop
        # iteration right after run() sees no stray session callbacks.
        released_before = session.sender.pacer.stats.sent_packets
        await asyncio.sleep(0.3)
        assert session.sender.pacer.stats.sent_packets == released_before

    asyncio.run(check())


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
                                   or "repro_frames_encoded_total" not in text):
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
    teardown; it must be cancelled, not left to fire on the loop."""

    async def check():
        session = build_live_session(
            "ace", short_config(duration=0.5, drain=0.1,
                                inject_stall_at=0.1,
                                inject_stall_duration=30.0),
            trace=BandwidthTrace.constant(20e6, duration=12.0))
        await session.run()
        assert len(stall_timers) > 2, "the stall never re-armed"
        assert stall_timers[-1].cancelled
        assert session._stall._handle is None
        fired = len(stall_timers)
        await asyncio.sleep(0.15)
        assert len(stall_timers) == fired, "a stall clamp fired after run()"

    asyncio.run(check())


def test_stall_handle_is_cancelled_by_request_stop(stall_timers):
    async def check():
        session = build_live_session(
            "ace", short_config(duration=30.0, drain=0.2,
                                inject_stall_at=0.1,
                                inject_stall_duration=30.0),
            trace=BandwidthTrace.constant(20e6, duration=60.0))
        task = asyncio.ensure_future(session.run())
        await asyncio.sleep(0.5)
        assert stall_timers and not stall_timers[-1].cancelled
        session.request_stop()
        assert stall_timers[-1].cancelled
        assert session._stall._handle is None
        fired = len(stall_timers)
        await asyncio.wait_for(task, timeout=5.0)
        assert len(stall_timers) == fired, "the stall re-armed after stop"

    asyncio.run(check())

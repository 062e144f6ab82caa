"""Live session driver: the ACE stack over real UDP sockets.

A :class:`LiveSession` is a :class:`~repro.rtc.session.Session` — the
simulated sessions' flow stack, callbacks and lifecycle — scheduled on
a :class:`~repro.live.clock.WallClock`, its packets moving through two
:class:`~repro.live.transport.UdpTransport` endpoints on loopback. An
in-process impairment shim substitutes for the paper's Mahimahi
bottleneck (no ``tc``/netem on CI-class machines), so the stack meets
real socket latency, real asyncio timer jitter and an emulated
bottleneck: the paper's WebRTC deployment, scaled down to one host.

The output is the ordinary :class:`~repro.rtc.metrics.SessionMetrics`::

    metrics = run_live("ace", LiveConfig(duration=5.0))
    print(metrics.p95_latency(), metrics.mean_vmaf())
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Optional

from repro.live.clock import WallClock
from repro.live.impairment import LoopbackImpairment
from repro.live.stats import start_stats_server, stats_addr
from repro.live.transport import UdpTransport
from repro.net.path import PathConfig
from repro.net.trace import BandwidthTrace
from repro.observe import Observe, attach
from repro.rtc.baselines import get_spec, stack_kwargs
from repro.rtc.metrics import SessionMetrics
from repro.rtc.session import Session


@dataclass
class LiveConfig(Observe):
    """Knobs of one live (wall-clock, UDP-loopback) run; its inherited
    :class:`~repro.observe.Observe` options attach inside ``run()``."""

    duration: float = 5.0
    seed: int = 1
    fps: float = 30.0
    initial_bwe_bps: float = 4_000_000.0
    max_bwe_bps: float = 30_000_000.0
    #: emulated two-way propagation delay (impairment shim).
    base_rtt: float = 0.03
    #: i.i.d. random loss on the forward path.
    random_loss_rate: float = 0.0
    #: drop-tail queue of the emulated bottleneck.
    queue_capacity_bytes: int = 100_000
    #: post-stop settle time for in-flight packets and feedback.
    drain: float = 0.5
    #: shape traffic to ``trace``; False = unshaped loopback (delay/loss
    #: still apply).
    shaped: bool = True
    #: serve a Prometheus text snapshot over HTTP on this loopback port
    #: while the session runs (``repro live --stats-port``; 0 = pick an
    #: ephemeral port, exposed as ``session.stats_addr``). Implies
    #: telemetry.
    stats_port: Optional[int] = None
    #: keep the full telemetry event log. The multi-session supervisor
    #: turns this off so soak-scale fleets keep only the metric registry
    #: and bounded windows (flight ring, wire rows, undisplayed spans).
    keep_telemetry_events: bool = True
    #: shrink the pacer's occupancy sample ring to this many entries
    #: (None = the pacer default); set per session by the supervisor so
    #: fleet memory is sessions x cap.
    pacer_stats_cap: Optional[int] = None


class LiveSession(Session):
    """One sender/receiver pair over UDP loopback: the shared
    :class:`~repro.rtc.session.Session` phases, with time advanced by
    awaiting a wall clock instead of an engine.

    Built by :func:`build_live_session` from a baseline name; call
    :meth:`run` inside an event loop (or use the synchronous
    :func:`run_live` wrapper). A ``WallClock`` needs that running loop,
    so the clock, the endpoints and flow 0's stack are built by ``run``.
    """

    #: series-shard mode (:func:`repro.observe.harvest`).
    mode = "live"

    def __init__(self, trace: Optional[BandwidthTrace], config: LiveConfig,
                 **stack_kwargs) -> None:
        # Unshaped: the shim meters no rate, the metrics carry no curve.
        super().__init__(trace if config.shaped else None, config)
        sender_config = stack_kwargs.get("sender_config")
        if sender_config is not None and sender_config.fec_enabled:
            raise ValueError("FEC parity is not encodable on the live wire "
                             "format yet; pick a non-FEC baseline")
        #: FlowStack keyword arguments, held until run() has a clock.
        self._stack_kwargs = stack_kwargs
        self._stop_requested = False
        self._stop_waiter = None
        self.sender = self.receiver = None       # flow 0's, from run()
        self.impairment: Optional[LoopbackImpairment] = None
        #: ``(host, port)`` of the running stats endpoint (stats_port=0).
        self.stats_addr: Optional[tuple] = None

    @property
    def cpu_s(self) -> float:
        """CPU seconds attributed to this session's clock callbacks (0.0
        before :meth:`run`)."""
        return 0.0 if self.clock is None else self.clock.cpu_s

    async def run(self) -> SessionMetrics:
        """Execute the session in real time and aggregate metrics."""
        self._claim()
        config = self.config
        self.clock = WallClock(asyncio.get_running_loop(), cpu_accounting=True)
        self.impairment = LoopbackImpairment(PathConfig(
            base_rtt=config.base_rtt,
            queue_capacity_bytes=config.queue_capacity_bytes,
            random_loss_rate=config.random_loss_rate,
        ), trace=self.trace, rng=self.rngs.stream("path.loss"))
        ends: list[UdpTransport] = []
        stats_server = None
        elapsed = config.duration
        try:
            # From the first bind on, every failure (a second bind, the
            # stack build, a busy stats port) runs the teardown below.
            # The receiver end delays feedback by the reverse propagation
            # only (uncongested); the sender end shapes outgoing media.
            for impairment in (None, self.impairment):
                ends.append(await UdpTransport.create(
                    self.clock, impairment=impairment))
            recv_end, send_end = ends
            send_end.connect(recv_end.local_addr)
            recv_end.connect(send_end.local_addr)
            stack = self._add_flow(
                0, self.rngs, ends=(send_end, send_end.send,
                                    recv_end.send_feedback),
                **self._stack_kwargs)
            self.sender, self.receiver = stack.sender, stack.receiver
            if config.pacer_stats_cap is not None:
                self.sender.pacer.stats.rebound(config.pacer_stats_cap)
            recv_end.on_arrival = self._on_arrival
            send_end.on_drop = self._on_drop
            # One flow per socket pair: feedback carries no flow id.
            send_end.on_feedback = self.sender.on_feedback
            if config.stats_port is not None:      # implies telemetry
                from repro.obs.export import prometheus_snapshot
                telemetry = self.enable_telemetry()
                stats_server = await start_stats_server(
                    config.stats_port,
                    lambda: prometheus_snapshot(telemetry.registry))
                self.stats_addr = stats_addr(stats_server)
            attach(self, config)
            self._start()
            await self._wait_or_stop(config.duration)
            elapsed = min(self.clock.now, config.duration)
            self._stop()
            # Let in-flight packets and feedback land.
            await self.clock.sleep(config.drain)
        finally:
            # Teardown must leave *nothing* scheduled on the event loop:
            # the feedback tick and the pacer pump otherwise reschedule
            # themselves forever, and close() cancels the transports'
            # delayed sends — a per-session timer leak under a
            # multi-session supervisor.
            if self.telemetry is not None:
                self.telemetry.stop_tick()
            self._stop()
            for stack in self.stacks.values():
                stack.receiver.stop()
                stack.sender.pacer.cancel_pump()
            if self.stall is not None:
                self.stall.cancel()
            if stats_server is not None:
                stats_server.close()
                await stats_server.wait_closed()
            for end in ends:
                end.close()
        return self._finish(elapsed)[0]

    def request_stop(self) -> None:
        """Ask a running session to wind down early (graceful: the
        sender stops, then the normal drain window runs). Safe to call
        before or after ``run()`` starts; idempotent."""
        self._stop_requested = True
        if self.stall is not None:
            self.stall.cancel()
        waiter = self._stop_waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    async def _wait_or_stop(self, duration: float) -> None:
        """Wait out the media phase, or return early on request_stop()."""
        if self._stop_requested:
            return
        waiter = asyncio.get_running_loop().create_future()
        self._stop_waiter = waiter
        handle = self.clock.call_later(
            duration, lambda: None if waiter.done()
            else waiter.set_result(None), "live.duration")
        try:
            await waiter
        finally:
            handle.cancel()
            self._stop_waiter = None


def build_live_session(baseline: str, config: Optional[LiveConfig] = None,
                       trace: Optional[BandwidthTrace] = None,
                       category: str = "gaming",
                       ace_n_config=None, ace_c_config=None) -> LiveSession:
    """Build a :class:`LiveSession` for a named baseline.

    Reuses the baseline registry's factories, so ``"ace"`` here is the
    same stack as ``build_session("ace", ...)`` — only the clock and the
    transport differ.
    """
    config = config or LiveConfig()
    if trace is None:
        trace = BandwidthTrace.constant(
            20e6, duration=config.duration + config.drain + 10)
    return LiveSession(
        trace=trace, config=config, ace_c_config=ace_c_config,
        **stack_kwargs(get_spec(baseline), config, category, ace_n_config))


def run_live(baseline: str, config: Optional[LiveConfig] = None,
             trace: Optional[BandwidthTrace] = None,
             category: str = "gaming", **kwargs) -> SessionMetrics:
    """Synchronous convenience wrapper: build, run, return metrics."""
    session = build_live_session(baseline, config=config, trace=trace,
                                 category=category, **kwargs)
    return asyncio.run(session.run())

"""Live session driver: the ACE stack over real UDP sockets.

Runs the *same* sender and receiver components as the simulated
:class:`~repro.rtc.session.RtcSession` — codec model, rate control,
pacers, congestion controller, ACE-N/ACE-C — but schedules them on a
:class:`~repro.live.clock.WallClock` and moves packets through
:class:`~repro.live.transport.UdpTransport` endpoints on the loopback
interface. An in-process impairment shim substitutes for the paper's
Mahimahi bottleneck (no ``tc``/netem on CI-class machines), so the
stack experiences real socket latency, real asyncio timer jitter, and a
configurable emulated bottleneck — the conditions the paper's WebRTC
deployment runs under, scaled down to one host.

The output is the ordinary :class:`~repro.rtc.metrics.SessionMetrics`,
so every analysis/report helper in the repo works on live runs too::

    metrics = run_live("ace", duration=5.0)
    print(metrics.p95_latency(), metrics.mean_vmaf())
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Optional

from repro.live.clock import WallClock
from repro.live.impairment import ImpairmentConfig, LoopbackImpairment
from repro.live.transport import UdpTransport
from repro.net.packet import Packet
from repro.net.trace import BandwidthTrace
from repro.rtc.baselines import get_spec, stack_kwargs
from repro.rtc.metrics import SessionMetrics
from repro.rtc.sender import Sender
from repro.rtc.session import FlowStack
from repro.sim.rng import SeedSequenceFactory
from repro.transport.pacer.stall import PacingStall
from repro.transport.receiver import TransportReceiver


@dataclass
class LiveConfig:
    """Knobs of one live (wall-clock, UDP-loopback) run."""

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
    #: attach a polling invariant auditor (``repro live --check``). Wall
    #: clocks have no per-event hook, so the auditor samples state every
    #: ``audit.auditor.POLL_INTERVAL_S``; violations are collected on the
    #: session's ``auditor`` and surfaced by the caller.
    audit: bool = False
    #: enable :class:`repro.obs.Telemetry` (frame spans, metric registry,
    #: flight recorder). Implied by ``stats_port``.
    telemetry: bool = False
    #: serve a Prometheus text snapshot over HTTP on this loopback port
    #: while the session runs (``repro live --stats-port``; 0 = pick an
    #: ephemeral port, exposed as ``session.stats_addr``).
    stats_port: Optional[int] = None
    #: keep the full telemetry event log. The multi-session supervisor
    #: turns this off so soak-scale fleets keep only the metric registry
    #: and the bounded flight ring per session.
    keep_telemetry_events: bool = True
    #: shrink the pacer's per-packet sample rings to this many entries
    #: (None = the pacer default); set per session by the supervisor so
    #: fleet memory is sessions x cap.
    pacer_stats_cap: Optional[int] = None
    #: attribute CPU time to this session at clock-callback boundaries
    #: (:class:`~repro.live.clock.WallClock` accounting); read back via
    #: ``session.cpu_s``. The supervisor turns this on fleet-wide.
    cpu_accounting: bool = False
    #: record bounded time-series of every instrument on the telemetry
    #: tick (implies telemetry); read back via ``session.series_frame()``.
    series: bool = False
    #: attach the SLO watchdog (implies telemetry): default session
    #: rules over the burst analyzer's pacing tail + pacer backlog
    #: drift, evaluated on the telemetry tick.
    slo: bool = False
    #: pacing-delay p99 bound (seconds) for the default SLO rules.
    slo_pacing_p99_s: float = 0.25
    #: fault injection for watchdog drills: clamp the pacing rate to
    #: the pacer floor starting at this session time (seconds) ...
    inject_stall_at: Optional[float] = None
    #: ... for this long. The clamp re-fires every 50 ms so congestion-
    #: controller updates cannot lift the rate mid-stall.
    inject_stall_duration: float = 1.0


class LiveSession:
    """One sender/receiver pair over UDP loopback on a wall clock.

    Built by :func:`build_live_session` from a baseline name; call
    :meth:`run` inside an event loop (or use the synchronous
    :func:`run_live` wrapper).
    """

    def __init__(self, trace: Optional[BandwidthTrace], config: LiveConfig,
                 source_factory, codec_factory, rate_control_factory,
                 pacer_factory, cc_factory,
                 sender_config=None, ace_n_config=None,
                 ace_c_config=None) -> None:
        self.trace = trace
        self.config = config
        self.rngs = SeedSequenceFactory(config.seed)
        if sender_config is not None and sender_config.fec_enabled:
            raise ValueError("FEC parity is not encodable on the live wire "
                             "format yet; pick a non-FEC baseline")
        #: FlowStack keyword arguments, held until run() has a clock.
        self._stack_kwargs = dict(
            source_factory=source_factory, codec_factory=codec_factory,
            rate_control_factory=rate_control_factory,
            pacer_factory=pacer_factory, cc_factory=cc_factory,
            sender_config=sender_config, ace_n_config=ace_n_config,
            ace_c_config=ace_c_config)
        self._finished = False
        self._stop_requested = False
        self._stop_waiter = None
        # Populated by run():
        self.clock: Optional[WallClock] = None
        self.sender: Optional[Sender] = None
        self.receiver: Optional[TransportReceiver] = None
        self.impairment: Optional[LoopbackImpairment] = None
        #: populated by run() when ``config.audit`` is set.
        self.auditor = None
        #: populated by run() when ``config.telemetry``/``stats_port`` is
        #: set (:class:`repro.obs.Telemetry`).
        self.telemetry = None
        #: ``(host, port)`` of the running stats endpoint, for callers
        #: that passed ``stats_port=0``.
        self.stats_addr: Optional[tuple] = None
        #: populated by run() when ``config.slo`` is set
        #: (:class:`repro.obs.slo.SloWatchdog`).
        self.watchdog = None
        self._stall: Optional[PacingStall] = None

    @property
    def cpu_s(self) -> float:
        """CPU seconds attributed to this session's clock callbacks
        (0.0 unless ``config.cpu_accounting``)."""
        return self.clock.cpu_s if self.clock is not None else 0.0

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------
    async def run(self) -> SessionMetrics:
        """Execute the session in real time and aggregate metrics."""
        if self._finished:
            raise RuntimeError("session already ran; build a new one")
        config = self.config

        clock = self.clock = WallClock(asyncio.get_running_loop(),
                                       cpu_accounting=config.cpu_accounting)
        impairment = self.impairment = LoopbackImpairment(
            ImpairmentConfig(
                base_rtt=config.base_rtt,
                queue_capacity_bytes=config.queue_capacity_bytes,
                random_loss_rate=config.random_loss_rate,
            ),
            trace=self.trace if config.shaped else None,
            rng=self.rngs.stream("path.loss"),
        )

        # Two UDP endpoints on loopback, peered at each other. The
        # sender end shapes outgoing media; the receiver end delays
        # feedback by the reverse propagation only (uncongested).
        recv_end = await UdpTransport.create(clock)
        send_end = await UdpTransport.create(clock, impairment=impairment)
        send_end.connect(recv_end.local_addr)
        recv_end.connect(send_end.local_addr)

        stack = FlowStack(
            clock, send_end, send_end.send, recv_end.send_feedback,
            self.rngs, fps=config.fps,
            initial_bwe_bps=config.initial_bwe_bps, **self._stack_kwargs)
        sender = self.sender = stack.sender
        receiver = self.receiver = stack.receiver
        display_sync = stack.display_sync
        pacer = sender.pacer
        if config.pacer_stats_cap is not None:
            pacer.stats.rebound(config.pacer_stats_cap)

        telemetry = None
        if (config.telemetry or config.stats_port is not None or config.slo
                or config.series):
            from repro.obs import Telemetry
            telemetry = self.telemetry = Telemetry(
                clock, keep_events=config.keep_telemetry_events)
            # No Link in live mode — the impairment shim is the bottleneck.
            stack.attach_telemetry(telemetry)
            if config.slo:
                self.watchdog = telemetry.attach_watchdog(
                    pacing_p99_s=config.slo_pacing_p99_s)
            if config.series:
                telemetry.attach_series()
        if config.inject_stall_at is not None:
            self._stall = PacingStall(clock, pacer, config.inject_stall_at,
                                      config.inject_stall_duration)

        def on_arrival(packet: Packet) -> None:
            receiver.on_packet(packet)
            if display_sync.pending:
                display_sync.sync()

        recv_end.on_arrival = on_arrival
        send_end.on_feedback = sender.on_feedback
        send_end.on_drop = lambda packet: None  # counted by the transport

        if config.audit:
            from repro.audit.auditor import SessionAuditor
            # The emulated forward delay plus the honest reverse estimate
            # keeps measured RTTs at or above base_rtt even on a wall
            # clock (real time only ever adds delay).
            self.auditor = SessionAuditor(
                clock, pacer, ace_n=sender.ace_n, cc=stack.cc,
                rtt_floor=config.base_rtt,
                telemetry=telemetry,
            ).attach_polling()

        stats_server = None
        media_elapsed = config.duration
        try:
            # From here on every failure (a busy stats port included)
            # runs the teardown below — the endpoints are already open.
            if config.stats_port is not None:
                stats_server = await self._start_stats_server(
                    config.stats_port)
            if telemetry is not None:
                telemetry.start_tick()
            sender.start()
            receiver.start()
            await self._wait_or_stop(clock, config.duration)
            media_elapsed = min(clock.now, config.duration)
            sender.stop()
            # Let in-flight packets and feedback land.
            await clock.sleep(config.drain)
        finally:
            if telemetry is not None:
                telemetry.stop_tick()
                telemetry.flush()
            # Teardown must leave *nothing* scheduled on the event loop:
            # the feedback tick and the pacer pump otherwise reschedule
            # themselves forever, and close() cancels the transports'
            # delayed sends — a per-session timer leak under a
            # multi-session supervisor.
            sender.stop()
            receiver.stop()
            pacer.cancel_pump()
            if self._stall is not None:
                self._stall.cancel()
            if stats_server is not None:
                stats_server.close()
                await stats_server.wait_closed()
            send_end.close()
            recv_end.close()
        display_sync.sync()
        self._finished = True
        if self.auditor is not None:
            self.auditor.finalize()
        return stack.collect(
            media_elapsed, len(send_end.dropped_packets),
            self.trace.rate_at
            if self.trace is not None and config.shaped else None)

    # ------------------------------------------------------------------
    # early stop
    # ------------------------------------------------------------------
    def request_stop(self) -> None:
        """Ask a running session to wind down early (graceful: the
        sender stops, then the normal drain window runs). Safe to call
        before or after ``run()`` starts; idempotent."""
        self._stop_requested = True
        if self._stall is not None:
            self._stall.cancel()
        waiter = self._stop_waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    async def _wait_or_stop(self, clock: WallClock, duration: float) -> None:
        """Wait out the media phase, or return early on request_stop()."""
        if self._stop_requested:
            return
        waiter = asyncio.get_running_loop().create_future()
        self._stop_waiter = waiter
        handle = clock.call_later(
            duration, lambda: None if waiter.done()
            else waiter.set_result(None), "live.duration")
        try:
            await waiter
        finally:
            handle.cancel()
            self._stop_waiter = None

    async def _start_stats_server(self, port: int):
        """Serve Prometheus snapshots over HTTP while the session runs."""
        from repro.live.stats import start_stats_server, stats_addr
        from repro.obs import prometheus_snapshot

        server = await start_stats_server(
            port, lambda: prometheus_snapshot(self.telemetry.registry))
        self.stats_addr = stats_addr(server)
        return server

    def series_frame(self, meta: Optional[dict] = None):
        """Snapshot of the recorded time-series (None unless
        ``config.series``); a :class:`~repro.obs.timeseries.SeriesFrame`
        ready for ``write()`` into a run dir's ``series/`` shard."""
        if self.telemetry is None or self.telemetry.series is None:
            return None
        return self.telemetry.series.frame(meta)

    def attribution(self):
        """Causal pacer-residence attribution of the finished run.

        Live frames carry the same ``pacer_enqueue``/``pacer_last_exit``
        stamps as sim frames (wall-clock times here), and ACE-N records
        its decision log identically — so frame blame works unchanged.
        Returns a :class:`~repro.obs.attrib.SessionAttribution`.
        """
        from repro.obs import attribute_session
        return attribute_session(self)


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

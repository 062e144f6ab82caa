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
from repro.rtc.metrics import SessionMetrics
from repro.rtc.sender import Sender
from repro.rtc.session import (
    DisplaySync,
    _CaptureTimeView,
    _QualityView,
    build_ace_controllers,
)
from repro.sim.rng import SeedSequenceFactory
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
    #: ``audit_interval_s``; violations are collected on the session's
    #: ``auditor`` and surfaced by the caller.
    audit: bool = False
    audit_interval_s: float = 0.05
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
        self._factories = (source_factory, codec_factory,
                           rate_control_factory, pacer_factory, cc_factory)
        self._sender_config = sender_config
        self._ace_n_config = ace_n_config
        self._ace_c_config = ace_c_config
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
        self._stall_handle = None

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
        (source_factory, codec_factory, rate_control_factory,
         pacer_factory, cc_factory) = self._factories

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

        codec = codec_factory(self.rngs)
        source = source_factory(self.rngs)
        sender_cfg = self._sender_config
        if sender_cfg is None:
            from repro.rtc.sender import SenderConfig
            sender_cfg = SenderConfig(fps=config.fps)
        sender_cfg.fps = config.fps
        if sender_cfg.fec_enabled:
            raise ValueError("FEC parity is not encodable on the live wire "
                             "format yet; pick a non-FEC baseline")

        cc = cc_factory()
        pacer = pacer_factory(clock, send_end.send)
        pacer.set_pacing_rate(cc.bwe_bps)
        ace_n, ace_c = build_ace_controllers(
            sender_cfg, codec, config.fps, config.initial_bwe_bps,
            ace_n_config=self._ace_n_config, ace_c_config=self._ace_c_config)

        if config.pacer_stats_cap is not None:
            pacer.stats.rebound(config.pacer_stats_cap)

        telemetry = None
        if (config.telemetry or config.stats_port is not None or config.slo
                or config.series):
            from repro.obs import Telemetry, instrument_stack
            telemetry = self.telemetry = Telemetry(
                clock, keep_events=config.keep_telemetry_events)
            # No Link in live mode — the impairment shim is the bottleneck.
            instrument_stack(telemetry, pacer=pacer, cc=cc, ace_n=ace_n)
            if config.slo:
                self.watchdog = telemetry.attach_watchdog(
                    pacing_p99_s=config.slo_pacing_p99_s)
            if config.series:
                telemetry.attach_series()
        if config.inject_stall_at is not None:
            self._schedule_stall(clock, pacer, config.inject_stall_at,
                                 config.inject_stall_duration)

        sender = self.sender = Sender(
            clock, source, codec, rate_control_factory(), pacer, cc,
            send_end, config=sender_cfg, ace_c=ace_c, ace_n=ace_n,
            telemetry=telemetry)
        receiver = self.receiver = TransportReceiver(
            clock,
            send_feedback_fn=recv_end.send_feedback,
            decode_time_fn=codec.decode_time,
            telemetry=telemetry,
        )
        receiver.frame_capture_time = _CaptureTimeView(sender)
        receiver.frame_quality = _QualityView(sender)
        display_sync = DisplaySync(sender, receiver)

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
                clock, pacer, ace_n=ace_n, cc=cc,
                rtt_floor=config.base_rtt,
                telemetry=telemetry,
            ).attach_polling(config.audit_interval_s)

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
            if self._stall_handle is not None:
                self._stall_handle.cancel()
                self._stall_handle = None
            if stats_server is not None:
                stats_server.close()
                await stats_server.wait_closed()
            send_end.close()
            recv_end.close()
        display_sync.sync()
        self._finished = True
        if self.auditor is not None:
            self.auditor.finalize()
        return self._collect(send_end, duration=media_elapsed)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def _schedule_stall(self, clock: WallClock, pacer, at: float,
                        duration: float) -> None:
        """Pacing-stall drill: pin the pacer at its rate floor.

        ``set_pacing_rate`` floors at 10 kbps, so clamping to 0 holds
        the pacer at the floor while frames keep arriving at the full
        target bitrate — backlog and pacing delay blow up within a few
        frames, which is exactly the signal the SLO watchdog exists to
        catch. The clamp re-arms every 50 ms to out-shout congestion-
        controller rate updates for the stall window, then stops;
        recovery is the controller's problem (and is itself worth
        watching).
        """
        end = at + duration

        def clamp() -> None:
            self._stall_handle = None
            pacer.set_pacing_rate(0.0)
            if clock.now < end and not self._stop_requested:
                self._stall_handle = clock.call_later(
                    0.05, clamp, "slo.stall")

        self._stall_handle = clock.call_later(at, clamp, "slo.stall")

    # ------------------------------------------------------------------
    # early stop
    # ------------------------------------------------------------------
    def request_stop(self) -> None:
        """Ask a running session to wind down early (graceful: the
        sender stops, then the normal drain window runs). Safe to call
        before or after ``run()`` starts; idempotent."""
        self._stop_requested = True
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

    def _collect(self, send_end: UdpTransport,
                 duration: Optional[float] = None) -> SessionMetrics:
        sender = self.sender
        metrics = SessionMetrics(
            duration=self.config.duration if duration is None else duration)
        metrics.frames = [sender.frame_metrics[fid]
                          for fid in sorted(sender.frame_metrics)]
        metrics.packets_sent = sender.pacer.stats.sent_packets
        metrics.packets_lost = len(send_end.dropped_packets)
        metrics.packets_retransmitted = sender.retransmissions
        metrics.send_events = list(sender.send_events)
        metrics.bwe_history = [(s.time, s.bwe_bps) for s in sender.cc.history]
        if self.trace is not None and self.config.shaped:
            metrics.bandwidth_fn = self.trace.rate_at
        return metrics

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
    # Imported here: baselines imports rtc.session, which imports
    # repro.live.transport — a module-level import would cycle.
    from repro.rtc.baselines import (
        _cc_factory,
        _codec_factory,
        _pacer_factory,
        _rate_control_factory,
        get_spec,
    )
    from repro.rtc.sender import SenderConfig
    from repro.video.source import VideoSource

    config = config or LiveConfig()
    if trace is None:
        trace = BandwidthTrace.constant(
            20e6, duration=config.duration + config.drain + 10)
    spec = get_spec(baseline)

    def source_factory(rngs, _cat=category, _fps=config.fps):
        return VideoSource.from_category(_cat, rngs.stream("source"),
                                         fps=_fps)

    sender_config = SenderConfig(
        fps=config.fps,
        ace_c_enabled=spec.ace_c,
        ace_n_enabled=spec.ace_n,
        salsify_mode=spec.salsify,
        fec_enabled=spec.fec,
        max_target_bitrate_bps=spec.max_target_bitrate_bps,
    )
    return LiveSession(
        trace=trace,
        config=config,
        source_factory=source_factory,
        codec_factory=_codec_factory(spec),
        rate_control_factory=_rate_control_factory(spec),
        pacer_factory=_pacer_factory(spec, ace_n_config),
        cc_factory=_cc_factory(spec, config.initial_bwe_bps,
                               config.max_bwe_bps),
        sender_config=sender_config,
        ace_n_config=ace_n_config,
        ace_c_config=ace_c_config,
    )


def run_live(baseline: str, config: Optional[LiveConfig] = None,
             trace: Optional[BandwidthTrace] = None,
             category: str = "gaming", **kwargs) -> SessionMetrics:
    """Synchronous convenience wrapper: build, run, return metrics."""
    session = build_live_session(baseline, config=config, trace=trace,
                                 category=category, **kwargs)
    return asyncio.run(session.run())

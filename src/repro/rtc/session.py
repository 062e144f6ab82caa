"""Session runner: wires sender, receiver, path and metrics together.

:class:`FlowStack` is the one place the sender pipeline is assembled —
codec → source → CC → pacer → ACE-N/ACE-C → ``Sender`` →
``TransportReceiver`` with its display sync and metrics collection.
The sim session (:class:`RtcSession`) puts one on an :class:`EventLoop`
in front of a :class:`NetworkPath`; the arena puts N on one loop in front
of a shared router chain; the live session
(:class:`repro.live.session.LiveSession`) puts one on a ``WallClock``
between two ``UdpTransport`` endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.ace_c import AceCConfig, AceCController
from repro.core.ace_n import AceNConfig, AceNController
from repro.net.cross_traffic import PageLoadGenerator
from repro.net.packet import Packet, PacketType
from repro.net.path import NetworkPath, PathConfig
from repro.net.trace import BandwidthTrace
from repro.rtc.metrics import SessionMetrics
from repro.rtc.sender import Sender, SenderConfig
from repro.sim.events import EventLoop
from repro.sim.rng import SeedSequenceFactory
from repro.transport.cc.base import CongestionController
from repro.transport.cc.gcc import GccController
from repro.transport.pacer.base import Pacer
from repro.transport.audio import AudioReceiver
from repro.transport.receiver import TransportReceiver
from repro.video.codec.model import CodecModel
from repro.video.codec.rate_control import RateControl


def build_ace_controllers(sender_cfg: SenderConfig, codec: CodecModel,
                          fps: float, initial_bwe_bps: float,
                          ace_n_config: Optional[AceNConfig] = None,
                          ace_c_config: Optional[AceCConfig] = None,
                          ) -> tuple[Optional[AceNController],
                                     Optional[AceCController]]:
    """Construct the ACE controllers a sender config asks for.

    Called by :class:`FlowStack` only, so the ACE-C seeding (complexity
    factors calibrated from the codec's level curves, Fig. 4) is
    identical in sim, arena and live runs.
    """
    ace_n = None
    if sender_cfg.ace_n_enabled:
        ace_n = AceNController(ace_n_config or AceNConfig())
    ace_c = None
    if sender_cfg.ace_c_enabled:
        levels = codec.config.levels
        if ace_c_config is None:
            # "Empirical values" for the complexity factors come from
            # the offline per-codec calibration (Fig. 4): seed phi
            # and delta_Te with the encoder's measured level curves.
            budget_bits = initial_bwe_bps / fps
            base_time = levels[0].encode_time(budget_bits)
            ace_c_config = AceCConfig(
                initial_phi=tuple(l.phi for l in levels),
                initial_delta_te=tuple(
                    max(0.0, l.encode_time(budget_bits) - base_time)
                    for l in levels),
            )
        ace_c = AceCController(num_levels=len(levels), fps=fps,
                               config=ace_c_config)
    return ace_n, ace_c


class DisplaySync:
    """Joins receiver display records back onto sender frame metrics.

    Walks only frames displayed since the previous sync (the receiver
    appends in display order), keeping the cost O(1) amortized per
    arrival instead of rescanning the whole session.
    """

    def __init__(self, sender: Sender, receiver: TransportReceiver) -> None:
        self.sender = sender
        self.receiver = receiver
        self._cursor = 0

    def sync(self) -> None:
        displayed = self.receiver.displayed
        sender = self.sender
        while self._cursor < len(displayed):
            record = displayed[self._cursor]
            self._cursor += 1
            metrics = sender.frame_metrics.get(record.frame_id)
            if metrics is not None and metrics.displayed_at is None:
                metrics.complete_at = record.complete_at
                metrics.displayed_at = record.displayed_at
                metrics.had_retransmission = record.had_retransmission
                sender.forget_frame(record.frame_id)

    @property
    def pending(self) -> bool:
        return self._cursor < len(self.receiver.displayed)


class FlowStack:
    """One flow's sender pipeline and receiver, on any clock.

    Builds codec → source → CC → pacer → ACE-N/ACE-C → :class:`Sender`
    → :class:`TransportReceiver` from the component factories, in that
    order (the factories draw their named RNG streams from ``rngs``).
    ``send`` is where the pacer releases packets and ``send_feedback``
    where the receiver returns its reports; ``transport`` only supplies
    the sender's reverse-delay estimate. The owner routes arrivals to
    ``receiver.on_packet`` and feedback to ``sender.on_feedback``, and
    runs ``display_sync`` after deliveries.
    """

    def __init__(self, clock, transport, send: Callable[[Packet], None],
                 send_feedback: Callable[[object], None],
                 rngs: SeedSequenceFactory, *, fps: float,
                 initial_bwe_bps: float,
                 source_factory: Callable[[SeedSequenceFactory], object],
                 codec_factory: Callable[[SeedSequenceFactory], CodecModel],
                 rate_control_factory: Callable[[], RateControl],
                 pacer_factory: Callable[..., Pacer],
                 cc_factory: Callable[[], CongestionController],
                 sender_config: Optional[SenderConfig] = None,
                 ace_n_config: Optional[AceNConfig] = None,
                 ace_c_config: Optional[AceCConfig] = None) -> None:
        self.codec = codec_factory(rngs)
        self.source = source_factory(rngs)
        sender_cfg = sender_config or SenderConfig(fps=fps)
        sender_cfg.fps = fps
        self.cc = cc_factory()
        pacer = pacer_factory(clock, send)
        pacer.set_pacing_rate(self.cc.bwe_bps)
        ace_n, ace_c = build_ace_controllers(
            sender_cfg, self.codec, fps, initial_bwe_bps,
            ace_n_config=ace_n_config, ace_c_config=ace_c_config)
        self.sender = Sender(
            clock, self.source, self.codec, rate_control_factory(),
            pacer, self.cc, transport, config=sender_cfg,
            ace_c=ace_c, ace_n=ace_n,
        )
        self.receiver = TransportReceiver(
            clock,
            send_feedback_fn=send_feedback,
            decode_time_fn=self.codec.decode_time,
        )
        # The receiver learns frame metadata lazily, straight off the
        # sender's metrics dict.
        self.receiver.frame_capture_time = _CaptureTimeView(self.sender)
        self.receiver.frame_quality = _QualityView(self.sender)
        self.display_sync = DisplaySync(self.sender, self.receiver)

    def attach_telemetry(self, telemetry, link=None) -> None:
        """Wire the span stages and the stack's gauges/counters (token
        level, bucket size, estimated queue, BWE, pacer backlog; link
        queue and drops when there is a :class:`Link`)."""
        from repro.obs import instrument_stack
        self.sender.telemetry = telemetry
        self.receiver.telemetry = telemetry
        instrument_stack(telemetry, pacer=self.sender.pacer, cc=self.cc,
                         ace_n=self.sender.ace_n, link=link)

    def collect(self, duration: float, packets_lost: int,
                bandwidth_fn) -> SessionMetrics:
        """Aggregate the finished flow into :class:`SessionMetrics`."""
        sender = self.sender
        metrics = SessionMetrics(duration=duration)
        metrics.frames = [sender.frame_metrics[fid]
                          for fid in sorted(sender.frame_metrics)]
        metrics.packets_sent = sender.pacer.stats.sent_packets
        metrics.packets_lost = packets_lost
        metrics.packets_retransmitted = sender.retransmissions
        metrics.send_events = list(sender.send_events)
        metrics.bwe_history = list(zip(self.cc.log.time, self.cc.log.after))
        metrics.bandwidth_fn = bandwidth_fn
        return metrics


@dataclass
class SessionConfig:
    """Knobs of one experiment run."""

    duration: float = 30.0
    seed: int = 1
    fps: float = 30.0
    base_rtt: float = 0.03
    queue_capacity_bytes: int = 100_000
    random_loss_rate: float = 0.0
    cross_traffic: bool = False
    cross_traffic_interarrival: float = 8.0
    #: weak-venue contention loss (see PathConfig.contention_loss_rate).
    contention_loss_rate: float = 0.0
    #: per-packet forward delay jitter std-dev (PathConfig.delay_jitter_std).
    delay_jitter_std: float = 0.0
    #: multiplex a top-priority Opus-style audio substream.
    audio: bool = False
    initial_bwe_bps: float = 4_000_000.0
    #: product-style cap on the bandwidth estimate (WebRTC deployments
    #: configure a max video bitrate; the paper's cloud-gaming context
    #: runs at up to ~30 Mbps).
    max_bwe_bps: float = 30_000_000.0

    def path_config(self) -> PathConfig:
        return PathConfig(
            base_rtt=self.base_rtt,
            queue_capacity_bytes=self.queue_capacity_bytes,
            random_loss_rate=self.random_loss_rate,
            contention_loss_rate=self.contention_loss_rate,
            delay_jitter_std=self.delay_jitter_std,
        )


class RtcSession:
    """One sender/receiver pair over an emulated path.

    Construction takes *factories* so each session owns fresh component
    state; :meth:`run` executes the event loop and returns
    :class:`SessionMetrics`.
    """

    #: series-shard mode (:func:`repro.observe.harvest`).
    mode = "sim"

    def __init__(self, trace: BandwidthTrace, config: SessionConfig,
                 source_factory: Callable[[SeedSequenceFactory], object],
                 codec_factory: Callable[[SeedSequenceFactory], CodecModel],
                 rate_control_factory: Callable[[], RateControl],
                 pacer_factory: Callable[[EventLoop, Callable[[Packet], None]], Pacer],
                 cc_factory: Optional[Callable[[], CongestionController]] = None,
                 sender_config: Optional[SenderConfig] = None,
                 ace_n_config: Optional[AceNConfig] = None,
                 ace_c_config: Optional[AceCConfig] = None,
                 engine: str = "reference",
                 discipline: str = "droptail",
                 discipline_params: Optional[dict] = None) -> None:
        self.trace = trace
        self.config = config
        #: simulation engine name ("reference" or "batch"); resolved to
        #: an engine instance at :meth:`run` time.
        self.engine_name = engine
        #: bottleneck queue discipline name (see repro.net.aqm).
        self.discipline = discipline
        self.loop = EventLoop()
        self.rngs = SeedSequenceFactory(config.seed)

        # The default drop-tail stays on Link's inlined fast path
        # (bit-identical goldens); anything else is built here with its
        # own named RNG stream so AQM randomness never perturbs the
        # source/loss streams.
        queue = None
        if discipline != "droptail" or discipline_params:
            from repro.net.aqm import make_discipline
            queue = make_discipline(discipline,
                                    config.queue_capacity_bytes,
                                    rng=self.rngs.stream("aqm"),
                                    **(discipline_params or {}))
        self.path = NetworkPath(self.loop, trace, config.path_config(),
                                rng=self.rngs.stream("path.loss"),
                                discipline=queue)

        if cc_factory is None:
            def cc_factory():
                return GccController(initial_bwe_bps=config.initial_bwe_bps)
        self.flow = FlowStack(
            self.loop, self.path, self.path.send,
            self.path.send_feedback, self.rngs, fps=config.fps,
            initial_bwe_bps=config.initial_bwe_bps,
            source_factory=source_factory, codec_factory=codec_factory,
            rate_control_factory=rate_control_factory,
            pacer_factory=pacer_factory, cc_factory=cc_factory,
            sender_config=sender_config, ace_n_config=ace_n_config,
            ace_c_config=ace_c_config)
        self.codec = self.flow.codec
        self.source = self.flow.source
        self.cc = self.flow.cc
        self.sender = self.flow.sender
        self.receiver = self.flow.receiver
        self.audio_receiver = AudioReceiver(self.loop)
        self.cross_traffic: Optional[PageLoadGenerator] = None
        if config.cross_traffic:
            self.cross_traffic = PageLoadGenerator(
                self.loop, self.path.send, self.rngs.stream("cross"),
                mean_interarrival=config.cross_traffic_interarrival,
                rtt_estimate=config.base_rtt,
            )

        self.path.on_arrival = self._on_arrival
        self.path.on_feedback = self._on_feedback
        self.path.on_drop = self._on_drop
        self._finished = False
        self._display_sync = self.flow.display_sync
        #: optional :class:`repro.obs.Telemetry` (see enable_telemetry).
        self.telemetry = None
        #: the :class:`repro.observe.Observe` options attached, if any.
        self.observed = None

    def enable_telemetry(self, telemetry=None):
        """Attach a :class:`repro.obs.Telemetry` hub to this session.

        Idempotent; must run before :meth:`run`. Wires the sender and
        receiver span stages, registers the stack's gauges/counters
        (token level, bucket size, estimated queue, BWE, pacer backlog,
        link queue, drops), and starts the sampling tick. Telemetry is
        a pure observer — fixed-seed results are bit-identical with it
        on or off (``tests/test_sim_regression.py`` holds both).
        """
        if self.telemetry is not None:
            return self.telemetry
        from repro.obs import Telemetry
        tel = telemetry if telemetry is not None else Telemetry()
        tel.attach_clock(self.loop)
        self.flow.attach_telemetry(tel, link=self.path.link)
        tel.start_tick()
        self.telemetry = tel
        return tel

    # ------------------------------------------------------------------
    # path callbacks
    # ------------------------------------------------------------------
    def _on_arrival(self, packet: Packet) -> None:
        if packet.ptype is PacketType.CROSS:
            if self.cross_traffic is not None:
                self.cross_traffic.on_delivered(packet)
            return
        # Only audio packets carry frame_id < 0; media skips the probe.
        if packet.frame_id < 0 and self.audio_receiver.on_packet(packet):
            return
        self.receiver.on_packet(packet)
        # Any frames that just became displayable get their sender-side
        # metrics stamped here.
        if self._display_sync.pending:
            self._display_sync.sync()

    def _on_feedback(self, message) -> None:
        self.sender.on_feedback(message)

    def _on_drop(self, packet: Packet) -> None:
        # Media losses are read off path.lost_packets at collection.
        if (packet.ptype == PacketType.CROSS
                and self.cross_traffic is not None):
            self.cross_traffic.on_dropped(packet)

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------
    def run(self) -> SessionMetrics:
        """Execute the session and aggregate metrics.

        A session nothing was attached to (:func:`repro.observe.attach`,
        which grid cells always call) carries what ``REPRO_TELEMETRY``/
        ``REPRO_AUDIT`` ask for; the environment's auditor is strict.
        """
        if self._finished:
            raise RuntimeError("session already ran; build a new one")
        if self.observed is None:
            from repro.observe import Observe, attach
            attach(self, Observe.from_env())
        # Resolve the engine after telemetry/audit hooks are attached so
        # the batch engine's eligibility check sees the final wiring.
        from repro.sim.engine import get_engine
        engine = get_engine(self.engine_name)
        self.engine = engine
        engine.prepare(self)
        self.sender.start()
        self.receiver.start()
        if self.cross_traffic is not None:
            self.cross_traffic.start()
        engine.advance(self, self.config.duration)
        self.sender.stop()
        if self.cross_traffic is not None:
            self.cross_traffic.stop()
        # Let in-flight packets and feedback land (half a second of drain).
        engine.advance(self, self.config.duration + 0.5)
        engine.finalize(self)
        self._display_sync.sync()
        if self.telemetry is not None:
            self.telemetry.flush()
        self._finished = True
        if self.auditor is not None:
            self.auditor.finalize()
        metrics = self.flow.collect(
            self.config.duration,
            sum(1 for p in self.path.lost_packets
                if p.ptype != PacketType.CROSS),
            self.trace.rate_at)
        # Which engine actually ran, and why not the requested one:
        # plain attributes (like slo_alerts), outside the result schema,
        # so cache payloads and canonical JSON are unchanged.
        metrics.fallback_reason = engine.fallback_reason
        metrics.engine = ("reference" if engine.fallback_reason is not None
                          else engine.name)
        # The fast path's own census: how many media packets the vector
        # lane carried and how many were walked one by one.
        metrics.lane_packets = engine.lane_packets
        return metrics

    def attribution(self):
        """Causal pacer-residence attribution of the finished run.

        Pure post-processing over the sender's frame stamps and the
        ACE-N decision log (recorded with or without telemetry).
        Returns a :class:`~repro.obs.attrib.SessionAttribution`.
        """
        from repro.obs import attribute_session
        return attribute_session(self)


class _CaptureTimeView(dict):
    """Lazy view mapping frame_id -> capture time from sender metrics."""

    def __init__(self, sender: Sender) -> None:
        super().__init__()
        self._sender = sender

    def get(self, frame_id, default=None):
        metrics = self._sender.frame_metrics.get(frame_id)
        return metrics.capture_time if metrics is not None else default


class _QualityView(dict):
    """Lazy view mapping frame_id -> VMAF from sender metrics."""

    def __init__(self, sender: Sender) -> None:
        super().__init__()
        self._sender = sender

    def get(self, frame_id, default=0.0):
        metrics = self._sender.frame_metrics.get(frame_id)
        return metrics.quality_vmaf if metrics is not None else default

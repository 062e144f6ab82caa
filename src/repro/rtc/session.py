"""Session runner: wires sender, receiver, path and metrics together.

The sim session schedules on an :class:`EventLoop` and moves packets
through a :class:`SimTransport`; its live twin
(:class:`repro.live.session.LiveSession`) swaps those for a
``WallClock`` and a ``UdpTransport`` while reusing the same component
stack — the shared construction helpers live here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.ace_c import AceCConfig, AceCController
from repro.core.ace_n import AceNConfig, AceNController
from repro.live.transport import SimTransport
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

    Shared by the sim and live sessions so the ACE-C seeding (complexity
    factors calibrated from the codec's level curves, Fig. 4) is
    identical in both modes.
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


class RtcSession:
    """One sender/receiver pair over an emulated path.

    Construction takes *factories* so each session owns fresh component
    state; :meth:`run` executes the event loop and returns
    :class:`SessionMetrics`.
    """

    def __init__(self, trace: BandwidthTrace, config: SessionConfig,
                 source_factory: Callable[[SeedSequenceFactory], object],
                 codec_factory: Callable[[SeedSequenceFactory], CodecModel],
                 rate_control_factory: Callable[[], RateControl],
                 pacer_factory: Callable[[EventLoop, Callable[[Packet], None]], Pacer],
                 cc_factory: Optional[Callable[[], CongestionController]] = None,
                 sender_config: Optional[SenderConfig] = None,
                 ace_n_config: Optional[AceNConfig] = None,
                 ace_c_config: Optional[AceCConfig] = None,
                 telemetry=None, engine: str = "reference",
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

        path_config = PathConfig(
            base_rtt=config.base_rtt,
            queue_capacity_bytes=config.queue_capacity_bytes,
            random_loss_rate=config.random_loss_rate,
            contention_loss_rate=config.contention_loss_rate,
            delay_jitter_std=config.delay_jitter_std,
        )
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
        self.path = NetworkPath(self.loop, trace, path_config,
                                rng=self.rngs.stream("path.loss"),
                                discipline=queue)
        self.transport = SimTransport(self.path)

        self.codec = codec_factory(self.rngs)
        self.source = source_factory(self.rngs)
        sender_cfg = sender_config or SenderConfig(fps=config.fps)
        sender_cfg.fps = config.fps

        self.cc = cc_factory() if cc_factory is not None else GccController(
            initial_bwe_bps=config.initial_bwe_bps)
        if self.cc.bwe_bps != config.initial_bwe_bps and cc_factory is None:
            pass

        pacer = pacer_factory(self.loop, self.transport.send)
        pacer.set_pacing_rate(self.cc.bwe_bps)

        ace_n, ace_c = build_ace_controllers(
            sender_cfg, self.codec, config.fps, config.initial_bwe_bps,
            ace_n_config=ace_n_config, ace_c_config=ace_c_config)

        self.sender = Sender(
            self.loop, self.source, self.codec, rate_control_factory(),
            pacer, self.cc, self.transport, config=sender_cfg,
            ace_c=ace_c, ace_n=ace_n,
        )
        self.receiver = TransportReceiver(
            self.loop,
            send_feedback_fn=self.transport.send_feedback,
            decode_time_fn=self.codec.decode_time,
        )
        self.audio_receiver = AudioReceiver(self.loop)
        self.cross_traffic: Optional[PageLoadGenerator] = None
        if config.cross_traffic:
            self.cross_traffic = PageLoadGenerator(
                self.loop, self.path.send, self.rngs.stream("cross"),
                mean_interarrival=config.cross_traffic_interarrival,
                rtt_estimate=config.base_rtt,
            )

        self.transport.on_arrival = self._on_arrival
        self.transport.on_feedback = self._on_feedback
        self.transport.on_drop = self._on_drop
        self._media_drops = 0
        self._finished = False
        self._display_sync = DisplaySync(self.sender, self.receiver)
        #: optional :class:`repro.obs.Telemetry` (see enable_telemetry).
        self.telemetry = None
        if telemetry is not None:
            self.enable_telemetry(telemetry)

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
        from repro.obs import Telemetry, instrument_stack
        tel = telemetry if telemetry is not None else Telemetry()
        tel.attach_clock(self.loop)
        self.sender.telemetry = tel
        self.receiver.telemetry = tel
        instrument_stack(tel, pacer=self.sender.pacer, cc=self.cc,
                         ace_n=self.sender.ace_n, link=self.path.link)
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
        if packet.ptype == PacketType.CROSS:
            if self.cross_traffic is not None:
                self.cross_traffic.on_dropped(packet)
            return
        self._media_drops += 1

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------
    def run(self) -> SessionMetrics:
        """Execute the session and aggregate metrics.

        With ``REPRO_AUDIT=1`` in the environment a strict
        :class:`~repro.audit.auditor.SessionAuditor` rides along and
        raises at the first invariant violation. The env vars affect
        directly-run sessions only: grid workers strip them
        (:mod:`repro.bench.parallel`), so instrumenting a sweep is an
        explicit per-:class:`~repro.bench.parallel.GridTask` choice.
        """
        if self._finished:
            raise RuntimeError("session already ran; build a new one")
        if (self.telemetry is None
                and os.environ.get("REPRO_TELEMETRY", "") not in ("", "0")):
            self.enable_telemetry()
        auditor = None
        if os.environ.get("REPRO_AUDIT", "") not in ("", "0"):
            from repro.audit.auditor import attach_audit
            auditor = attach_audit(self, strict=True)
        # Receiver must know frame metadata as frames are captured; hook
        # the sender's metrics dict in lazily via a periodic sync.
        self.receiver.frame_capture_time = _CaptureTimeView(self.sender)
        self.receiver.frame_quality = _QualityView(self.sender)
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
        if auditor is not None:
            auditor.finalize()
        metrics = self._collect()
        # Which engine actually ran, and why not the requested one:
        # plain attributes (like slo_alerts), outside the result schema,
        # so cache payloads and canonical JSON are unchanged.
        metrics.fallback_reason = engine.fallback_reason
        metrics.engine = ("reference" if engine.fallback_reason is not None
                          else engine.name)
        return metrics

    def attribution(self):
        """Causal pacer-residence attribution of the finished run.

        Pure post-processing over the sender's frame stamps and the
        ACE-N decision log (recorded with or without telemetry).
        Returns a :class:`~repro.obs.attrib.SessionAttribution`.
        """
        from repro.obs import attribute_session
        return attribute_session(self)

    def _collect(self) -> SessionMetrics:
        metrics = SessionMetrics(duration=self.config.duration)
        metrics.frames = [self.sender.frame_metrics[fid]
                          for fid in sorted(self.sender.frame_metrics)]
        metrics.packets_sent = self.sender.pacer.stats.sent_packets
        metrics.packets_lost = sum(
            1 for p in self.path.lost_packets if p.ptype != PacketType.CROSS)
        metrics.packets_retransmitted = self.sender.retransmissions
        metrics.send_events = list(self.sender.send_events)
        metrics.bwe_history = [(s.time, s.bwe_bps) for s in self.cc.history]
        metrics.bandwidth_fn = self.trace.rate_at
        return metrics


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

"""Session runner: wires sender, receiver, path and metrics together.

:class:`FlowStack` is the one place the sender pipeline is assembled —
codec → source → CC → pacer → ACE-N/ACE-C → ``Sender`` →
``TransportReceiver`` with its display sync and metrics collection.
:class:`Session` puts stacks, keyed by flow id, on one clock in front of
one transport and runs them through one lifecycle: a single-flow run
(:class:`RtcSession`, flow 0 on a :class:`NetworkPath`) is an arena of
one, the arena (:class:`repro.arena.session.ArenaSession`) puts N on a
shared router chain, both on an :class:`EventLoop`, and the live session
(:class:`repro.live.session.LiveSession`) puts one on a ``WallClock``
between two ``UdpTransport`` endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, Iterable, Optional

from repro.core.ace_c import AceCConfig, AceCController
from repro.core.ace_n import AceNConfig, AceNController
from repro.net.aqm import DEFAULT_DISCIPLINE, make_discipline
from repro.net.cross_traffic import PageLoadGenerator
from repro.net.packet import Packet, PacketType
from repro.net.path import NetworkPath, PathConfig
from repro.net.trace import BandwidthTrace
from repro.rtc.metrics import SessionMetrics
from repro.rtc.sender import Sender, SenderConfig
from repro.sim.events import EventLoop
from repro.sim.rng import RngStream, SeedSequenceFactory
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

    def __post_init__(self) -> None:
        """Refuse, naming the field, a value no run can honour."""
        for names, ok, want in (
                (("duration", "fps", "queue_capacity_bytes",
                  "cross_traffic_interarrival", "initial_bwe_bps",
                  "max_bwe_bps"), lambda v: v > 0, "> 0"),
                (("base_rtt", "delay_jitter_std"), lambda v: v >= 0, ">= 0"),
                (("random_loss_rate", "contention_loss_rate"),
                 lambda v: 0 <= v <= 1, "in [0, 1]")):
            for name in names:
                value = getattr(self, name)
                if not ok(value):
                    raise ValueError(f"{name} must be {want}, got {value!r}")

    def path_config(self) -> PathConfig:
        """The emulated path: this run's value of each PathConfig field."""
        return PathConfig(**{f.name: getattr(self, f.name)
                             for f in fields(PathConfig)
                             if hasattr(self, f.name)})

    def refuse(self, names: Iterable[str], where: str) -> None:
        """Raise ``ValueError`` naming the first of ``names`` set off its
        default: ``where`` cannot honour it, and must not ignore it."""
        default = SessionConfig()
        for name in names:
            if getattr(self, name) != getattr(default, name):
                raise ValueError(
                    f"SessionConfig.{name} is not supported by {where}")


class Session:
    """Flows (``stacks``: flow id → :class:`FlowStack`) on one clock in
    front of one transport; the callbacks route by flow id and count each
    flow's losses as they happen. One lifecycle (:meth:`_start`,
    :meth:`_stop`, :meth:`_finish`): :meth:`run` advances an engine's
    :class:`EventLoop` between the phases (``RtcSession``: flow 0 on a
    :class:`NetworkPath`; ``ArenaSession``: flows 1..N on an
    ``ArenaPath``), ``LiveSession.run`` awaits a ``WallClock``.
    """

    #: "reference" or "batch"; an engine instance at :meth:`run` time.
    engine_name = "reference"

    def __init__(self, trace: Optional[BandwidthTrace], config,
                 clock: Optional[EventLoop] = None) -> None:
        self.trace = trace
        self.config = config
        #: an EventLoop, also named ``loop``; live: a WallClock from run.
        self.clock = self.loop = clock
        self.rngs = SeedSequenceFactory(config.seed)
        self.stacks: dict[int, FlowStack] = {}
        #: flow id -> media packets lost so far (fed by ``_on_drop``).
        self._flow_losses: dict[int, int] = {}
        #: flow id -> (join time, leave time or None).
        self._spans: dict[int, tuple[float, Optional[float]]] = {}
        self.path: Optional[NetworkPath] = None       # None: live
        self.cross_traffic: Optional[PageLoadGenerator] = None
        #: what :func:`repro.observe.attach` wires; None until attached.
        self.observed = self.auditor = self.stall = self.telemetry = None
        self._ran = False

    def _aqm_rng(self, disciplines: Iterable[str]) -> Optional[RngStream]:
        """The ``"aqm"`` stream, created only when some router runs a
        non-default discipline (DESIGN §11)."""
        if any(name != DEFAULT_DISCIPLINE for name in disciplines):
            return self.rngs.stream("aqm")
        return None

    def _connect(self, path: NetworkPath) -> None:
        self.path = path
        path.on_arrival = self._on_arrival
        path.on_feedback = self._on_feedback
        path.on_drop = self._on_drop

    def _add_flow(self, fid: int, rngs: SeedSequenceFactory,
                  start: float = 0.0, stop: Optional[float] = None,
                  ends: Optional[tuple] = None, **factories) -> FlowStack:
        """Build flow ``fid`` on ``ends``: transport, send, send_feedback."""
        if ends is None:            # the path's; feedback rides as (fid, msg)
            path = self.path
            # Flow 0's packets are born tagged; the others are tagged here.
            send = path.send if fid == 0 else partial(_send_tagged, path, fid)
            ends = (path, send, lambda msg: path.send_feedback((fid, msg)))
        stack = self.stacks[fid] = FlowStack(
            self.clock, *ends, rngs, fps=self.config.fps,
            initial_bwe_bps=self.config.initial_bwe_bps, **factories)
        self._flow_losses[fid] = 0
        self._spans[fid] = (start, stop)
        return stack

    def enable_telemetry(self, telemetry=None):
        """Attach a :class:`repro.obs.Telemetry` hub and start its tick;
        idempotent, once the flows exist (live: inside ``run``). Flow 0
        gets its stack's spans and gauges, an arena per-router and
        per-flow queue gauges. A pure observer: results are bit-identical
        with it on or off."""
        if self.telemetry is not None:
            return self.telemetry
        from repro.obs import Telemetry, instrument_arena
        tel = telemetry if telemetry is not None else Telemetry(
            # A live fleet keeps the registry and bounded windows only.
            keep_events=getattr(self.config, "keep_telemetry_events", True))
        tel.attach_clock(self.clock)
        flow0 = self.stacks.get(0)
        if flow0 is not None:
            flow0.attach_telemetry(
                tel, link=None if self.path is None else self.path.link)
        else:
            instrument_arena(tel, self)
        tel.start_tick()
        self.telemetry = tel
        return tel

    def _on_arrival(self, packet: Packet) -> None:
        if packet.ptype is PacketType.CROSS:
            if self.cross_traffic is not None:
                self.cross_traffic.on_delivered(packet)
            return
        # Only audio packets carry frame_id < 0; media skips the probe.
        if packet.frame_id < 0 and self.audio_receiver.on_packet(packet):
            return
        stack = self.stacks[packet.flow_id]
        stack.receiver.on_packet(packet)
        sync = stack.display_sync     # stamps frames now displayable
        if sync.pending:
            sync.sync()

    def _on_feedback(self, message) -> None:
        fid, msg = message
        self.stacks[fid].sender.on_feedback(msg)

    def _on_drop(self, packet: Packet) -> None:
        if packet.ptype is PacketType.CROSS:
            if self.cross_traffic is not None:
                self.cross_traffic.on_dropped(packet)
            return
        self._flow_losses[packet.flow_id] += 1

    def _claim(self) -> None:
        """A session runs once: its stacks and counters are consumed."""
        if self._ran:
            raise RuntimeError("session already ran; build a new one")
        self._ran = True

    def _start(self) -> None:
        """Start flows (at their join times), receivers, cross traffic."""
        clock, duration = self.clock, self.config.duration
        for fid, (start, stop) in self._spans.items():
            sender = self.stacks[fid].sender
            if start <= 0:
                sender.start()
            else:
                clock.call_at(start, sender.start, name="arena.flow-start")
            if stop is not None and stop < duration:
                clock.call_at(stop, sender.stop, name="arena.flow-stop")
        for stack in self.stacks.values():
            stack.receiver.start()
        if self.cross_traffic is not None:
            self.cross_traffic.start()

    def _stop(self) -> None:
        """End the media; packets and feedback in flight still land
        during the drain that follows."""
        for stack in self.stacks.values():
            stack.sender.stop()
        if self.cross_traffic is not None:
            self.cross_traffic.stop()

    def _finish(self, elapsed: float) -> dict[int, SessionMetrics]:
        """After the drain: flow id → metrics over ``elapsed`` seconds."""
        for stack in self.stacks.values():
            stack.display_sync.sync()
        if self.telemetry is not None:
            self.telemetry.flush()
        if self.auditor is not None:
            self.auditor.finalize()
        rate_at = None if self.trace is None else self.trace.rate_at
        return {fid: stack.collect(elapsed, self._flow_losses[fid], rate_at)
                for fid, stack in self.stacks.items()}

    def run(self) -> dict[int, SessionMetrics]:
        """Run every flow; returns flow id → :class:`SessionMetrics`."""
        self._claim()
        # Resolve the engine after telemetry/audit hooks are attached so
        # the batch engine's eligibility check sees the final wiring.
        from repro.sim.engine import get_engine
        engine = self.engine = get_engine(self.engine_name)
        engine.prepare(self)
        duration = self.config.duration
        self._start()
        engine.advance(self, duration)
        self._stop()
        # Let in-flight packets and feedback land (half a second of drain).
        engine.advance(self, duration + 0.5)
        engine.finalize(self)
        return self._finish(duration)


class RtcSession(Session):
    """One sender/receiver pair over an emulated path: flow 0 on a
    :class:`NetworkPath`, beside the audio probe and optional cross
    traffic. Construction takes *factories* so each session owns fresh
    component state; :meth:`run` returns :class:`SessionMetrics`.
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
                 discipline: str = DEFAULT_DISCIPLINE,
                 discipline_params: Optional[dict] = None) -> None:
        super().__init__(trace, config, EventLoop())
        self.engine_name = engine
        self.audio_receiver = AudioReceiver(self.loop)
        # The default drop-tail stays on Link's inlined fast path
        # (bit-identical goldens); anything else is built here.
        queue = None
        if discipline != DEFAULT_DISCIPLINE or discipline_params:
            queue = make_discipline(discipline, config.queue_capacity_bytes,
                                    rng=self._aqm_rng([discipline]),
                                    **(discipline_params or {}))
        self._connect(NetworkPath(self.loop, trace, config.path_config(),
                                  rng=self.rngs.stream("path.loss"),
                                  discipline=queue))
        # Flow 0 draws from the root streams (not a fork), so every
        # stream name, and so every fingerprint, predates the arena.
        self.flow = self._add_flow(
            0, self.rngs, source_factory=source_factory,
            codec_factory=codec_factory,
            rate_control_factory=rate_control_factory,
            pacer_factory=pacer_factory,
            cc_factory=cc_factory or (lambda: GccController(
                initial_bwe_bps=config.initial_bwe_bps)),
            sender_config=sender_config, ace_n_config=ace_n_config,
            ace_c_config=ace_c_config)
        self.sender = self.flow.sender
        self.receiver = self.flow.receiver
        if config.cross_traffic:
            self.cross_traffic = PageLoadGenerator(
                self.loop, self.path.send, self.rngs.stream("cross"),
                mean_interarrival=config.cross_traffic_interarrival,
                rtt_estimate=config.base_rtt,
            )

    def run(self) -> SessionMetrics:
        """Execute the session and aggregate flow 0's metrics.

        A session nothing was attached to (:func:`repro.observe.attach`,
        which grid cells always call) carries what ``REPRO_TELEMETRY``/
        ``REPRO_AUDIT`` ask for; the environment's auditor is strict.
        """
        if self.observed is None:
            from repro.observe import Observe, attach
            attach(self, Observe.from_env())
        metrics = super().run()[0]
        # Which engine ran, why not the requested one, and the fast
        # path's (vector, scalar) lane census: plain attributes outside
        # the result schema, so cache payloads are unchanged.
        engine = self.engine
        metrics.fallback_reason = engine.fallback_reason
        metrics.engine = ("reference" if engine.fallback_reason is not None
                          else engine.name)
        metrics.lane_packets = engine.lane_packets
        return metrics


def _send_tagged(path: NetworkPath, fid: int, packet: Packet) -> None:
    packet.flow_id = fid
    path.send(packet)

"""Session runner: wires sender, receiver, path and metrics together.

:class:`FlowStack` is the one place a baseline spec becomes a sender
pipeline — codec → source → CC → pacer → ACE-N/ACE-C → FEC/audio →
``Sender`` → ``TransportReceiver``, which hands each frame it displays
back to the flow to stamp the sender's metrics.
:class:`Session` puts stacks, keyed by flow id, on one clock in front of
one transport and runs them through one lifecycle. The arena
(:class:`repro.arena.session.ArenaSession`) puts N on a shared router
chain; a single-flow run is an arena of one, flow 0 on a
:class:`NetworkPath`, built on a given clock by one step
(``Session._single_flow``): :class:`RtcSession` calls it with an
:class:`EventLoop`, the live session
(:class:`repro.live.session.LiveSession`) with a ``WallClock`` and a
``UdpTransport`` at each far end of the path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.core.ace_c import AceCConfig, AceCController
from repro.core.ace_n import AceNConfig, AceNController
from repro.net.aqm import DEFAULT_DISCIPLINE, make_discipline
from repro.net.cross_traffic import PageLoadGenerator
from repro.net.packet import Packet, PacketType
from repro.net.path import NetworkPath, PathConfig
from repro.net.trace import BandwidthTrace
from repro.rtc.metrics import SessionMetrics
from repro.rtc.sender import Sender
from repro.sim.events import EventLoop
from repro.sim.rng import RngStream, SeedSequenceFactory
from repro.transport.audio import AudioReceiver, AudioSource
from repro.transport.cc import (BbrController, CopaController,
                                DeliveryRateController, GccController)
from repro.transport.fec import FecEncoder
from repro.transport.pacer import BurstPacer, LeakyBucketPacer, TokenBucketPacer
from repro.transport.receiver import FrameRecord, TransportReceiver
from repro.video.codec.model import CodecModel
from repro.video.codec.presets import codec_config
from repro.video.codec.rate_control import AbrVbvRateControl, CbrRateControl
from repro.video.source import VideoSource

if TYPE_CHECKING:
    from repro.rtc.baselines import BaselineSpec


class FlowStack:
    """One flow's sender pipeline and receiver, on any clock: the one
    statement of the spec → component mapping.

    Builds codec → source → CC → pacer → ACE-N/ACE-C → FEC encoder →
    audio source → :class:`Sender` → :class:`TransportReceiver` (with
    an FEC decoder iff the sender has the encoder) from a
    ``BaselineSpec``, the run's ``SessionConfig`` and a content
    ``category`` (``source_factory`` replaces the category's source,
    ``ace_n_config`` ACE-N's defaults), drawing named streams from
    ``rngs``. The pacer releases into ``send``, the receiver reports
    into ``send_feedback``; the owner routes arrivals to
    ``receiver.on_packet`` and feedback to ``sender.on_feedback``; the
    receiver hands each frame it displays to :meth:`_displayed`.
    """

    def __init__(self, clock, send: Callable[[Packet], None],
                 send_feedback: Callable[[object], None],
                 rngs: SeedSequenceFactory, spec: "BaselineSpec", config,
                 category: str = "gaming",
                 source_factory: Optional[
                     Callable[[SeedSequenceFactory], object]] = None,
                 ace_n_config: Optional[AceNConfig] = None) -> None:
        fps, bwe = config.fps, config.initial_bwe_bps
        ace_n_config = ace_n_config or AceNConfig()
        self.codec = CodecModel(codec_config(spec.codec),
                                rngs.stream("codec"))
        self.source = (VideoSource.from_category(
            category, rngs.stream("source"), fps=fps)
            if source_factory is None else source_factory(rngs))
        bounds = dict(initial_bwe_bps=bwe, max_bwe_bps=config.max_bwe_bps)
        if spec.cc == "gcc":
            self.cc = GccController(
                **bounds, time_windowed_trendline=spec.time_windowed_trendline)
        elif spec.cc == "delivery-throughput":
            # Chases throughput: larger headroom, no delay brake — it
            # fills the bottleneck queue and only yields to loss.
            self.cc = DeliveryRateController(
                **bounds, headroom=1.25, delay_brake_s=float("inf"))
        else:
            self.cc = {"bbr": BbrController, "copa": CopaController,
                       "delivery": DeliveryRateController}[spec.cc](**bounds)
        if spec.pacer == "leaky":
            pacer = LeakyBucketPacer(clock, send,
                                     pacing_factor=spec.pacing_factor)
        elif spec.pacer == "token":
            pacer = TokenBucketPacer(
                clock, send,
                initial_bucket_bytes=ace_n_config.initial_bucket_bytes)
        else:                           # "burst", or a Pacer subclass
            pacer = (BurstPacer if spec.pacer == "burst"
                     else spec.pacer)(clock, send)
        pacer.set_pacing_rate(self.cc.bwe_bps)
        ace_c = None
        if spec.ace_c:
            # "Empirical values" for the complexity factors come from the
            # offline per-codec calibration (Fig. 4): seed phi and
            # delta_Te with the encoder's measured level curves.
            levels = self.codec.config.levels
            budget_bits = bwe / fps
            base_time = levels[0].encode_time(budget_bits)
            ace_c = AceCController(
                num_levels=len(levels), fps=fps, config=AceCConfig(
                    initial_phi=tuple(l.phi for l in levels),
                    initial_delta_te=tuple(
                        max(0.0, l.encode_time(budget_bits) - base_time)
                        for l in levels)))
        self.sender = Sender(
            clock, self.source, self.codec,
            CbrRateControl() if spec.rate_control == "cbr"
            else AbrVbvRateControl(),
            pacer, self.cc, config.base_rtt / 2, fps, spec.salsify,
            spec.max_target_bitrate_bps, ace_c=ace_c,
            ace_n=AceNController(ace_n_config) if spec.ace_n else None,
            fec=FecEncoder() if spec.fec else None,
            audio=(AudioSource(clock, pacer.enqueue_audio)
                   if config.audio else None))
        self.receiver = TransportReceiver(
            clock, send_feedback_fn=send_feedback, display_fn=self._displayed,
            decode_time_fn=self.codec.decode_time, fec=spec.fec)

    def _displayed(self, record: FrameRecord) -> None:
        """Join a displayed frame onto the sender's metrics and drop its
        RTX state: the receiver calls this at the display instant."""
        sender = self.sender
        metrics = sender.frame_metrics.get(record.frame_id)
        if metrics is None:     # a frame this sender never sent (live: a
            return              # stray datagram on the receiver's port)
        metrics.complete_at = record.complete_at
        metrics.displayed_at = record.displayed_at
        metrics.had_retransmission = record.had_retransmission
        sender.forget_frame(record.frame_id)

    def attach_telemetry(self, telemetry, link) -> None:
        """Wire the span stages and the stack's gauges/counters (token
        level, bucket size, estimated queue, BWE, pacer backlog, and the
        queue, capacity and drops of ``link``, its path's bottleneck)."""
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
        metrics.send_events = sender.send_events
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
    ``ArenaPath``), ``LiveSession.run`` awaits a ``WallClock`` (the same
    flow 0 and path, from the same :meth:`_single_flow`).
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
        self.path: Optional[NetworkPath] = None       # live: from run
        self.cross_traffic: Optional[PageLoadGenerator] = None
        #: what :func:`repro.observe.attach` wires; None until attached.
        self.observed = self.auditor = self.stall = self.telemetry = None
        self._ran = False

    def _aqm_rng(self, disciplines: Iterable[str]) -> Optional[RngStream]:
        """The ``"aqm"`` stream, created only when some router runs a
        non-default discipline (DESIGN §13)."""
        if any(name != DEFAULT_DISCIPLINE for name in disciplines):
            return self.rngs.stream("aqm")
        return None

    def _connect(self, path: NetworkPath) -> None:
        self.path = path
        path.on_arrival = self._on_arrival
        path.on_feedback = self._on_feedback
        path.on_drop = self._on_drop

    def _add_flow(self, fid: int, rngs: SeedSequenceFactory,
                  spec: "BaselineSpec", category: str = "gaming", *,
                  start: float = 0.0, stop: Optional[float] = None,
                  **overrides) -> FlowStack:
        """Build flow ``fid`` sending into the path; its feedback rides
        the path as ``(fid, msg)``."""
        path = self.path
        # Flow 0's packets are born tagged; the others are tagged here.
        send = path.send if fid == 0 else partial(_send_tagged, path, fid)
        stack = self.stacks[fid] = FlowStack(
            self.clock, send, lambda msg: path.send_feedback((fid, msg)),
            rngs, spec, self.config, category, **overrides)
        self._flow_losses[fid] = 0
        self._spans[fid] = (start, stop)
        return stack

    def _single_flow(self, clock, ends: Optional[tuple] = None, *,
                     discipline=None, **overrides) -> None:
        """Build flow 0 (``self.spec``, root streams) and its
        :class:`NetworkPath` (no trace: a bottleneck that never binds) on
        ``clock``; ``ends``, a (receiver, sender) endpoint pair, is a hop
        between the path's far ends and the callbacks. One flow per pair,
        so the hop carries feedback without its flow id."""
        self.clock = self.loop = clock
        trace, path_config = self.trace, self.config.path_config()
        if trace is None:
            trace = BandwidthTrace.constant(math.inf)
            path_config = replace(path_config, queue_capacity_bytes=math.inf)
        path = NetworkPath(clock, trace, path_config,
                           rng=self.rngs.stream("path.loss"),
                           discipline=discipline)
        self._connect(path)
        if ends is not None:
            recv_end, send_end = ends
            path.on_arrival = send_end.send
            recv_end.on_arrival = self._on_arrival
            path.on_feedback = lambda tagged: recv_end.send_feedback(tagged[1])
            send_end.on_feedback = lambda msg: self._on_feedback((0, msg))
        flow = self.flow = self._add_flow(0, self.rngs, self.spec,
                                          self.category, **overrides)
        self.sender, self.receiver = flow.sender, flow.receiver

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
            flow0.attach_telemetry(tel, self.path.link)
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
        self.stacks[packet.flow_id].receiver.on_packet(packet)

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
        return self._finish(duration)


class RtcSession(Session):
    """One sender/receiver pair over an emulated path: flow 0, the flow
    ``spec`` describes, on a :class:`NetworkPath`, beside the audio probe
    and optional cross traffic. :meth:`run` returns
    :class:`SessionMetrics`.
    """

    #: series-shard mode (:func:`repro.observe.harvest`).
    mode = "sim"

    def __init__(self, trace: BandwidthTrace, config: SessionConfig,
                 spec: "BaselineSpec", category: str = "gaming", *,
                 source_factory: Optional[
                     Callable[[SeedSequenceFactory], object]] = None,
                 ace_n_config: Optional[AceNConfig] = None,
                 engine: str = "reference",
                 discipline: str = DEFAULT_DISCIPLINE) -> None:
        super().__init__(trace, config)
        self.engine_name = engine
        self.spec, self.category = spec, category
        # The default drop-tail stays on Link's inlined fast path
        # (bit-identical goldens); anything else is built here.
        queue = None
        if discipline != DEFAULT_DISCIPLINE:
            queue = make_discipline(discipline, config.queue_capacity_bytes,
                                    rng=self._aqm_rng([discipline]))
        # Flow 0 draws from the root streams (not a fork), so every
        # stream name, and so every fingerprint, predates the arena.
        self._single_flow(EventLoop(), discipline=queue,
                          source_factory=source_factory,
                          ace_n_config=ace_n_config)
        self.audio_receiver = AudioReceiver(self.loop)
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

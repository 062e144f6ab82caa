"""N-flow arena sessions over a shared bottleneck chain.

``ArenaSession`` generalizes the old single-path multi-flow session:
N independent sender/receiver pairs (any registered baseline each)
share an :class:`~repro.arena.topology.ArenaPath` — one or more
bottleneck routers with pluggable queue disciplines. Flows can join
late and leave early (``start``/``stop``), which is how the
late-joiner convergence experiments are run.

With a single drop-tail router, all flows starting at t=0, the event
sequence is identical to the historical ``MultiFlowRtcSession`` (which
is now a thin wrapper over this class).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.arena.fairness import FairnessReport
from repro.arena.topology import ArenaPath, BottleneckSpec
from repro.net.aqm import DEFAULT_DISCIPLINE
from repro.net.packet import Packet
from repro.net.path import PathConfig
from repro.net.trace import BandwidthTrace
from repro.rtc.baselines import BaselineSpec, get_spec, _codec_factory, \
    _cc_factory, _pacer_factory, _rate_control_factory
from repro.rtc.metrics import SessionMetrics
from repro.rtc.sender import Sender, SenderConfig
from repro.rtc.session import SessionConfig, _CaptureTimeView, _QualityView
from repro.core.ace_c import AceCConfig, AceCController
from repro.core.ace_n import AceNConfig, AceNController
from repro.sim.events import EventLoop
from repro.sim.rng import SeedSequenceFactory
from repro.transport.receiver import TransportReceiver
from repro.video.source import VideoSource


@dataclass
class ArenaFlowSpec:
    """One flow in an arena session."""

    baseline: str
    category: str = "gaming"
    #: flow ids must be unique and > 0 (0 is reserved for single-flow runs)
    flow_id: int = 1
    #: join time (seconds); flows with start > 0 are late joiners.
    start: float = 0.0
    #: leave time; ``None`` runs to the end of the session.
    stop: Optional[float] = None
    #: router indices this flow traverses (``None`` = the whole chain).
    route: Optional[Tuple[int, ...]] = None


@dataclass
class ArenaMetrics:
    """Per-flow results plus arena-level context for one run."""

    duration: float
    flows: Dict[int, SessionMetrics] = field(default_factory=dict)
    #: flow_id -> {"baseline", "category", "start", "stop"}
    specs: Dict[int, dict] = field(default_factory=dict)
    discipline: str = DEFAULT_DISCIPLINE
    router_stats: list = field(default_factory=list)

    # dict-like access so existing per-flow consumers keep working
    def __getitem__(self, fid: int) -> SessionMetrics:
        return self.flows[fid]

    def __iter__(self) -> Iterator[int]:
        return iter(self.flows)

    def __len__(self) -> int:
        return len(self.flows)

    def keys(self):
        return self.flows.keys()

    def items(self):
        return self.flows.items()

    def values(self):
        return self.flows.values()

    @property
    def bandwidth_fn(self):
        for m in self.flows.values():
            return m.bandwidth_fn
        return None

    @bandwidth_fn.setter
    def bandwidth_fn(self, fn) -> None:
        # ParallelRunner nulls this before pickling worker results and
        # reattaches it on the parent side; forward to every flow.
        for m in self.flows.values():
            m.bandwidth_fn = fn

    def baselines(self) -> Dict[int, str]:
        return {fid: spec["baseline"] for fid, spec in self.specs.items()}

    def starts(self) -> Dict[int, float]:
        return {fid: spec.get("start", 0.0) for fid, spec in self.specs.items()}

    def fairness(self, window_s: float = 10.0) -> FairnessReport:
        """Fairness report over the trailing ``window_s`` of the run."""
        return FairnessReport.from_flows(
            self.flows, duration=self.duration, baselines=self.baselines(),
            starts=self.starts(), window_s=window_s)


class ArenaSession:
    """N RTC flows over a shared bottleneck chain with pluggable AQM."""

    def __init__(self, flows: Sequence[ArenaFlowSpec],
                 trace: Optional[BandwidthTrace] = None,
                 config: Optional[SessionConfig] = None, *,
                 discipline: str = DEFAULT_DISCIPLINE,
                 discipline_params: Optional[dict] = None,
                 bottlenecks: Optional[Sequence[BottleneckSpec]] = None
                 ) -> None:
        if not flows:
            raise ValueError("need at least one flow")
        ids = [f.flow_id for f in flows]
        if len(set(ids)) != len(ids) or any(i <= 0 for i in ids):
            raise ValueError("flow ids must be unique and positive")
        self.flows = list(flows)
        self.config = config or SessionConfig()
        for f in self.flows:
            if f.start < 0 or f.start >= self.config.duration:
                raise ValueError(
                    f"flow {f.flow_id}: start {f.start} outside the run")
            if f.stop is not None and f.stop <= f.start:
                raise ValueError(f"flow {f.flow_id}: stop must be after start")
        if bottlenecks is None:
            if trace is None:
                raise ValueError("need a trace or explicit bottlenecks")
            bottlenecks = [BottleneckSpec(
                trace, discipline=discipline,
                discipline_params=dict(discipline_params or {}))]
        else:
            bottlenecks = list(bottlenecks)
            if trace is None:
                trace = bottlenecks[0].trace
        self.bottlenecks = bottlenecks
        self.discipline = bottlenecks[0].discipline
        self.trace = trace
        self.loop = EventLoop()
        self.rngs = SeedSequenceFactory(self.config.seed)
        self.path = ArenaPath(
            self.loop, bottlenecks,
            PathConfig(base_rtt=self.config.base_rtt,
                       queue_capacity_bytes=self.config.queue_capacity_bytes,
                       random_loss_rate=self.config.random_loss_rate,
                       contention_loss_rate=self.config.contention_loss_rate,
                       delay_jitter_std=self.config.delay_jitter_std),
            rng=self.rngs.stream("path.loss"),
            aqm_rng=self.rngs.stream("aqm"),
            flow_routes={f.flow_id: tuple(f.route)
                         for f in self.flows if f.route is not None},
        )
        self.senders: dict[int, Sender] = {}
        self.receivers: dict[int, TransportReceiver] = {}
        self.codecs: dict[int, object] = {}
        self._media_drops: dict[int, int] = {}
        # Per-flow state initialized up front (not lazily per flow):
        # display-sync cursors and incremental loss counters, so
        # _collect never has to rescan path.lost_packets per flow.
        self._sync_cursors: dict[int, int] = {}
        self._flow_losses: dict[int, int] = {}
        self._finished = False
        self.telemetry = None
        for flow in self.flows:
            self._build_flow(flow)
        self.path.on_arrival = self._on_arrival
        self.path.on_feedback = self._on_feedback
        self.path.on_drop = self._on_drop

    def enable_telemetry(self, telemetry=None):
        """Attach a telemetry hub with arena gauges (pure observer).

        Registers per-router occupancy and per-flow queue-bytes /
        queue-share gauges (:func:`repro.obs.wiring.instrument_arena`)
        and starts the sampling tick. Idempotent; call before
        :meth:`run`.
        """
        if self.telemetry is not None:
            return self.telemetry
        from repro.obs import Telemetry, instrument_arena
        tel = telemetry if telemetry is not None else Telemetry()
        tel.attach_clock(self.loop)
        instrument_arena(tel, self)
        tel.start_tick()
        self.telemetry = tel
        return tel

    # ------------------------------------------------------------------
    def _build_flow(self, flow: ArenaFlowSpec) -> None:
        spec: BaselineSpec = get_spec(flow.baseline)
        fid = flow.flow_id
        frngs = self.rngs.fork(f"flow{fid}")
        codec = _codec_factory(spec)(frngs)
        source = VideoSource.from_category(flow.category,
                                           frngs.stream("source"),
                                           fps=self.config.fps)
        cc = _cc_factory(spec, self.config.initial_bwe_bps,
                         self.config.max_bwe_bps)()

        def tagged_send(packet: Packet, _fid=fid) -> None:
            packet.flow_id = _fid
            self.path.send(packet)

        pacer = _pacer_factory(spec, None)(self.loop, tagged_send)
        pacer.set_pacing_rate(cc.bwe_bps)

        sender_cfg = SenderConfig(
            fps=self.config.fps,
            ace_c_enabled=spec.ace_c,
            ace_n_enabled=spec.ace_n,
            salsify_mode=spec.salsify,
            fec_enabled=spec.fec,
            max_target_bitrate_bps=spec.max_target_bitrate_bps,
        )
        ace_n = AceNController(AceNConfig()) if spec.ace_n else None
        ace_c = None
        if spec.ace_c:
            levels = codec.config.levels
            budget_bits = self.config.initial_bwe_bps / self.config.fps
            base_time = levels[0].encode_time(budget_bits)
            ace_c = AceCController(
                num_levels=len(levels), fps=self.config.fps,
                config=AceCConfig(
                    initial_phi=tuple(l.phi for l in levels),
                    initial_delta_te=tuple(
                        max(0.0, l.encode_time(budget_bits) - base_time)
                        for l in levels)))

        sender = Sender(self.loop, source, codec, _rate_control_factory(spec)(),
                        pacer, cc, self.path, config=sender_cfg,
                        ace_c=ace_c, ace_n=ace_n)
        receiver = TransportReceiver(
            self.loop,
            send_feedback_fn=lambda msg, _fid=fid: self.path.send_feedback((_fid, msg)),
            decode_time_fn=codec.decode_time,
        )
        receiver.frame_capture_time = _CaptureTimeView(sender)
        receiver.frame_quality = _QualityView(sender)
        self.senders[fid] = sender
        self.receivers[fid] = receiver
        self.codecs[fid] = codec
        self._media_drops[fid] = 0
        self._sync_cursors[fid] = 0
        self._flow_losses[fid] = 0

    # ------------------------------------------------------------------
    def _on_arrival(self, packet: Packet) -> None:
        receiver = self.receivers.get(packet.flow_id)
        if receiver is None:
            return
        receiver.on_packet(packet)
        self._sync_flow(packet.flow_id)

    def _sync_flow(self, fid: int) -> None:
        receiver = self.receivers[fid]
        sender = self.senders[fid]
        displayed = receiver.displayed
        cursor = self._sync_cursors[fid]
        while cursor < len(displayed):
            record = displayed[cursor]
            cursor += 1
            metrics = sender.frame_metrics.get(record.frame_id)
            if metrics is not None and metrics.displayed_at is None:
                metrics.complete_at = record.complete_at
                metrics.displayed_at = record.displayed_at
                metrics.had_retransmission = record.had_retransmission
                sender.forget_frame(record.frame_id)
        self._sync_cursors[fid] = cursor

    def _on_feedback(self, message) -> None:
        fid, msg = message
        sender = self.senders.get(fid)
        if sender is not None:
            sender.on_feedback(msg)

    def _on_drop(self, packet: Packet) -> None:
        fid = packet.flow_id
        if fid in self._media_drops:
            self._media_drops[fid] += 1
            self._flow_losses[fid] += 1

    # ------------------------------------------------------------------
    def run(self) -> ArenaMetrics:
        """Run all flows; returns :class:`ArenaMetrics`."""
        if self._finished:
            raise RuntimeError("session already ran; build a new one")
        loop = self.loop
        for flow in self.flows:
            sender = self.senders[flow.flow_id]
            if flow.start <= 0:
                sender.start()
            else:
                loop.call_at(flow.start, sender.start, name="arena.flow-start")
            if flow.stop is not None and flow.stop < self.config.duration:
                loop.call_at(flow.stop, sender.stop, name="arena.flow-stop")
        for receiver in self.receivers.values():
            receiver.start()
        loop.run(until=self.config.duration)
        for sender in self.senders.values():
            sender.stop()
        loop.run(until=self.config.duration + 0.5)
        for fid in self.senders:
            self._sync_flow(fid)
        if self.telemetry is not None:
            self.telemetry.flush()
        self._finished = True
        return ArenaMetrics(
            duration=self.config.duration,
            flows={fid: self._collect(fid) for fid in self.senders},
            specs={f.flow_id: {"baseline": f.baseline,
                               "category": f.category,
                               "start": f.start,
                               "stop": f.stop}
                   for f in self.flows},
            discipline=self.discipline,
            router_stats=self.path.router_stats(),
        )

    def _collect(self, fid: int) -> SessionMetrics:
        sender = self.senders[fid]
        metrics = SessionMetrics(duration=self.config.duration)
        metrics.frames = [sender.frame_metrics[k]
                          for k in sorted(sender.frame_metrics)]
        metrics.packets_sent = sender.pacer.stats.sent_packets
        # Incremental per-flow counter from _on_drop — no O(flows x
        # losses) rescan of path.lost_packets.
        metrics.packets_lost = self._flow_losses[fid]
        metrics.packets_retransmitted = sender.retransmissions
        metrics.send_events = list(sender.send_events)
        metrics.bwe_history = [(s.time, s.bwe_bps) for s in sender.cc.history]
        metrics.bandwidth_fn = self.trace.rate_at
        return metrics

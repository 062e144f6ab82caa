"""N-flow arena sessions over a shared bottleneck chain.

``ArenaSession`` generalizes the old single-path multi-flow session:
N independent sender/receiver pairs (any registered baseline each)
share an :class:`~repro.arena.topology.ArenaPath` — one or more
bottleneck routers with pluggable queue disciplines. Flows can join
late and leave early (``start``/``stop``), which is how the
late-joiner convergence experiments are run.

Each flow is one :class:`~repro.rtc.session.FlowStack` — the same
assembly the single-flow and live sessions use — tagged with its flow
id on the way into the shared path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.arena.fairness import FairnessReport
from repro.arena.topology import ArenaPath, BottleneckSpec
from repro.net.aqm import DEFAULT_DISCIPLINE
from repro.net.packet import Packet
from repro.net.trace import BandwidthTrace
from repro.rtc.baselines import get_spec, stack_kwargs
from repro.rtc.metrics import SessionMetrics
from repro.rtc.sender import Sender
from repro.rtc.session import FlowStack, SessionConfig
from repro.sim.events import EventLoop
from repro.sim.rng import SeedSequenceFactory
from repro.transport.receiver import TransportReceiver


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

    #: series-shard mode; :func:`repro.observe.attach` refuses here the
    #: options that watch a single flow.
    mode = "arena"

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
        # Not silent: there is no per-flow AudioReceiver or cross-traffic
        # generator here, so a config asking for one would be ignored.
        for unsupported in ("audio", "cross_traffic"):
            if getattr(self.config, unsupported):
                raise ValueError(
                    f"SessionConfig.{unsupported} is not supported by "
                    "ArenaSession (single-flow sessions only)")
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
            self.loop, bottlenecks, self.config.path_config(),
            rng=self.rngs.stream("path.loss"),
            aqm_rng=self.rngs.stream("aqm"),
            flow_routes={f.flow_id: tuple(f.route)
                         for f in self.flows if f.route is not None},
        )
        # Per-flow state built up front (not lazily per flow): the
        # stacks with their display syncs, and incremental loss counters
        # so collection never rescans path.lost_packets per flow.
        self.stacks: dict[int, FlowStack] = {
            f.flow_id: self._build_flow(f) for f in self.flows}
        self.senders: dict[int, Sender] = {
            fid: s.sender for fid, s in self.stacks.items()}
        self.receivers: dict[int, TransportReceiver] = {
            fid: s.receiver for fid, s in self.stacks.items()}
        self.codecs: dict[int, object] = {
            fid: s.codec for fid, s in self.stacks.items()}
        self._flow_losses: dict[int, int] = dict.fromkeys(self.stacks, 0)
        self._finished = False
        self.telemetry = None
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
    def _build_flow(self, flow: ArenaFlowSpec) -> FlowStack:
        fid = flow.flow_id

        def tagged_send(packet: Packet) -> None:
            packet.flow_id = fid
            self.path.send(packet)

        return FlowStack(
            self.loop, self.path, tagged_send,
            lambda msg: self.path.send_feedback((fid, msg)),
            self.rngs.fork(f"flow{fid}"), fps=self.config.fps,
            initial_bwe_bps=self.config.initial_bwe_bps,
            **stack_kwargs(get_spec(flow.baseline), self.config,
                           flow.category))

    # ------------------------------------------------------------------
    def _on_arrival(self, packet: Packet) -> None:
        stack = self.stacks.get(packet.flow_id)
        if stack is None:
            return
        stack.receiver.on_packet(packet)
        sync = stack.display_sync
        if sync.pending:
            sync.sync()

    def _on_feedback(self, message) -> None:
        fid, msg = message
        sender = self.senders.get(fid)
        if sender is not None:
            sender.on_feedback(msg)

    def _on_drop(self, packet: Packet) -> None:
        fid = packet.flow_id
        if fid in self._flow_losses:
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
        for stack in self.stacks.values():
            stack.display_sync.sync()
        if self.telemetry is not None:
            self.telemetry.flush()
        self._finished = True
        return ArenaMetrics(
            duration=self.config.duration,
            flows={fid: stack.collect(self.config.duration,
                                      self._flow_losses[fid],
                                      self.trace.rate_at)
                   for fid, stack in self.stacks.items()},
            specs={f.flow_id: {"baseline": f.baseline,
                               "category": f.category,
                               "start": f.start,
                               "stop": f.stop}
                   for f in self.flows},
            discipline=self.discipline,
            router_stats=self.path.router_stats(),
        )

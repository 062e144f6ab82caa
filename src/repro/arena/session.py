"""N-flow arena sessions over a shared bottleneck chain.

N independent sender/receiver pairs (any registered baseline each)
share an :class:`~repro.arena.topology.ArenaPath` — one or more
bottleneck routers with pluggable queue disciplines. Flows can join
late and leave early (``start``/``stop``), which is how the
late-joiner convergence experiments are run. ``ArenaSession`` is a
:class:`~repro.rtc.session.Session`, the single-flow and live sessions'
own lifecycle and path callbacks, with one ``FlowStack`` per flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.arena.fairness import FairnessReport
from repro.arena.topology import ArenaPath, BottleneckSpec
from repro.net.aqm import DEFAULT_DISCIPLINE
from repro.net.trace import BandwidthTrace
from repro.rtc.baselines import get_spec
from repro.rtc.metrics import SessionMetrics
from repro.rtc.session import Session, SessionConfig
from repro.sim.events import EventLoop


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

    def items(self):
        return self.flows.items()

    def _forward_bandwidth_fn(self, fn) -> None:
        # ParallelRunner nulls this before pickling worker results and
        # reattaches it on the parent side; forward to every flow.
        for m in self.flows.values():
            m.bandwidth_fn = fn

    #: write-only: a flow's own ``bandwidth_fn`` is the one to read.
    bandwidth_fn = property(fset=_forward_bandwidth_fn)

    def baselines(self) -> Dict[int, str]:
        return {fid: spec["baseline"] for fid, spec in self.specs.items()}

    def starts(self) -> Dict[int, float]:
        return {fid: spec.get("start", 0.0) for fid, spec in self.specs.items()}

    def fairness(self, window_s: float = 10.0) -> FairnessReport:
        """Fairness report over the trailing ``window_s`` of the run."""
        return FairnessReport.from_flows(
            self.flows, duration=self.duration, baselines=self.baselines(),
            starts=self.starts(), window_s=window_s)


class ArenaSession(Session):
    """N RTC flows over a shared bottleneck chain with pluggable AQM,
    always on the reference engine."""

    #: series-shard mode; :func:`repro.observe.attach` refuses here the
    #: options that watch a single flow.
    mode = "arena"

    def __init__(self, flows: Sequence[ArenaFlowSpec],
                 trace: Optional[BandwidthTrace] = None,
                 config: Optional[SessionConfig] = None, *,
                 discipline: str = DEFAULT_DISCIPLINE,
                 bottlenecks: Optional[Sequence[BottleneckSpec]] = None
                 ) -> None:
        if not flows:
            raise ValueError("need at least one flow")
        ids = [f.flow_id for f in flows]
        if len(set(ids)) != len(ids) or any(i <= 0 for i in ids):
            raise ValueError("flow ids must be unique and positive")
        config = config or SessionConfig()
        # The audio probe and the cross-traffic generator serve flow 0.
        config.refuse(("audio", "cross_traffic"),
                      "ArenaSession (single-flow sessions only)")
        for f in flows:
            if f.start < 0 or f.start >= config.duration:
                raise ValueError(
                    f"flow {f.flow_id}: start {f.start} outside the run")
            if f.stop is not None and f.stop <= f.start:
                raise ValueError(f"flow {f.flow_id}: stop must be after start")
        if bottlenecks is None:
            if trace is None:
                raise ValueError("need a trace or explicit bottlenecks")
            bottlenecks = [BottleneckSpec(trace, discipline=discipline)]
        else:
            bottlenecks = list(bottlenecks)
            if trace is None:
                trace = bottlenecks[0].trace
        super().__init__(trace, config, EventLoop())
        self.flows = list(flows)
        self._connect(ArenaPath(
            self.loop, bottlenecks, config.path_config(),
            rng=self.rngs.stream("path.loss"),
            aqm_rng=self._aqm_rng(b.discipline for b in bottlenecks),
            flow_routes={f.flow_id: tuple(f.route)
                         for f in self.flows if f.route is not None},
        ))
        for f in self.flows:
            self._add_flow(f.flow_id, self.rngs.fork(f"flow{f.flow_id}"),
                           get_spec(f.baseline), f.category,
                           start=f.start, stop=f.stop)
        self.senders = {fid: s.sender for fid, s in self.stacks.items()}

    def run(self) -> ArenaMetrics:
        """Run all flows; returns :class:`ArenaMetrics`."""
        return ArenaMetrics(
            duration=self.config.duration,
            flows=super().run(),
            specs={f.flow_id: dict(baseline=f.baseline, category=f.category,
                                   start=f.start, stop=f.stop)
                   for f in self.flows},
            discipline=self.path.bottlenecks[0].discipline,
            router_stats=self.path.router_stats(),
        )

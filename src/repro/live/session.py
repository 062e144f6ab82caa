"""Live session driver: the ACE stack over real UDP sockets.

A :class:`LiveSession` is the simulated single-flow session on a
:class:`~repro.live.clock.WallClock`: ``Session._single_flow`` builds
its flow 0 and the simulator's :class:`~repro.net.path.NetworkPath`
(loss, the drop-tail bottleneck and propagation each way, in place of
the paper's Mahimahi), with a :class:`~repro.live.transport.UdpTransport`
on loopback at each far end of the path. So the stack meets real socket
latency and asyncio timer jitter: the paper's WebRTC deployment, scaled
down to one host. Built on the simulator's clock instead, it is the
simulated session, bit for bit (``tests/test_live_on_sim_clock.py``).

The output is the ordinary :class:`~repro.rtc.metrics.SessionMetrics`::

    metrics = run_live("ace", LiveConfig(duration=5.0))
    print(metrics.p95_latency(), metrics.mean_vmaf())
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Optional

from repro.live.clock import WallClock
from repro.live.stats import serving_stats
from repro.live.transport import UdpTransport
from repro.net.trace import BandwidthTrace
from repro.observe import Observe, attach
from repro.rtc.baselines import BaselineSpec, resolve_spec
from repro.rtc.metrics import SessionMetrics
from repro.rtc.session import Session, SessionConfig


@dataclass
class LiveConfig(SessionConfig, Observe):
    """One live (wall-clock, UDP-loopback) run: a ``SessionConfig``,
    whose path a ``NetworkPath`` on the wall clock emulates, plus how the
    run is driven and served; its :class:`~repro.observe.Observe` options
    attach in ``run``."""

    duration: float = 5.0
    #: post-stop settle time for in-flight packets and feedback.
    drain: float = 0.5
    #: shape traffic to ``trace``; False = a bottleneck that never binds
    #: (delay, jitter and loss still apply).
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

    def __post_init__(self) -> None:
        super().__post_init__()
        # Flow 0 alone: a live session builds no audio probe and no
        # cross-traffic generator.
        self.refuse(("audio", "cross_traffic"), "a live session")


class LiveSession(Session):
    """One sender/receiver pair over UDP loopback: the shared
    :class:`~repro.rtc.session.Session` phases, with time advanced by
    awaiting a wall clock instead of an engine. Flow 0 runs ``baseline``
    (a name or a spec; see :func:`live_spec`). Call :meth:`run` inside an
    event loop (or use :func:`run_live`): a ``WallClock`` needs that
    running loop, so the clock, the endpoints and flow 0 are built there.
    """

    #: series-shard mode (:func:`repro.observe.harvest`).
    mode = "live"

    def __init__(self, trace: Optional[BandwidthTrace], config: LiveConfig,
                 baseline: str | BaselineSpec,
                 category: str = "gaming") -> None:
        #: flow 0's spec and content; run() builds its stack.
        self.spec, self.category = live_spec(baseline), category
        # Unshaped: the metrics carry no capacity curve.
        super().__init__(trace if config.shaped else None, config)
        self._stop_requested = False
        self._stop_waiter = None
        self.sender = self.receiver = None       # flow 0's, from run()
        #: the receiver and sender endpoints, once ``run`` binds them.
        self.ends: list[UdpTransport] = []
        #: ``(host, port)`` of the running stats endpoint (stats_port=0).
        self.stats_addr: Optional[tuple] = None

    @property
    def cpu_s(self) -> float:
        """CPU seconds attributed to this session's clock callbacks (0.0
        before :meth:`run`)."""
        return 0.0 if self.clock is None else self.clock.cpu_s

    @property
    def wire_faults(self) -> int:
        """Socket errors plus malformed datagrams on both endpoints."""
        return sum(end.socket_errors + end.malformed for end in self.ends)

    async def run(self) -> SessionMetrics:
        """Execute the session in real time and aggregate metrics."""
        self._claim()
        config = self.config
        self.clock = WallClock(asyncio.get_running_loop())
        ends = self.ends
        elapsed = config.duration
        try:
            # From the first bind on, every failure (a second bind, the
            # stack build, a busy stats port) runs the teardown below.
            for _ in range(2):
                ends.append(await UdpTransport.create(self.clock))
            for end, peer in zip(ends, ends[::-1]):    # receiver, sender
                end.connect(peer.local_addr)
            self._single_flow(self.clock, ends)
            if config.stats_port is not None:      # implies telemetry
                self.enable_telemetry()
            async with serving_stats(config.stats_port,
                                     self._stats_snapshot) as self.stats_addr:
                attach(self, config)
                self._start()
                await self._wait_or_stop(config.duration)
                elapsed = min(self.clock.now, config.duration)
                self._stop()
                # Let in-flight packets and feedback land.
                await self.clock.sleep(config.drain)
        finally:
            # Teardown leaves nothing on the event loop: closing the clock
            # drops every entry (ticks and pumps reschedule themselves
            # forever, packets in flight on the path) and its timer.
            for end in ends:
                end.close()
            self.clock.close()
        return self._finish(elapsed)[0]

    def _stats_snapshot(self) -> str:
        from repro.obs.export import prometheus_snapshot
        return prometheus_snapshot(self.telemetry.registry)

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
        # After an early stop the timeout stays on the clock: firing in
        # the drain it finds the waiter done, else closing drops it.
        waiter = asyncio.get_running_loop().create_future()
        self._stop_waiter = waiter
        self.clock.call_later(duration, lambda: None if waiter.done()
                              else waiter.set_result(None), "live.duration")
        await waiter


def live_spec(baseline: str | BaselineSpec) -> BaselineSpec:
    """``baseline``'s spec; ``ValueError`` names an unknown baseline or one
    using FEC, whose parity the live wire format cannot encode yet."""
    spec = resolve_spec(baseline)
    if spec.fec:
        raise ValueError(f"baseline {spec.name!r} uses FEC, which is not "
                         "encodable on the live wire format yet")
    return spec


def build_live_session(baseline: str, config: Optional[LiveConfig] = None,
                       trace: Optional[BandwidthTrace] = None,
                       category: str = "gaming") -> LiveSession:
    """Build a :class:`LiveSession` for a named baseline: the session
    ``build_session(baseline, ...)`` builds, but for the clock and the UDP
    hop at each far end of the path."""
    config = config or LiveConfig()
    if trace is None:
        trace = BandwidthTrace.constant(
            20e6, duration=config.duration + config.drain + 10)
    return LiveSession(trace, config, baseline, category)


def run_live(baseline: str, config: Optional[LiveConfig] = None,
             trace: Optional[BandwidthTrace] = None,
             category: str = "gaming") -> SessionMetrics:
    """Synchronous convenience wrapper: build, run, return metrics."""
    return asyncio.run(build_live_session(baseline, config, trace,
                                          category).run())

"""Multi-session live runtime: N loopback sessions on one event loop.

``repro live`` runs exactly one wall-clock session; this module scales
that runtime to a fleet. A :class:`SessionSupervisor` drives N
concurrent :class:`~repro.live.session.LiveSession` instances — any mix
of registered baselines — on a *single* asyncio event loop, the way an
SFU-style relay multiplexes many RTP sessions onto one reactor thread:

* **staggered joins** — session starts are spread over a ramp window so
  the fleet exercises late joins instead of a thundering herd (each
  session still runs its own full duration);
* **failure isolation** — one session crashing (setup or runtime) is
  recorded on its :class:`SessionRecord` and counted in the fleet
  metrics; the rest of the fleet keeps running;
* **graceful drain** — SIGINT (where the platform supports loop signal
  handlers) or :meth:`SessionSupervisor.request_stop` winds every
  running session down through its normal drain window and skips
  sessions still waiting in the ramp;
* **sharded telemetry** — every session owns a private metric registry
  (no cross-session lock or label contention on the hot path); one
  Prometheus snapshot rolled up per scrape with ``session="<label>"``
  labels is served on ``--stats-port``, alongside a supervisor-level
  ``fleet`` shard (sessions running/completed/failed, fleet pacing
  percentiles);
* **fleet heartbeats** — per-session liveness and pacing-latency
  percentiles streamed on an interval through
  :class:`~repro.obs.fleet.LiveFleetLog` (same JSONL conventions as the
  grid fleet observer).

Soak safety rests on the teardown/bounding fixes in the session layer:
sessions leave nothing scheduled on the loop when they finish, and
per-packet sample rings are bounded (``pacer_stats_cap``), so fleet
memory is ``sessions x cap`` instead of growing with wall time.
"""

from __future__ import annotations

import asyncio
import signal
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.live.session import LiveConfig, LiveSession, build_live_session
from repro.live.stats import start_stats_server, stats_addr
from repro.net.trace import BandwidthTrace
from repro.obs.export import prometheus_rollup
from repro.obs.fleet import LiveFleetLog
from repro.obs.quantiles import percentiles
from repro.obs.registry import MetricRegistry
from repro.obs.resources import process_rss_bytes
from repro.obs.slo import (SloRule, SloWatchdog, fleet_slo_rules,
                           format_slo_event)

#: default per-session bound on the pacer's per-packet sample rings —
#: enough for minutes of recent-window percentiles per session while
#: keeping a 100-session fleet's sample memory in the tens of MB.
DEFAULT_LOAD_STATS_CAP = 4096

#: `repro load --soak` media duration when none is given explicitly:
#: long enough that the run is ended by SIGINT, not the timer.
DEFAULT_SOAK_DURATION_S = 3600.0


# ----------------------------------------------------------------------
# specs
# ----------------------------------------------------------------------
@dataclass
class SessionSpec:
    """One fleet member: a baseline plus its per-session live config."""

    label: str
    baseline: str
    config: LiveConfig
    trace: Optional[BandwidthTrace] = None
    category: str = "gaming"


@dataclass
class LoadConfig:
    """Knobs of one load-generator run (``repro load``)."""

    sessions: int = 4
    #: baselines assigned round-robin across sessions.
    mix: Sequence[str] = ("ace",)
    #: seconds over which session joins are staggered (0 = all at once).
    ramp: float = 0.0
    #: wall-clock media seconds per session (measured from its join).
    duration: float = 5.0
    drain: float = 0.5
    seed: int = 1
    fps: float = 30.0
    base_rtt: float = 0.03
    random_loss_rate: float = 0.0
    queue_capacity_bytes: int = 100_000
    initial_bwe_bps: float = 4_000_000.0
    #: emulated bottleneck rate when no trace factory is supplied.
    bottleneck_mbps: float = 20.0
    shaped: bool = True
    stats_port: Optional[int] = None
    heartbeat_interval: float = 1.0
    pacer_stats_cap: int = DEFAULT_LOAD_STATS_CAP
    #: per-session CPU attribution at clock-callback boundaries; on by
    #: default — the wrapper is two ``process_time`` reads per callback.
    cpu_accounting: bool = True
    #: record per-session time-series on the telemetry tick; shards land
    #: under ``<run_dir>/series/<label>.json`` at teardown for
    #: ``repro plot``.
    series: bool = False
    #: fleet SLO watchdog: threshold rules over the fleet registry
    #: (pacing p99, failed sessions), evaluated every heartbeat,
    #: published as an ``slo`` rollup shard.
    slo: bool = False
    #: fleet pacing-delay p99 bound (seconds) for the default SLO rules.
    slo_pacing_p99_s: float = 0.25
    #: watchdog drill: clamp the first session's pacing rate to the floor
    #: at this session time (seconds from its join)...
    inject_stall_at: Optional[float] = None
    #: ...for this long.
    inject_stall_duration: float = 1.0


def build_load_specs(config: LoadConfig,
                     trace_factory: Optional[
                         Callable[[int], Optional[BandwidthTrace]]] = None,
                     ) -> List[SessionSpec]:
    """Expand a :class:`LoadConfig` into per-session specs.

    Sessions get distinct seeds (``seed + i``) and — unless a
    ``trace_factory`` supplies them — a private constant-rate trace
    each. Private traces matter: :class:`BandwidthTrace` keeps a
    monotonic lookup cursor, and interleaved queries from many sessions
    on one shared shaped trace would thrash it.
    """
    mix = list(config.mix) or ["ace"]
    specs: List[SessionSpec] = []
    for i in range(config.sessions):
        baseline = mix[i % len(mix)]
        live = LiveConfig(
            duration=config.duration, seed=config.seed + i, fps=config.fps,
            initial_bwe_bps=config.initial_bwe_bps,
            base_rtt=config.base_rtt,
            random_loss_rate=config.random_loss_rate,
            queue_capacity_bytes=config.queue_capacity_bytes,
            drain=config.drain, shaped=config.shaped,
            telemetry=True, keep_telemetry_events=False,
            series=config.series,
            pacer_stats_cap=config.pacer_stats_cap,
            cpu_accounting=config.cpu_accounting)
        if config.inject_stall_at is not None and i == 0:
            live.inject_stall_at = config.inject_stall_at
            live.inject_stall_duration = config.inject_stall_duration
        if trace_factory is not None:
            trace = trace_factory(i)
        else:
            trace = BandwidthTrace.constant(
                config.bottleneck_mbps * 1e6,
                duration=config.duration + config.drain + 10)
        specs.append(SessionSpec(label=f"s{i}-{baseline}", baseline=baseline,
                                 config=live, trace=trace))
    return specs


def _default_factory(spec: SessionSpec) -> LiveSession:
    return build_live_session(spec.baseline, spec.config, trace=spec.trace,
                              category=spec.category)


# ----------------------------------------------------------------------
# per-session record
# ----------------------------------------------------------------------
@dataclass
class SessionRecord:
    """Lifecycle + outcome of one supervised session."""

    spec: SessionSpec
    session: Optional[LiveSession] = None
    #: pending -> running -> completed | failed; skipped = drained away
    #: while still waiting in the ramp.
    status: str = "pending"
    error: Optional[str] = None
    metrics: Optional[object] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    def pacing_percentiles(self,
                           pcts: Tuple[float, ...] = (50.0, 99.0),
                           ) -> Tuple[Optional[float], ...]:
        """Percentiles (seconds) of the session's recent pacing delays."""
        session = self.session
        if session is None or session.sender is None:
            return tuple(None for _ in pcts)
        return percentiles(session.sender.pacer.stats.pacing_delays, pcts)

    @property
    def cpu_s(self) -> Optional[float]:
        """CPU seconds attributed to this session (clock accounting)."""
        session = self.session
        if session is None or not session.config.cpu_accounting:
            return None
        return session.cpu_s


# ``percentiles`` used to be defined here; it now lives in
# :mod:`repro.obs.quantiles` (shared with check_perf, the burst
# analyzer, and the autoscale probe) and is re-exported above for
# existing importers.


# ----------------------------------------------------------------------
# supervisor
# ----------------------------------------------------------------------
class SessionSupervisor:
    """Run a fleet of live sessions concurrently on the calling loop.

    Build from specs (or via :func:`build_load_specs`), then ``await
    run()`` inside an event loop — or use the synchronous
    :func:`run_load` wrapper. ``session_factory`` exists for tests to
    inject failing sessions; the default builds real
    :class:`LiveSession` objects from the baseline registry.
    """

    def __init__(self, specs: Sequence[SessionSpec], *, ramp: float = 0.0,
                 stats_port: Optional[int] = None,
                 heartbeat_interval: Optional[float] = 1.0,
                 run_dir: Optional[str] = None,
                 echo: Optional[Callable[[str], None]] = None,
                 session_factory: Optional[
                     Callable[[SessionSpec], LiveSession]] = None,
                 slo_rules: Optional[Sequence[SloRule]] = None,
                 heartbeat_hook: Optional[
                     Callable[[dict], None]] = None) -> None:
        self.records = [SessionRecord(spec=spec) for spec in specs]
        self.ramp = ramp
        self.stats_port = stats_port
        self.heartbeat_interval = heartbeat_interval
        #: called with every heartbeat record (after it is logged) —
        #: the live dashboard's feed. Hook errors are swallowed so a
        #: rendering bug can never take the fleet down.
        self.heartbeat_hook = heartbeat_hook
        self.log = LiveFleetLog(run_dir, echo=echo)
        self.summary: Optional[dict] = None
        #: ``(host, port)`` of the rollup endpoint once bound.
        self.stats_addr: Optional[Tuple[str, int]] = None
        self._factory = session_factory or _default_factory
        self._stopping = False
        self._stop_event: Optional[asyncio.Event] = None
        # Supervisor-level shard rolled up next to the per-session ones.
        self.fleet = MetricRegistry()
        self._g_running = self.fleet.gauge(
            "live.sessions_running", help="Sessions currently running")
        self._c_completed = self.fleet.counter(
            "live.sessions_completed", help="Sessions finished cleanly")
        self._c_failed = self.fleet.counter(
            "live.sessions_failed",
            help="Sessions that crashed (isolated; fleet kept running)")
        self._g_p50 = self.fleet.gauge(
            "live.pacing_p50_s",
            help="Fleet-wide p50 of recent per-packet pacing delays")
        self._g_p99 = self.fleet.gauge(
            "live.pacing_p99_s",
            help="Fleet-wide p99 of recent per-packet pacing delays")
        self._g_rss = self.fleet.gauge(
            "live.rss_bytes",
            help="Resident set size of the supervisor process")
        self._g_cpu = self.fleet.gauge(
            "live.cpu_total_s",
            help="CPU seconds attributed across all session clocks")
        #: fleet SLO watchdog over the supervisor shard; evaluated on
        #: every heartbeat (after gauge refresh), alerts streamed into
        #: the fleet log and published as the ``slo`` rollup shard.
        self.watchdog: Optional[SloWatchdog] = None
        if slo_rules is not None:
            self.watchdog = SloWatchdog(
                slo_rules, source=self.fleet, on_alert=self._on_slo_alert)

    def _on_slo_alert(self, event: dict) -> None:
        self.log.append({**event, "elapsed_s": round(self.log.elapsed_s, 6)})
        self.log.say(format_slo_event(event))

    # ------------------------------------------------------------------
    # run / stop
    # ------------------------------------------------------------------
    async def run(self) -> List[SessionRecord]:
        """Drive the whole fleet to completion; never raises for a
        member session's failure."""
        aloop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        if self._stopping:
            self._stop_event.set()
        stats_server = None
        if self.stats_port is not None:
            stats_server = await start_stats_server(self.stats_port,
                                                    self.rollup)
            self.stats_addr = stats_addr(stats_server)
            self.log.append({"kind": "stats",
                             "addr": list(self.stats_addr)})
        sig_installed = False
        try:
            aloop.add_signal_handler(signal.SIGINT, self.request_stop)
            sig_installed = True
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread or platform without loop signals
        n = len(self.records)
        step = self.ramp / (n - 1) if self.ramp > 0 and n > 1 else 0.0
        tasks = [aloop.create_task(self._run_one(rec, i * step))
                 for i, rec in enumerate(self.records)]
        beat_task = aloop.create_task(self._heartbeat_loop())
        exit_reason = "completed"
        try:
            await asyncio.gather(*tasks)
        except BaseException as exc:
            # Supervisor-level failure (member-session crashes are
            # isolated in _run_one and never reach here).
            exit_reason = f"failure: {type(exc).__name__}: {exc}"
            raise
        finally:
            beat_task.cancel()
            try:
                await beat_task
            except asyncio.CancelledError:
                pass
            if sig_installed:
                aloop.remove_signal_handler(signal.SIGINT)
            if stats_server is not None:
                stats_server.close()
                await stats_server.wait_closed()
            if exit_reason == "completed" and self._stopping:
                exit_reason = "sigint-drain"
            self.heartbeat()  # terminal statuses land in the log
            try:
                self._write_series_shards()
            except Exception:
                pass  # shards are best-effort; the summary must land
            # Finalize inside the teardown path so even a supervisor
            # crash leaves a summary.json naming its exit reason.
            self.summary = self.log.finalize(self._summary(exit_reason))
        return self.records

    def request_stop(self) -> None:
        """Graceful drain: running sessions wind down through their
        drain window, ramp-pending sessions are skipped. Idempotent;
        installed as the SIGINT handler while :meth:`run` is active."""
        self._stopping = True
        if self._stop_event is not None:
            self._stop_event.set()
        for rec in self.records:
            if rec.session is not None and rec.status == "running":
                rec.session.request_stop()

    async def _run_one(self, rec: SessionRecord, delay: float) -> None:
        if delay > 0 and not self._stopping:
            stop_wait = asyncio.ensure_future(self._stop_event.wait())
            try:
                await asyncio.wait({stop_wait}, timeout=delay)
            finally:
                stop_wait.cancel()
        if self._stopping:
            rec.status = "skipped"
            return
        try:
            session = self._factory(rec.spec)
            rec.session = session
            rec.status = "running"
            rec.started_at = self.log.elapsed_s
            if self._stopping:
                # Stop raced the factory: run anyway, but drain at once.
                session.request_stop()
            rec.metrics = await session.run()
            rec.status = "completed"
            self._c_completed.inc()
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # Failure isolation: the crash is recorded and counted; the
            # rest of the fleet never sees it.
            rec.status = "failed"
            rec.error = f"{type(exc).__name__}: {exc}"
            self._c_failed.inc()
            self.log.append({"kind": "session-failed",
                             "label": rec.spec.label, "error": rec.error,
                             "elapsed_s": round(self.log.elapsed_s, 6)})
        finally:
            rec.finished_at = self.log.elapsed_s

    def _write_series_shards(self) -> None:
        """Persist each recording session's time-series into the run
        dir (``series/<label>.json``, atomic) for ``repro plot``."""
        if self.log.run_dir is None:
            return
        for rec in self.records:
            session = rec.session
            frame_fn = getattr(session, "series_frame", None)
            if not callable(frame_fn):
                continue
            frame = frame_fn({"label": rec.spec.label,
                              "baseline": rec.spec.baseline,
                              "mode": "live"})
            if frame is None or not frame.t:
                continue
            frame.write(self.log.run_dir / "series"
                        / f"{rec.spec.label}.json")

    # ------------------------------------------------------------------
    # telemetry rollup
    # ------------------------------------------------------------------
    def shards(self) -> dict:
        """Label -> registry map of every session that has telemetry."""
        shards = {"fleet": self.fleet}
        if self.watchdog is not None:
            shards["slo"] = self.watchdog.publish
        for rec in self.records:
            session = rec.session
            if session is not None and session.telemetry is not None:
                shards[rec.spec.label] = session.telemetry.registry
        return shards

    def rollup(self) -> str:
        """One Prometheus snapshot across the fleet (scrape handler)."""
        self._refresh_fleet_gauges()
        return prometheus_rollup(self.shards())

    def _refresh_fleet_gauges(self) -> None:
        running = sum(1 for r in self.records if r.status == "running")
        self._g_running.set(float(running))
        p50, p99 = self._fleet_pacing()
        if p50 is not None:
            self._g_p50.set(p50)
        if p99 is not None:
            self._g_p99.set(p99)
        rss = process_rss_bytes()
        if rss is not None:
            self._g_rss.set(rss)
        cpu_total = 0.0
        for rec in self.records:
            cpu = rec.cpu_s
            if cpu is None:
                continue
            cpu_total += cpu
            session = rec.session
            if session is not None and session.telemetry is not None:
                # Per-session shard: CPU attributed to this session's
                # clock callbacks, scraped as live.cpu_s{session=label}.
                session.telemetry.registry.gauge(
                    "live.cpu_s", record=False,
                    help="CPU seconds attributed to this session",
                ).set(cpu)
        self._g_cpu.set(cpu_total)

    #: per-session tail of the pacing ring folded into fleet percentiles
    #: (bounds heartbeat cost at large fleets).
    FLEET_PACING_WINDOW = 512

    def _fleet_pacing(self) -> Tuple[Optional[float], Optional[float]]:
        recent: List[float] = []
        for rec in self.records:
            session = rec.session
            if session is None or session.sender is None:
                continue
            delays = session.sender.pacer.stats.pacing_delays
            tail = len(delays) - self.FLEET_PACING_WINDOW
            recent.extend(d for i, d in enumerate(delays) if i >= tail)
        return percentiles(recent, (50.0, 99.0))

    # ------------------------------------------------------------------
    # heartbeats / summary
    # ------------------------------------------------------------------
    async def _heartbeat_loop(self) -> None:
        interval = self.heartbeat_interval
        if interval is None or interval <= 0:
            return
        while True:
            await asyncio.sleep(interval)
            self.heartbeat()

    def heartbeat(self) -> dict:
        """Emit one fleet heartbeat (per-session liveness + pacing +
        resource accounting), then evaluate the SLO watchdog against
        the freshly refreshed fleet gauges."""
        self._refresh_fleet_gauges()
        counts = {"pending": 0, "running": 0, "completed": 0,
                  "failed": 0, "skipped": 0}
        sessions = {}
        for rec in self.records:
            counts[rec.status] = counts.get(rec.status, 0) + 1
            entry: dict = {"status": rec.status}
            if rec.error is not None:
                entry["error"] = rec.error
            session = rec.session
            if session is not None and session.sender is not None:
                p50, p99 = rec.pacing_percentiles()
                entry["frames"] = len(session.sender.frame_metrics)
                if p50 is not None:
                    entry["pacing_p50_ms"] = round(p50 * 1e3, 3)
                if p99 is not None:
                    entry["pacing_p99_ms"] = round(p99 * 1e3, 3)
                cpu = rec.cpu_s
                if cpu is not None:
                    entry["cpu_s"] = round(cpu, 4)
            sessions[rec.spec.label] = entry
        p50, p99 = self._fleet_pacing()
        record = {**counts, "sessions": sessions,
                  "pacing_p50_ms": None if p50 is None else round(p50 * 1e3, 3),
                  "pacing_p99_ms": None if p99 is None else round(p99 * 1e3, 3),
                  "cpu_total_s": round(self._g_cpu.value or 0.0, 4),
                  "rss_mb": (None if self._g_rss.value is None
                             else round(self._g_rss.value / 2**20, 2))}
        if self.watchdog is not None:
            self.watchdog.evaluate(self.log.elapsed_s)
            firing = self.watchdog.firing
            if firing:
                record["slo_firing"] = firing
        p99_txt = "-" if p99 is None else f"{p99 * 1e3:.1f} ms"
        line = (f"live fleet: {counts['running']} running, "
                f"{counts['completed']} completed, {counts['failed']} failed"
                + (f", {counts['skipped']} skipped" if counts['skipped']
                   else "")
                + f"; p99 pacing {p99_txt} at t={self.log.elapsed_s:.1f}s")
        out = self.log.heartbeat(record, line)
        if self.heartbeat_hook is not None:
            try:
                self.heartbeat_hook(out)
            except Exception:
                pass
        return out

    def _summary(self, exit_reason: str = "completed") -> dict:
        counts = {"completed": 0, "failed": 0, "skipped": 0}
        rows = []
        statuses = {}
        for rec in self.records:
            counts[rec.status] = counts.get(rec.status, 0) + 1
            statuses[rec.spec.label] = rec.status
            p50, p99 = rec.pacing_percentiles()
            row = {"label": rec.spec.label, "baseline": rec.spec.baseline,
                   "status": rec.status, "error": rec.error,
                   "pacing_p50_ms": None if p50 is None else round(p50 * 1e3, 3),
                   "pacing_p99_ms": None if p99 is None else round(p99 * 1e3, 3)}
            cpu = rec.cpu_s
            if cpu is not None:
                row["cpu_s"] = round(cpu, 4)
            if rec.metrics is not None:
                row["frames"] = len(rec.metrics.frames)
                row["p95_latency_ms"] = round(
                    rec.metrics.p95_latency() * 1e3, 3)
            rows.append(row)
        p50, p99 = self._fleet_pacing()
        summary = {"sessions": len(self.records), **counts,
                   "exit_reason": exit_reason,
                   "statuses": statuses,
                   "pacing_p50_ms": None if p50 is None else round(p50 * 1e3, 3),
                   "pacing_p99_ms": None if p99 is None else round(p99 * 1e3, 3),
                   "cpu_total_s": round(self._g_cpu.value or 0.0, 4),
                   "rss_mb": (None if self._g_rss.value is None
                              else round(self._g_rss.value / 2**20, 2)),
                   "stats_addr": (list(self.stats_addr)
                                  if self.stats_addr else None),
                   "per_session": rows}
        if self.watchdog is not None:
            slo = self.watchdog.summary()
            summary["slo"] = {"alerts": slo["alerts"],
                              "firing": slo["firing"],
                              "events": slo["events"]}
        return summary


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
async def run_load_async(config: LoadConfig, *,
                         trace_factory: Optional[
                             Callable[[int], Optional[BandwidthTrace]]] = None,
                         run_dir: Optional[str] = None,
                         echo: Optional[Callable[[str], None]] = None,
                         session_factory: Optional[
                             Callable[[SessionSpec], LiveSession]] = None,
                         heartbeat_hook: Optional[
                             Callable[[dict], None]] = None,
                         ) -> SessionSupervisor:
    """Build the fleet from ``config`` and drive it to completion."""
    slo_rules = (fleet_slo_rules(pacing_p99_s=config.slo_pacing_p99_s)
                 if config.slo else None)
    supervisor = SessionSupervisor(
        build_load_specs(config, trace_factory),
        ramp=config.ramp, stats_port=config.stats_port,
        heartbeat_interval=config.heartbeat_interval,
        run_dir=run_dir, echo=echo, session_factory=session_factory,
        slo_rules=slo_rules, heartbeat_hook=heartbeat_hook)
    await supervisor.run()
    return supervisor


def run_load(config: LoadConfig, **kwargs) -> SessionSupervisor:
    """Synchronous convenience wrapper around :func:`run_load_async`."""
    return asyncio.run(run_load_async(config, **kwargs))

"""Multi-session live runtime: N loopback sessions on one event loop.

``repro live`` runs one wall-clock session; a :class:`SessionSupervisor`
drives N concurrent :class:`~repro.live.session.LiveSession` instances
— any mix of baselines — on a *single* asyncio event loop, the way an
SFU-style relay multiplexes many RTP sessions onto one reactor thread.
Joins are staggered over a ramp; a crash (setup or runtime) is recorded
on its :class:`SessionRecord` and counted while the fleet runs on;
SIGINT or :meth:`SessionSupervisor.request_stop` drains running
sessions and skips ramp-pending ones.

**One fleet record.** :meth:`SessionSupervisor.sample` computes each
session's row and the fleet row once per heartbeat or scrape and
publishes them as ``live.*`` gauges: a session's into its private
registry (no cross-session contention on the hot path), the fleet's
into a ``fleet`` shard. The heartbeats streamed through
:class:`~repro.obs.fleet.LiveFleetLog`, the summary, the Prometheus
rollup on ``--stats-port`` (``session="<label>"`` per shard), ``load
--dash`` and ``repro watch`` all read that record. A session's row
carries ``cpu_s`` (CPU in its clock's wakes) and ``wire_faults`` (socket
errors plus malformed datagrams, both endpoints).

Soak safety rests on the session layer: sessions leave nothing
scheduled on the loop, and every per-session telemetry window is
bounded — the pacer's occupancy ring at ``OCCUPANCY_SAMPLE_CAP``, the
burst analyzer's pacing window, and (event log off) the record ring,
the wire-row window and the spans of frames not yet displayed. A
session's own result is not: its sender's frame metrics and send log
grow with its frames and packets, so a soak's memory grows with its
media, not with its telemetry.
"""

from __future__ import annotations

import asyncio
import signal
from dataclasses import dataclass, fields
from typing import Callable, List, Optional, Sequence, Tuple

from repro.live.session import (LiveConfig, LiveSession, build_live_session,
                                live_spec)
from repro.live.stats import serving_stats
from repro.net.trace import BandwidthTrace
from repro.obs.dash import (FLEET_FIELDS, SESSION_GAUGES, STATUSES,
                            fleet_fields)
from repro.obs.export import prometheus_rollup
from repro.obs.fleet import LiveFleetLog
from repro.obs.quantiles import percentiles
from repro.obs.registry import MetricRegistry
from repro.obs.resources import process_rss_bytes
from repro.obs.slo import (SloRule, SloWatchdog, fleet_slo_rules,
                           format_slo_event)
from repro.observe import harvest, write_series_shards
from repro.rtc.session import SessionConfig

#: `repro load --soak` media duration when none is given explicitly:
#: long enough that the run is ended by SIGINT, not the timer.
DEFAULT_SOAK_DURATION_S = 3600.0

#: The fleet shard's gauges, set by each sample, and their HELP text.
FLEET_GAUGES = {
    "live.sessions_pending": "Sessions waiting in the ramp",
    "live.sessions_running": "Sessions currently running",
    "live.sessions_skipped": "Sessions drained away before they started",
    "live.pacing_p50_s": "Fleet-wide p50 of recent per-packet pacing delays",
    "live.pacing_p99_s": "Fleet-wide p99 of recent per-packet pacing delays",
    "live.rss_bytes": "Resident set size of the supervisor process",
    "live.cpu_total_s": "CPU seconds attributed across all session clocks",
}


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
class LoadConfig(SessionConfig):
    """One load-generator run (``repro load``): the
    :class:`~repro.rtc.session.SessionConfig` every session runs (session
    ``i`` with seed ``seed + i``), plus the fleet's own knobs."""

    #: wall-clock media seconds per session (measured from its join).
    duration: float = 5.0
    sessions: int = 4
    #: baselines assigned round-robin across sessions.
    mix: Sequence[str] = ("ace",)
    #: seconds over which session joins are staggered (0 = all at once).
    ramp: float = 0.0
    drain: float = 0.5
    #: emulated bottleneck rate when no trace factory is supplied.
    bottleneck_mbps: float = 20.0
    shaped: bool = True
    stats_port: Optional[int] = None
    heartbeat_interval: float = 1.0
    # Fleet-scoped options in repro.observe.Observe's shapes; a session's
    # own options travel on its LiveConfig (build_load_specs).
    #: per-session series; shards land in ``<run_dir>/series/<label>.json``.
    series: bool = False
    #: fleet watchdog's pacing-p99 bound (seconds; ``None`` = off), over
    #: the fleet registry every heartbeat, published as an ``slo`` shard.
    slo_p99_s: Optional[float] = None
    #: ``(at_s, duration_s)`` pacing-stall drill in the first session.
    stall: Optional[tuple[float, float]] = None


def build_load_specs(config: LoadConfig,
                     trace_factory: Optional[
                         Callable[[int], Optional[BandwidthTrace]]] = None,
                     ) -> List[SessionSpec]:
    """Expand a :class:`LoadConfig` into per-session specs.

    Each session runs the config's every ``SessionConfig`` field, with a
    distinct seed (``seed + i``) and — unless a ``trace_factory``
    supplies them — a private constant-rate trace. Private traces
    matter: :class:`BandwidthTrace` keeps a monotonic lookup cursor, and
    interleaved queries from many sessions on one shared shaped trace
    would thrash it. A run a live session cannot carry (audio, cross
    traffic), or a mix naming an unknown or FEC baseline, raises
    ``ValueError`` here, before any session binds a socket.
    """
    mix = list(config.mix) or ["ace"]
    for name in dict.fromkeys(mix):     # each name once, in mix order
        live_spec(name)
    run = {f.name: getattr(config, f.name) for f in fields(SessionConfig)}
    specs: List[SessionSpec] = []
    for i in range(config.sessions):
        baseline = mix[i % len(mix)]
        live = LiveConfig(
            **{**run, "seed": config.seed + i}, drain=config.drain,
            shaped=config.shaped, keep_telemetry_events=False,
            telemetry=True, series=config.series,
            stall=config.stall if i == 0 else None)
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


def session_row(rec: SessionRecord) -> dict:
    """One session's heartbeat entry: status and error, then — once its
    stack exists — frames started, the burst analyzer's windowed pacing
    p50/p99 over fresh media (the paper's pacing term; with telemetry
    only), CPU seconds in its clock's wakes and its wire faults (socket
    errors plus malformed datagrams, both endpoints)."""
    row: dict = {"status": rec.status}
    if rec.error is not None:
        row["error"] = rec.error
    session = rec.session
    if session is not None and session.sender is not None:
        row["frames"] = len(session.sender.frame_metrics)
        telemetry = session.telemetry
        if telemetry is not None:
            for key, value in zip(("pacing_p50_ms", "pacing_p99_ms"),
                                  telemetry.burst.pacing_percentiles()):
                if value is not None:
                    row[key] = round(value * 1e3, 3)
        row["cpu_s"] = round(session.cpu_s, 4)
        row["wire_faults"] = session.wire_faults
    return row


def _publish(shard: MetricRegistry, row: dict) -> None:
    """A session row as push gauges in the session's own shard
    (``record=False``: nothing lands in its record store)."""
    status = shard.gauge("live.status", record=False,
                         help="1, labelled with the session's status")
    status.labels = {"status": row["status"]}
    status.set(1.0)
    for key, help_text in SESSION_GAUGES.items():
        if key in row:
            shard.gauge(f"live.{key}", help=help_text,
                        record=False).set(row[key])


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
        for name, help_text in FLEET_GAUGES.items():
            self.fleet.gauge(name, help=help_text)
        self._c_completed = self.fleet.counter(
            "live.sessions_completed", help="Sessions finished cleanly")
        self._c_failed = self.fleet.counter(
            "live.sessions_failed",
            help="Sessions that crashed (isolated; fleet kept running)")
        #: fleet SLO watchdog over the supervisor shard; evaluated on
        #: every heartbeat (after its sample), alerts streamed into
        #: the fleet log and published as the ``slo`` rollup shard.
        self.watchdog: Optional[SloWatchdog] = None
        if slo_rules is not None:
            self.watchdog = SloWatchdog(
                slo_rules, source=self.fleet, on_alert=self._on_slo_alert)

    def _on_slo_alert(self, event: dict) -> None:
        self.log.append({**event, "elapsed_s": round(self.log.elapsed_s, 6)})
        self.log.say(format_slo_event(event))

    async def run(self) -> List[SessionRecord]:
        """Drive the whole fleet to completion; never raises for a
        member session's failure."""
        aloop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        if self._stopping:
            self._stop_event.set()
        async with serving_stats(self.stats_port,
                                 self.rollup) as self.stats_addr:
            if self.stats_addr is not None:
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
                if exit_reason == "completed" and self._stopping:
                    exit_reason = "sigint-drain"
                beat = self.heartbeat()  # terminal statuses land in the log
                if self.log.run_dir is not None:
                    try:
                        write_series_shards(
                            self.log.run_dir,
                            [rec.spec.label for rec in self.records],
                            [rec.metrics for rec in self.records])
                    except Exception:
                        pass  # shards are best-effort; the summary must land
                # Finalize inside the teardown path so even a supervisor
                # crash leaves a summary.json naming its exit reason.
                self.summary = self.log.finalize(
                    self._summary(beat, exit_reason))
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
            # The factory is synchronous: no stop can land before run().
            session = rec.session = self._factory(rec.spec)
            rec.status = "running"
            rec.metrics = harvest(session, await session.run(),
                                  label=rec.spec.label,
                                  baseline=rec.spec.baseline)
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

    # ------------------------------------------------------------------
    # the fleet record: one sample, read by the rollup, the heartbeat
    # and the summary
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
        """One Prometheus snapshot of a fresh sample across the fleet
        (scrape handler)."""
        self.sample()
        return prometheus_rollup(self.shards())

    #: per-session tail of the pacing window folded into fleet
    #: percentiles (bounds heartbeat cost at large fleets).
    FLEET_PACING_WINDOW = 512

    def sample(self) -> dict:
        """One fleet moment, computed once: every :func:`session_row`
        and the fleet row (status counts, one pooled pacing pass over
        each session's window tail, CPU, RSS), published as ``live.*``
        push gauges — a session's into its own shard, never on its
        telemetry tick — and returned as the heartbeat's body."""
        counts = dict.fromkeys(STATUSES, 0)
        sessions = {}
        pooled: List[float] = []
        cpu_total = 0.0
        for rec in self.records:
            counts[rec.status] += 1
            row = sessions[rec.spec.label] = session_row(rec)
            session = rec.session
            if session is None:
                continue
            cpu_total += session.cpu_s
            telemetry = session.telemetry
            if telemetry is not None:
                _publish(telemetry.registry, row)
                pooled += telemetry.burst.recent_pacing()[
                    -self.FLEET_PACING_WINDOW:].tolist()
        p50, p99 = percentiles(pooled, (50.0, 99.0))
        fleet = {f"sessions_{s}": counts[s]
                 for s in ("pending", "running", "skipped")}
        fleet.update(pacing_p50_s=p50, pacing_p99_s=p99,
                     rss_bytes=process_rss_bytes(), cpu_total_s=cpu_total)
        gauges = self.fleet.gauges
        for name, value in fleet.items():
            if value is not None:
                gauges[f"live.{name}"].set(float(value))
        return {**counts, "sessions": sessions,
                **fleet_fields(lambda name: gauges[f"live.{name}"].value)}

    async def _heartbeat_loop(self) -> None:
        interval = self.heartbeat_interval
        while interval is not None and interval > 0:
            await asyncio.sleep(interval)
            self.heartbeat()

    def heartbeat(self) -> dict:
        """Log one :meth:`sample` as a heartbeat, after evaluating the
        SLO watchdog against the fleet gauges it just set."""
        record = self.sample()
        if self.watchdog is not None:
            self.watchdog.evaluate(self.log.elapsed_s)
            firing = self.watchdog.firing
            if firing:
                record["slo_firing"] = firing
        p99 = record["pacing_p99_ms"]
        p99_txt = "-" if p99 is None else f"{p99:.1f} ms"
        skipped = f", {record['skipped']} skipped" if record["skipped"] else ""
        line = (f"live fleet: {record['running']} running, "
                f"{record['completed']} completed, {record['failed']} failed"
                f"{skipped}; p99 pacing {p99_txt}"
                f" at t={self.log.elapsed_s:.1f}s")
        out = self.log.heartbeat(record, line)
        if self.heartbeat_hook is not None:
            try:
                self.heartbeat_hook(out)
            except Exception:
                pass
        return out

    def _summary(self, beat: dict, exit_reason: str) -> dict:
        """The final heartbeat's rows plus what only the end knows."""
        counts = {s: beat[s] for s in ("completed", "failed", "skipped")}
        counts.update((s, beat[s]) for s in ("pending", "running") if beat[s])
        rows = []
        for rec in self.records:
            row = {"label": rec.spec.label, "baseline": rec.spec.baseline,
                   "status": rec.status, "error": None,
                   "pacing_p50_ms": None, "pacing_p99_ms": None,
                   **beat["sessions"][rec.spec.label]}
            # The session's final frame count replaces the live one.
            row.pop("frames", None)
            if rec.metrics is not None:
                row["frames"] = len(rec.metrics.frames)
                row["p95_latency_ms"] = round(
                    rec.metrics.p95_latency() * 1e3, 3)
            rows.append(row)
        summary = {"sessions": len(self.records), **counts,
                   "exit_reason": exit_reason,
                   "statuses": {rec.spec.label: rec.status
                                for rec in self.records},
                   **{key: beat[key] for key in FLEET_FIELDS},
                   "stats_addr": (list(self.stats_addr)
                                  if self.stats_addr else None),
                   "per_session": rows}
        if self.watchdog is not None:
            slo = self.watchdog.summary()
            summary["slo"] = {k: slo[k]
                              for k in ("alerts", "firing", "events")}
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
    slo_rules = (None if config.slo_p99_s is None
                 else fleet_slo_rules(pacing_p99_s=config.slo_p99_s))
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

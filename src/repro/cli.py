"""Command-line interface: run sessions and sweeps without code.

Usage (installed as ``python -m repro``):

    python -m repro list                      # baselines & trace classes
    python -m repro run --baseline ace --trace wifi --duration 20
    python -m repro grid --baselines ace,webrtc-star,cbr --traces wifi
    python -m repro sweep-rtt --baseline ace --rtts 10,20,40,80

Three things exist once here. A flag that more than one command takes
is declared in :data:`FLAGS` and a command names the groups it acts on,
so a flag means the same thing wherever it exists and a command that
would ignore one does not define it. Every simulated cell is a
:class:`~repro.bench.parallel.GridTask` from :func:`make_task`. And
every set of cells runs on :func:`~repro.bench.parallel.run_cells`
(:func:`run_tasks`); only commands that read the session object
afterwards run their one cell in-process (:func:`run_session`).
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import asdict, replace
from itertools import product
from typing import Optional, Sequence

from repro.bench.parallel import (
    GridTask,
    build_overrides,
    cell_keys,
    open_task,
    run_cells,
    run_opened,
    series_shard_name,
)
from repro.bench.tables import fmt_ms, fmt_pct, print_table
from repro.net.aqm import DEFAULT_DISCIPLINE, list_disciplines
from repro.net.trace import TRACE_CLASSES, BandwidthTrace, trace_by_kind
from repro.observe import Observe, harvest, write_series_shards
from repro.rtc.baselines import list_baselines, resolve_spec
from repro.rtc.session import SessionConfig
from repro.sim import ENGINE_NAMES
from repro.sim.rng import RngStream
from repro.video.source import CONTENT_CATEGORIES

def make_trace(kind: str, seed: int, duration: float) -> BandwidthTrace:
    """:func:`~repro.net.trace.trace_by_kind` on the CLI's stream
    ``cli.<kind>``; a bad kind exits with its one-line message."""
    try:
        return trace_by_kind(kind, RngStream(seed, f"cli.{kind}"), duration)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def session_config(args: argparse.Namespace, seed: Optional[int] = None,
                   rtt_ms: Optional[float] = None,
                   duration: Optional[float] = None) -> SessionConfig:
    """The :class:`SessionConfig` the workload and path flags describe —
    every command's, ``live``'s and ``load``'s included.

    ``seed``/``rtt_ms`` pin a sweep coordinate, ``duration`` a value the
    command resolved itself. A command without a path flag (``grid`` has
    no ``--rtt``: its cell key has no RTT coordinate) runs at the flag's
    default. A value no run can honour exits with the one line naming
    its field.
    """
    def flag(name: str):
        return getattr(args, name, FLAGS[f"--{name}"]["default"])
    try:
        return SessionConfig(
            duration=args.duration if duration is None else duration,
            seed=args.seed if seed is None else seed, fps=args.fps,
            base_rtt=(flag("rtt") if rtt_ms is None else rtt_ms) / 1000.0,
            initial_bwe_bps=args.initial_bwe * 1e6,
            random_loss_rate=flag("loss"), queue_capacity_bytes=flag("queue"))
    except ValueError as exc:
        raise SystemExit(f"repro {args.command}: {exc}") from None


def make_task(baseline: str, args: argparse.Namespace,
              trace: Optional[BandwidthTrace] = None,
              seed: Optional[int] = None, rtt_ms: Optional[float] = None,
              **observe) -> GridTask:
    """One grid cell from CLI arguments.

    Every single-flow command builds its cells through this, so the
    common flags (``--engine``, ``--discipline``, ``--cc``, ``--codec``)
    mean the same thing everywhere and equal cells share one result-
    cache entry whichever command ran them first
    (:func:`~repro.bench.parallel.build_overrides`). ``observe`` sets
    the cell's :class:`~repro.observe.Observe` options.
    """
    config = session_config(args, seed, rtt_ms)
    try:
        resolve_spec(baseline, args.cc, args.codec)
    except ValueError as exc:
        raise SystemExit(f"repro {args.command}: {exc}") from None
    if trace is None:
        trace = make_trace(args.trace, args.seed, args.duration + 10)
    return GridTask(baseline=baseline, trace=trace, category=args.category,
                    config=config,
                    build_kwargs=build_overrides(
                        args.engine, args.discipline,
                        cc_override=args.cc, codec_override=args.codec),
                    **observe)


def run_session(task: GridTask):
    """Open, run and harvest one cell in-process — for commands that
    read the session object afterwards. Returns ``(session, metrics)``;
    an auditor collects violations into its verdict instead of raising.
    """
    session = open_task(task, strict_audit=False)
    metrics = run_opened(task, session)
    warn_fallback([metrics])
    return session, metrics


def warn_fallback(results) -> None:
    """One stderr line when requested batch runs used the reference loop.

    ``results`` are the metrics of one run or of every grid cell; the
    session records the reason on them (``fallback_reason``).
    """
    reasons = Counter(getattr(m, "fallback_reason", None) for m in results)
    del reasons[None]
    if reasons:
        detail = "; ".join(f"{reason} ({n})" if len(results) > 1 else reason
                           for reason, n in sorted(reasons.items()))
        print(f"engine: {sum(reasons.values())} of {len(results)} batch "
              f"run(s) fell back to the reference loop: {detail}",
              file=sys.stderr)


def run_tasks(args: argparse.Namespace, tasks: list, **fleet) -> list:
    """Run cells on the one executor with the ``--jobs``/``--cache``
    flags, announcing batch fallbacks. ``fleet`` is the run-directory
    half of :func:`run_cells`; without it the cache-counter line prints
    when there is a cache to count."""
    fleet.setdefault("verbose", args.cache)
    results = run_cells(tasks, jobs=args.jobs, use_cache=args.cache, **fleet)
    warn_fallback(results)
    return results


def metrics_row(name: str, m) -> list[str]:
    return [
        name,
        fmt_ms(m.p95_latency()),
        fmt_ms(m.latency_percentile(50)),
        f"{m.mean_vmaf():.1f}",
        fmt_pct(m.loss_rate()),
        fmt_pct(m.stall_rate()),
        f"{m.received_fps():.1f}",
    ]


HEADERS = ["baseline", "p95 ms", "p50 ms", "VMAF", "loss", "stall", "fps"]


def print_session(title: str, baseline: str, metrics) -> None:
    """The one-row metrics table plus the mean latency breakdown."""
    print_table(title, HEADERS, [metrics_row(baseline, metrics)])
    print_table("mean latency breakdown", ["component", "ms"],
                [[k, fmt_ms(v)]
                 for k, v in metrics.latency_breakdown().items()])


def export_telemetry(telemetry, out_dir: str) -> None:
    """Write the JSONL event log + Prometheus snapshot into ``out_dir``."""
    from repro.obs import write_export_dir
    jsonl, snapshot = write_export_dir(telemetry, out_dir)
    print(f"telemetry: {len(telemetry.events)} records -> {jsonl}, "
          f"snapshot -> {snapshot}")


def cmd_list(args: argparse.Namespace) -> int:
    print("baselines:")
    for name in list_baselines():
        print(f"  {name}")
    print("\ntrace classes:", ", ".join(sorted(TRACE_CLASSES)),
          "+ const:<mbps>, weak:<canteen|coffee_shop|airport>")
    print("content categories:", ", ".join(CONTENT_CATEGORIES))
    return 0


def observe_options(args: argparse.Namespace) -> Observe:
    """The one :class:`~repro.observe.Observe` value the observer flags
    describe (a command without a flag leaves its option off)."""
    stall = spec = args.inject_stall
    if spec is not None:            # AT[:DUR], DUR defaulting to 1 s
        at_txt, colon, dur_txt = spec.partition(":")
        try:
            stall = float(at_txt), float(dur_txt) if colon else 1.0
        except ValueError:
            raise SystemExit(
                f"--inject-stall wants AT or AT:DUR seconds, got {spec!r}")
    return Observe(
        telemetry=bool(getattr(args, "telemetry_out", None)),
        audit=getattr(args, "check", False),
        series=bool(getattr(args, "series", False)
                    or getattr(args, "series_out", None)),
        slo_p99_s=args.slo_p99_ms / 1000.0 if args.slo else None,
        stall=stall)


def _print_slo_summary(summary: dict) -> None:
    from repro.obs.slo import format_slo_event
    for event in summary.get("events", ()):
        print(format_slo_event(event))
    firing = summary.get("firing") or []
    print(f"slo: {summary.get('alerts', 0)} alert(s), "
          f"firing: {', '.join(firing) if firing else '-'}")


def report_observed(metrics) -> int:
    """Print what a run's observers found — the SLO summary, the audit
    verdict — and return the exit status (1 on a violation)."""
    if getattr(metrics, "slo_alerts", None) is not None:
        _print_slo_summary(metrics.slo_alerts)
    audit = getattr(metrics, "audit", None)
    if audit is None:
        return 0
    print(audit["report"])
    return 1 if audit["violations"] else 0


def cmd_run(args: argparse.Namespace) -> int:
    """``repro run``: one grid cell, through the ``--jobs``/``--cache``
    runner — or, with an observer flag, instrumented as a grid would
    instrument it but in-process (the telemetry export reads the
    session object; a cache hit would observe nothing)."""
    task = make_task(args.baseline, args, **asdict(observe_options(args)))
    if task.instrumented:
        session, metrics = run_session(task)
    else:
        [metrics] = run_tasks(args, [task])
    suffix = ", audited" if task.audit else ""
    print_session(f"{args.baseline} over {args.trace} "
                  f"({args.duration:.0f}s, {args.category}{suffix})",
                  args.baseline, metrics)
    if args.telemetry_out:
        export_telemetry(session.telemetry, args.telemetry_out)
    if args.series_out:
        # Standalone shards are named after the --trace flag, not the
        # trace object's name (e.g. "wifi-1" for --trace wifi).
        frame = metrics.series_frame
        frame.meta["trace"] = args.trace
        for path in write_series_shards(
                args.series_out,
                [series_shard_name((args.baseline, args.trace, args.seed,
                                    args.category))], [metrics]):
            print(f"series: {len(frame.t)} samples x {len(frame.series)} "
                  f"series -> {path}")
    return report_observed(metrics)


def print_flight_dump(dump: Optional[str]) -> None:
    if dump:
        print("flight recorder (last records before the first violation):")
        print(dump)


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.audit.fuzz import case_from_seed, fuzz, run_case

    if args.replay is not None:
        seed_s, _, index_s = args.replay.partition(":")
        case = case_from_seed(int(seed_s), int(index_s or "0"))
        print(case.describe())
        violations, events = run_case(case)
        print(f"{events} events checked, {len(violations)} violation(s)")
        for v in violations:
            print(f"  {v}")
        print_flight_dump(next(
            (v.flight_dump for v in violations if v.flight_dump), None))
        return 1 if violations else 0

    def progress(case, violations) -> None:
        status = "FAIL" if violations else "ok"
        print(f"{status:>4}  {case.describe()}")

    result = fuzz(args.cases, root_seed=args.seed, start_index=args.start,
                  do_shrink=not args.no_shrink, on_progress=progress)
    print(f"\n{result.cases_run} cases, {result.events_checked} events "
          f"checked, {len(result.failures)} failing")
    for failure in result.failures:
        print(f"\nfailing case {failure.case.describe()}")
        for v in failure.violations[:10]:
            print(f"  {v}")
        print(f"shrunk to {failure.shrunk.describe()}")
        print_flight_dump(failure.flight_dump)
        print(f"replay: python -m repro fuzz --replay {failure.case.label}")
    return 0 if result.ok else 1


def cmd_sweep_rtt(args: argparse.Namespace) -> int:
    rtts = [float(x) for x in args.rtts.split(",")]
    trace = make_trace(args.trace, args.seed, args.duration + 10)
    # One trace, one cell key: an RTT is not a grid coordinate, so these
    # cells go to the runner without a run directory.
    results = run_tasks(args, [make_task(args.baseline, args, trace=trace,
                                         rtt_ms=rtt_ms) for rtt_ms in rtts])
    rows = [[f"{rtt_ms:g}"] + metrics_row(args.baseline, metrics)[1:]
            for rtt_ms, metrics in zip(rtts, results)]
    print_table(f"{args.baseline}: RTT sweep over {args.trace}",
                ["RTT ms"] + HEADERS[1:], rows)
    return 0


def cmd_live(args: argparse.Namespace) -> int:
    import asyncio

    from repro.live.session import LiveConfig, build_live_session

    config = LiveConfig(**asdict(session_config(args)),
                        shaped=not args.unshaped, stats_port=args.stats_port,
                        **asdict(observe_options(args)))
    trace = make_trace(args.trace, args.seed, args.duration + 10)
    try:
        session = build_live_session(args.baseline, config, trace=trace,
                                     category=args.category)
    except ValueError as exc:           # an unknown or FEC baseline
        raise SystemExit(f"repro live: {exc}") from None
    print(f"live: {args.baseline} over UDP loopback, "
          f"{args.duration:.0f}s wall-clock "
          f"({'unshaped' if args.unshaped else args.trace}, "
          f"rtt {args.rtt:g} ms, loss {args.loss:.1%})...")
    if args.stats_port is not None:
        port = args.stats_port if args.stats_port else "<ephemeral>"
        print(f"stats: serving Prometheus snapshot on "
              f"http://127.0.0.1:{port}/ while the session runs")
    metrics = harvest(session, asyncio.run(session.run()))
    if args.telemetry_out:
        export_telemetry(session.telemetry, args.telemetry_out)
    print_session(f"{args.baseline} live ({args.duration:.0f}s, "
                  f"{args.category})", args.baseline, metrics)
    path = session.path
    print(f"impairment: {path.link.stats.delivered_packets} datagrams "
          f"delivered, {path.lost_packets} dropped; "
          f"{metrics.packets_retransmitted} retransmissions")
    return report_observed(metrics)


def _dash_writer():
    """A fleet dashboard that renders each record it is given to stdout,
    for ``load --dash`` and ``watch``: on a TTY every frame repaints in
    place (clear + color); piped output gets plain stacked frames, so CI
    logs stay readable and the command still exits 0."""
    from repro.obs.dash import FleetDashboard
    tty = sys.stdout.isatty()
    dash = FleetDashboard(color=tty, clear=tty)

    def show(record: dict) -> None:
        frame = dash.update(record)
        sys.stdout.write(frame if tty else frame + "\n")
        sys.stdout.flush()
    return show


def cmd_load(args: argparse.Namespace) -> int:
    """``repro load``: N concurrent live sessions on one event loop.

    The load generator around :class:`repro.live.server.SessionSupervisor`:
    a mixed-baseline fleet over UDP loopback with staggered joins,
    per-session failure isolation, fleet heartbeats, and one rolled-up
    Prometheus snapshot on ``--stats-port``. ``--soak`` stretches the
    default duration to an hour — end it early with Ctrl-C for a
    graceful fleet-wide drain.
    """
    from pathlib import Path

    from repro.live.autoscale import ROUND_DURATION_S
    from repro.live.server import (
        DEFAULT_SOAK_DURATION_S,
        LoadConfig,
        build_load_specs,
        run_load,
    )

    mix = [b.strip() for b in args.mix.split(",") if b.strip()]
    if not mix:
        raise SystemExit("--mix needs at least one baseline name")
    if args.autoscale:
        refused = [flag for flag, given in (
            ("--run-dir", args.run_dir is not None),
            ("--series", args.series),
            ("--snapshot-out", args.snapshot_out is not None),
            ("--dash", args.dash),
            ("--stats-port", args.stats_port is not None),
            ("--inject-stall", args.inject_stall is not None)) if given]
        if refused:
            raise SystemExit(f"--autoscale cannot honour {', '.join(refused)}"
                             ": each probe round is a fresh, unobserved "
                             "fleet")
    duration = args.duration
    if duration is None:
        duration = (ROUND_DURATION_S if args.autoscale
                    else DEFAULT_SOAK_DURATION_S if args.soak else 5.0)
    observe = observe_options(args)
    config = LoadConfig(
        **asdict(session_config(args, duration=duration)),
        sessions=args.sessions, mix=tuple(mix), ramp=args.ramp,
        drain=args.drain, shaped=not args.unshaped,
        stats_port=args.stats_port, heartbeat_interval=args.heartbeat,
        series=observe.series, slo_p99_s=observe.slo_p99_s,
        stall=observe.stall)
    try:    # the whole mix and one session's path, before any bind
        build_load_specs(replace(config, sessions=1))
    except ValueError as exc:
        raise SystemExit(f"repro load: {exc}") from None
    trace_factory = None
    if args.trace is not None:
        def trace_factory(i, _kind=args.trace, _seed=args.seed,
                          _dur=duration + args.drain):
            # Traces keep a monotonic cursor: one private instance per
            # session (seed-shifted so stochastic traces decorrelate).
            return make_trace(_kind, _seed + i, _dur + 10)
    if args.autoscale:   # --slo-p99-ms bounds the probe, --slo or not
        return _cmd_load_autoscale(
            args, replace(config, slo_p99_s=args.slo_p99_ms / 1e3),
            trace_factory)
    print(f"load: {args.sessions} sessions over UDP loopback "
          f"({','.join(mix)} round-robin), ramp {args.ramp:g}s, "
          f"{duration:g}s media each"
          + (" [soak: Ctrl-C drains the fleet]" if args.soak else ""))
    echo, heartbeat_hook = print, None
    if args.dash:  # fed every heartbeat record; replaces the echo lines
        echo, heartbeat_hook = None, _dash_writer()
    supervisor = run_load(config, trace_factory=trace_factory,
                          run_dir=args.run_dir, echo=echo,
                          heartbeat_hook=heartbeat_hook)
    if supervisor.stats_addr is not None:
        host, port = supervisor.stats_addr
        print(f"stats: served fleet rollup on http://{host}:{port}/")
    if args.snapshot_out:
        from repro.obs import atomic_write_text
        out = Path(args.snapshot_out)
        atomic_write_text(out, supervisor.rollup())
        print(f"snapshot -> {out}")
    if args.series and args.run_dir is not None:
        series_dir = Path(args.run_dir) / "series"
        shards = sorted(series_dir.glob("*.json")) if series_dir.is_dir() \
            else []
        print(f"series: {len(shards)} shard(s) -> {series_dir} "
              f"(render with `repro plot {args.run_dir}`)")
    summary = supervisor.summary
    rows = []
    for row in summary["per_session"]:
        rows.append([
            row["label"], row["status"],
            "-" if row.get("frames") is None else str(row["frames"]),
            ("-" if row.get("p95_latency_ms") is None
             else f"{row['p95_latency_ms']:.1f}"),
            ("-" if row["pacing_p50_ms"] is None
             else f"{row['pacing_p50_ms']:.2f}"),
            ("-" if row["pacing_p99_ms"] is None
             else f"{row['pacing_p99_ms']:.2f}"),
            row["error"] or "",
        ])
    print_table(
        f"load: {summary['completed']} completed, "
        f"{summary['failed']} failed, {summary['skipped']} skipped "
        f"({summary['heartbeats']} heartbeats, {summary['wall_s']:.1f}s wall)",
        ["session", "status", "frames", "p95 ms", "pace p50 ms",
         "pace p99 ms", "error"],
        rows)
    p99 = summary["pacing_p99_ms"]
    print("fleet pacing p99: "
          + ("-" if p99 is None else f"{p99:.2f} ms"))
    cpu = summary.get("cpu_total_s")
    rss = summary.get("rss_mb")
    print("fleet resources: cpu "
          + ("-" if cpu is None else f"{cpu:.2f} s")
          + ", rss " + ("-" if rss is None else f"{rss:.1f} MB")
          + f", exit {summary.get('exit_reason', 'completed')}")
    if "slo" in summary:
        _print_slo_summary(summary["slo"])
    return 1 if summary["failed"] else 0


def _cmd_load_autoscale(args: argparse.Namespace, template,
                        trace_factory) -> int:
    """``repro load --autoscale``: probe the sessions/core ceiling of the
    fleet ``load`` would run, in rounds of growing size."""
    from repro.live.autoscale import run_autoscale

    print(f"autoscale: probing sessions/core ceiling "
          f"({','.join(template.mix)} mix, p99 limit "
          f"{args.slo_p99_ms:g} ms, {template.duration:g}s rounds, "
          f"cap {args.autoscale_max})")
    result = run_autoscale(template, start=args.autoscale_start,
                           max_sessions=args.autoscale_max,
                           trace_factory=trace_factory, echo=print,
                           artifact_path=args.autoscale_out)
    state = ("converged" if result["converged"]
             else "at cap" if result["at_cap"] else "not converged")
    print(f"autoscale ceiling: {result['ceiling_sessions']} sessions "
          f"({result['sessions_per_core']:.2f}/core over "
          f"{result['cores']} cores, {state})")
    if "artifact" in result:
        print(f"artifact -> {result['artifact']}")
    return 0 if result["ceiling_sessions"] > 0 else 1


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace``: replay a session with telemetry, print timelines.

    Selectors, most specific wins: ``--metric`` prints one registry
    metric's time series; ``--kind/--name/--since/--until`` print the
    filtered record log; otherwise the span timeline of ``--frame`` (or
    the worst end-to-end frame) is shown.
    """
    from repro.obs import filter_records, render_record, render_span_timeline

    task = make_task(args.baseline, args, telemetry=True)
    session = open_task(task)
    telemetry = session.telemetry
    profiler = None
    if args.profile:
        from repro.obs import LoopProfiler
        profiler = session.loop.set_profiler(LoopProfiler())
    warn_fallback([run_opened(task, session)])
    print(f"{args.baseline} over {args.trace} ({args.duration:.0f}s): "
          f"{len(telemetry.events)} telemetry records, "
          f"{len(telemetry.spans)} frame spans")

    status = 0
    has_filter = (args.kind is not None or args.name is not None
                  or args.since is not None or args.until is not None)
    if args.metric is not None:
        series = telemetry.metric_series(args.metric)
        if not series:
            print(f"no samples for metric {args.metric!r}; registered: "
                  + ", ".join(sorted(telemetry.registry.names())))
            status = 1
        shown = series[-args.limit:] if args.limit else series
        if len(series) > len(shown):
            print(f"... ({len(series) - len(shown)} earlier samples)")
        for t, value in shown:
            print(f"{t:12.6f}  {args.metric} = {value:g}")
    elif has_filter and not args.worst:
        records = filter_records(telemetry.events, kind=args.kind,
                                 name=args.name, frame_id=args.frame,
                                 since=args.since, until=args.until)
        shown = records[-args.limit:] if args.limit else records
        if len(records) > len(shown):
            print(f"... ({len(records) - len(shown)} earlier records)")
        for record in shown:
            print(render_record(record))
    else:
        span = (telemetry.spans.get(args.frame) if args.frame is not None
                else telemetry.spans.worst_e2e())
        if span is None:
            which = (f"frame {args.frame}" if args.frame is not None
                     else "any completed frame")
            print(f"no span recorded for {which}")
            status = 1
        else:
            if args.frame is None:
                print("worst end-to-end frame:")
            print(render_span_timeline(span))
    if args.attrib:
        from repro.obs import attribute_session, render_rollup
        print()
        print(render_rollup(attribute_session(session)))
    if profiler is not None:
        print()
        print(profiler.render())
    if args.out:
        export_telemetry(telemetry, args.out)
    return status


def cmd_why(args: argparse.Namespace) -> int:
    """``repro why``: causal blame for pacer-residence latency.

    Runs one session, then prints which ACE-N decisions (Algorithm 1
    branches) each slow frame's pacer residence is attributable to —
    ``--frame N`` for one frame, otherwise the worst ``--frames K``
    frames — plus the session-level rollup.
    """
    from repro.obs import attribute_session, render_frame_blame, render_rollup

    session, _ = run_session(make_task(args.baseline, args))
    attribution = attribute_session(session)
    if len(attribution) == 0:
        print("no frames completed the pacer; nothing to attribute")
        return 1
    print(f"{args.baseline} over {args.trace} ({args.duration:.0f}s, "
          f"{args.category}): {len(attribution)} frames attributed")
    print()
    if args.frame is not None:
        blame = attribution.get(args.frame)
        if blame is None:
            print(f"frame {args.frame} has no pacer stamps "
                  "(never fully left the pacer, or id out of range)")
            return 1
        print(render_frame_blame(blame))
    else:
        for blame in attribution.worst(args.frames):
            print(render_frame_blame(blame))
            print()
    print(render_rollup(attribution))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """``repro report``: roll a grid run directory into tables.

    With ``--diff OTHER`` also compares aggregate means against another
    run directory and exits 1 when any metric regressed beyond
    ``--tolerance``.
    """
    from repro.obs import diff_runs, report_run

    print(report_run(args.run_dir))
    if args.diff is not None:
        text, regressions = diff_runs(args.run_dir, args.diff,
                                      tolerance=args.tolerance)
        print()
        print(text)
        return 1 if regressions else 0
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    """``repro plot``: render recorded series into paper-style figures.

    Accepts a run directory (from ``grid --series --run-dir`` /
    ``load --series --run-dir`` / ``run --series-out``), a ``series/``
    directory, or one shard file, and writes a self-contained HTML
    report (inline SVG, no external assets). Rendering is deterministic:
    the same shards always produce byte-identical output.
    """
    from repro.analysis.figures import discover_shards, render_run

    pairs = discover_shards(args.target)
    if not pairs:
        raise SystemExit(
            f"no series shards under {args.target!r}; record some with "
            "`repro run --series-out`, `repro grid --series --run-dir`, "
            "or `repro load --series --run-dir`")
    out = render_run(args.target, args.out, pixel_width=args.width)
    print(f"plot: {len(pairs)} shard(s) -> {out}")
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    """``repro watch``: live dashboard over a Prometheus stats endpoint.

    Polls the rollup served by ``repro load --stats-port``, reads the
    fleet record back from its ``live.*`` gauges and renders it the way
    ``load --dash`` renders a heartbeat — sparkline history per session,
    SLO highlighting. ``--frames N`` stops after N polls.
    """
    import time
    from urllib.error import URLError
    from urllib.request import urlopen

    from repro.obs.dash import record_from_prometheus

    if args.url is not None:
        url = args.url
    elif args.stats_port is not None:
        url = f"http://127.0.0.1:{args.stats_port}/"
    else:
        raise SystemExit("repro watch needs --url or --stats-port "
                         "(point it at `repro load --stats-port`)")
    show = _dash_writer()
    polled = 0
    failures = 0
    try:
        while args.frames <= 0 or polled < args.frames:
            if polled:
                time.sleep(args.interval)
            try:
                with urlopen(url, timeout=args.interval + 2.0) as resp:
                    text = resp.read().decode("utf-8", "replace")
            except (URLError, OSError, ValueError) as exc:
                failures += 1
                print(f"watch: {url} unreachable ({exc})")
                if failures >= 3:
                    return 1
                polled += 1
                continue
            failures = 0
            show(record_from_prometheus(text))
            polled += 1
    except KeyboardInterrupt:
        pass
    if sys.stdout.isatty():
        sys.stdout.write("\n")
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    """``repro timeline``: per-frame lifecycle CSV, with blame columns.

    Runs one session and flattens every captured frame into CSV rows of
    lifecycle timestamps and derived latencies. By default the rows also
    carry the pacer-blame breakdown (``blame_*`` columns — which
    Algorithm 1 branch owned each frame's pacer residence, seconds per
    category); ``--no-blame`` drops them. ``--out`` writes atomically,
    otherwise the CSV streams to stdout.
    """
    from repro.analysis.timeline import to_csv
    from repro.obs import attribute_session

    session, metrics = run_session(make_task(args.baseline, args))
    attribution = attribute_session(session) if args.blame else None
    text = to_csv(metrics, args.out, attribution)
    if args.out:
        cols = len(text.splitlines()[0].split(","))
        print(f"timeline: {len(metrics.frames)} frames x {cols} columns "
              f"-> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_grid(args: argparse.Namespace) -> int:
    """``repro grid``: run a baselines x traces x seeds sweep.

    With ``--run-dir`` the sweep writes a fleet run directory (manifest,
    streaming cell log with heartbeats, results, summary) that
    ``repro report`` can roll up or diff later.
    """
    from repro.obs import report_run

    seeds = [int(s) for s in args.seeds.split(",")]
    traces = [make_trace(kind.strip(), args.seed, args.duration + 10)
              for kind in args.traces.split(",")]
    disciplines = [d.strip() for d in args.discipline.split(",")]
    observe = observe_options(args)
    if args.arena is not None:
        # Arena sweep: mixes x disciplines x traces x seeds, per-flow
        # results plus a fairness block in the run summary.
        if (observe.stall or args.slo or args.cc or args.codec
                or args.engine != "reference"):
            raise SystemExit(
                "--inject-stall/--slo/--cc/--codec/--engine target "
                "single-flow cells; they cannot be combined with --arena")
        from repro.arena import run_arena_grid
        mixes = [m.strip() for m in args.arena.split(";")]
        results = run_arena_grid(
            mixes, traces, disciplines=disciplines, seeds=seeds,
            duration=args.duration, fps=args.fps,
            initial_bwe_bps=args.initial_bwe * 1e6,
            category=args.category,
            jobs=args.jobs, use_cache=args.cache,
            run_dir=args.run_dir, verbose=True,
            window_s=args.window, observe=observe)
        if args.run_dir is not None:
            print()
            print(report_run(args.run_dir))
        else:
            rows = []
            for (mix, discipline, trace_name, seed), m in results.items():
                for fid, fm in m.items():
                    label = (f"{mix}/{discipline}/{trace_name}/s{seed}/"
                             f"{m.specs[fid]['baseline']}#{fid}")
                    rows.append(metrics_row(label, fm))
            print_table(f"arena grid: {len(results)} cells", HEADERS, rows)
            for key, m in results.items():
                rep = m.fairness(window_s=args.window)
                print(f"{'/'.join(str(p) for p in key)}: "
                      f"jain {rep.jain_throughput:.3f}, "
                      f"worst p95 {rep.worst_p95_latency_s * 1e3:.1f} ms")
        return 0
    if len(disciplines) != 1:
        raise SystemExit("comma-separated --discipline needs --arena")
    tasks = [make_task(baseline.strip(), args, trace=trace, seed=seed,
                       **asdict(observe))
             for baseline, trace, seed
             in product(args.baselines.split(","), traces, seeds)]
    labels = ["/".join(str(part) for part in key) for key in cell_keys(tasks)]
    results = run_tasks(
        args, tasks, run_dir=args.run_dir, verbose=True,
        manifest_extra={"engine": args.engine, "discipline": args.discipline,
                        "series": args.series})
    if args.run_dir is not None:
        print()
        print(report_run(args.run_dir))
    else:
        print_table(f"grid: {len(tasks)} cells", HEADERS,
                    [metrics_row(label, m)
                     for label, m in zip(labels, results)])
    if args.slo:
        from repro.obs.slo import format_slo_event
        fired = 0
        for label, m in zip(labels, results):
            for event in m.slo_alerts.get("events", ()):
                fired += 1
                print(f"{label}: {format_slo_event(event)}")
        print(f"slo: {fired} alert event(s) across {len(tasks)} cells")
    return 0


def cmd_arena(args: argparse.Namespace) -> int:
    """``repro arena``: run one N-flow shared-bottleneck arena session.

    ``--flows`` is a mix string (``base[*count][@start[:stop]]`` joined
    by ``+``); ``--trace`` may be a comma list, one trace per router in
    a bottleneck chain. Prints per-flow metrics plus a fairness summary
    over the trailing ``--window`` seconds.
    """
    from repro.arena import (ArenaFlowSpec, ArenaSession, BottleneckSpec,
                             parse_mix)

    kinds = [k.strip() for k in args.trace.split(",")]
    traces = [make_trace(kind, args.seed, args.duration + 10)
              for kind in kinds]
    flows = [ArenaFlowSpec(**{**f, "category": args.category})
             for f in parse_mix(args.flows)]
    bottlenecks = [BottleneckSpec(trace, discipline=args.discipline)
                   for trace in traces]
    session = ArenaSession(flows, config=session_config(args),
                           bottlenecks=bottlenecks)
    telemetry = session.enable_telemetry() if args.telemetry_out else None
    metrics = session.run()
    rows = [metrics_row(f"{metrics.specs[fid]['baseline']}#{fid}", fm)
            for fid, fm in metrics.items()]
    print_table(f"arena: {args.flows} over {args.trace} "
                f"({args.discipline}, {args.duration:.0f}s)", HEADERS, rows)
    report = metrics.fairness(window_s=args.window)
    frows = []
    for row in report.rows():
        conv = row["convergence_s"]
        frows.append([
            f"{row['baseline']}#{row['flow_id']}",
            f"{row['throughput_mbps']:.2f}",
            f"{row['share']:.1%}",
            fmt_ms(row["p95_latency_ms"] / 1e3),
            f"{row['mean_vmaf']:.1f}",
            "-" if conv is None else f"{conv:.0f}s",
        ])
    print_table(f"fairness over the final {report.window_s:.0f}s",
                ["flow", "Mbps", "share", "p95 ms", "VMAF", "converged"],
                frows)
    print(f"Jain index (throughput): {report.jain_throughput:.3f}")
    for i, stats in enumerate(metrics.router_stats):
        extras = "".join(f", {k} {stats[k]}" for k in ("aqm_drops",
                                                       "evictions")
                         if k in stats)
        print(f"router {i} ({stats['discipline']}): "
              f"{stats['delivered_packets']} delivered, "
              f"{stats['dropped_packets']} dropped{extras}")
    if telemetry is not None:
        export_telemetry(telemetry, args.telemetry_out)
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    from repro.analysis import compare_runs, save_results
    from repro.scenarios import get_scenario, list_scenarios, run_scenario

    if args.name is None:
        print("scenarios:")
        for name in list_scenarios():
            print(f"  {name:<16} {get_scenario(name).description}")
        return 0
    results = run_scenario(args.name, seed=args.seed,
                           duration=args.duration, category=args.category)
    reference = ("webrtc-star"
                 if any(r.baseline == "webrtc-star" for r in results)
                 else results[0].baseline)
    print(compare_runs(results, reference_baseline=reference))
    if args.out:
        save_results(results, args.out)
        print(f"\nwrote {len(results)} results to {args.out}")
    return 0


#: Every flag more than one command takes — declared once, so it means
#: one thing wherever it exists. A command lists the flags it acts on
#: (``command(...)`` in :func:`build_parser`) and states its own default
#: as data there (``duration=dict(default=5.0)``), never as a second
#: definition. Flags only one command takes sit next to that command.
FLAGS: dict[str, dict] = {
    # -- workload: what runs, for how long, from which seed
    "--baseline": dict(default="ace",
                       help="baseline to run (`repro list` names them)"),
    "--trace": dict(default="wifi",
                    help="wifi|4g|5g|campus|const:<mbps>|weak:<venue> "
                         "(`arena`: comma list, one per router; `load`: "
                         "seed-shifted per session, default constant "
                         "20 Mbps)"),
    "--duration": dict(type=float, default=20.0,
                       help="session seconds — simulated, or wall-clock "
                            "media time for `live`/`load` (`load`: default "
                            "5, 3600 with --soak; `scenario`: default the "
                            "preset's)"),
    "--seed": dict(type=int, default=1,
                   help="session seed (`load`: session i uses seed+i; "
                        "`grid`: the trace seed, sessions take --seeds)"),
    "--fps": dict(type=float, default=30.0),
    "--initial-bwe": dict(type=float, default=6.0,
                          help="initial BWE in Mbps"),
    "--rtt": dict(type=float, default=30.0,
                  help="base RTT in ms (`live`/`load`: emulated by the "
                       "path on the wall clock)"),
    "--category": dict(default="gaming", choices=sorted(CONTENT_CATEGORIES)),
    "--discipline": dict(default=DEFAULT_DISCIPLINE,
                         help="bottleneck queue discipline: "
                              + "|".join(list_disciplines())
                              + " (comma list with `grid --arena`)"),
    # -- stack: the single-flow session builder
    "--engine": dict(default="reference", choices=ENGINE_NAMES,
                     help="simulation engine: 'reference' is the golden "
                          "per-event loop, 'batch' macro-steps whole "
                          "bursts (faster, metrics equivalent within "
                          "float noise)"),
    "--cc": dict(default=None,
                 help="override congestion controller "
                      "(gcc|bbr|copa|delivery)"),
    "--codec": dict(default=None,
                    help="override codec model (x264|x265|vp8|vp9|av1)"),
    # -- runner: commands whose cells go through run_cells
    "--jobs": dict(type=int, default=1,
                   help="worker processes (0 = one per CPU); results are "
                        "identical to serial"),
    "--cache": dict(action="store_true",
                    help="memoize session results on disk "
                         "(REPRO_CACHE=off disables, REPRO_CACHE_DIR "
                         "moves)"),
    # -- live path: the emulated loopback of `live`/`load`
    "--loss": dict(type=float, default=0.0,
                   help="emulated random loss rate (0..1)"),
    "--queue": dict(type=int, default=100_000,
                    help="emulated bottleneck queue in bytes"),
    "--unshaped": dict(action="store_true",
                       help="skip trace shaping (delay/loss still apply)"),
    "--stats-port": dict(type=int, default=None, metavar="PORT",
                         help="loopback port of the Prometheus stats "
                              "endpoint: `live`/`load` serve it while they "
                              "run (0 = ephemeral; `load`: one rollup, a "
                              "session=\"<label>\" series per session), "
                              "`watch` polls it"),
    # -- SLO/stall (instrumented sim cells bypass the cache)
    "--slo": dict(action="store_true",
                  help="attach the burstiness SLO watchdog (pacing-p99 "
                       "threshold + pacer-backlog drift rules) and print "
                       "fired alerts"),
    "--slo-p99-ms": dict(type=float, default=250.0, metavar="MS",
                         help="pacing-delay p99 SLO bound in ms "
                              "(default 250; `load --autoscale`: the "
                              "probe's fleet bound)"),
    "--inject-stall": dict(default=None, metavar="AT[:DUR]",
                           help="fault injection: pin the pacer at its rate "
                                "floor from AT seconds for DUR seconds "
                                "(default 1.0) — smoke-tests the SLO "
                                "watchdog; with `grid --series` it builds "
                                "A/B divergence fixtures"),
    # -- exports and selectors
    "--check": dict(action="store_true",
                    help="attach the invariant auditor; exit 1 on any "
                         "violation (`run`: in-process, uncached)"),
    "--telemetry-out": dict(default=None, metavar="DIR",
                            help="enable telemetry and write the JSONL "
                                 "event log + Prometheus snapshot into DIR "
                                 "(`run`: in-process, uncached)"),
    "--run-dir": dict(default=None, metavar="DIR",
                      help="run directory: streaming log + summary.json "
                           "(`grid`: manifest/cells.jsonl/results for "
                           "`repro report`; `load`: live.jsonl heartbeats)"),
    "--series": dict(action="store_true",
                     help="record a time series per cell/session (grid "
                          "cells then bypass the cache); with --run-dir "
                          "the shards land in DIR/series/ for `repro plot`"),
    "--window": dict(type=float, default=10.0,
                     help="fairness window in seconds (arena cells)"),
    "--frame": dict(type=int, default=None,
                    help="frame id to show instead of the worst frame(s)"),
}

#: what runs and for how long: every command that builds sessions.
WORKLOAD = ("--trace", "--duration", "--seed", "--fps", "--initial-bwe")
STACK = ("--engine", "--cc", "--codec")
#: one simulated single-flow session (run, sweep-rtt, trace, why,
#: timeline): the flags :func:`make_task` reads.
SESSION = ("--baseline", *WORKLOAD, "--rtt", "--category", "--discipline",
           *STACK)
RUNNER = ("--jobs", "--cache")
LIVE_PATH = ("--rtt", "--loss", "--queue", "--unshaped", "--stats-port")
SLO = ("--slo", "--slo-p99-ms", "--inject-stall")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ACE (SIGCOMM'25) reproduction — experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str, *flags: str,
                **own) -> argparse.ArgumentParser:
        """A subcommand taking ``flags`` from :data:`FLAGS`; ``own`` maps
        a flag's dest to what this command states differently."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        for flag in flags:
            dest = flag[2:].replace("-", "_")
            p.add_argument(flag, **{**FLAGS[flag], **own.pop(dest, {})})
        assert not own, f"{name}: overrides for flags it does not take: {own}"
        return p

    command("list", cmd_list, "list baselines/traces/categories")

    p = command("run", cmd_run, "run one baseline",
                *SESSION, *RUNNER, *SLO, "--check", "--telemetry-out",
                baseline=dict(required=True))
    p.add_argument("--series-out", default=None, metavar="DIR",
                   help="record bounded per-tick time series (gauges, "
                        "counters, pacing quantiles) and write a "
                        "DIR/series/*.json shard for `repro plot` "
                        "(in-process, uncached)")

    p = command("fuzz", cmd_fuzz,
                "randomized short sessions under the invariant auditor",
                "--seed")
    p.add_argument("--cases", type=int, default=10)
    p.add_argument("--start", type=int, default=0,
                   help="first case index (resume a sweep)")
    p.add_argument("--no-shrink", action="store_true")
    p.add_argument("--replay", default=None, metavar="SEED:INDEX",
                   help="re-run one case, e.g. --replay 1:7")

    p = command("sweep-rtt", cmd_sweep_rtt, "sweep the base RTT",
                *SESSION, *RUNNER, baseline=dict(required=True))
    p.add_argument("--rtts", default="10,20,40,80,160",
                   help="comma-separated RTTs in ms")

    command("live", cmd_live,
            "run one baseline in real time over UDP loopback",
            "--baseline", *WORKLOAD, "--category", *LIVE_PATH, *SLO,
            "--check", "--telemetry-out",
            trace=dict(default="const:20"), duration=dict(default=5.0),
            initial_bwe=dict(default=4.0))

    p = command("load", cmd_load,
                "run N concurrent live sessions on one event loop "
                "(multi-session load generator / soak)",
                *WORKLOAD, *LIVE_PATH, *SLO, "--run-dir", "--series",
                trace=dict(default=None), duration=dict(default=None),
                initial_bwe=dict(default=4.0))
    p.add_argument("--sessions", type=int, default=4,
                   help="number of concurrent sessions (default 4)")
    p.add_argument("--mix", default="ace",
                   help="comma-separated baselines assigned round-robin, "
                        "e.g. ace,webrtc-star")
    p.add_argument("--ramp", type=float, default=0.0,
                   help="seconds over which session joins are staggered "
                        "(default 0: all at once)")
    p.add_argument("--soak", action="store_true",
                   help="soak mode: hour-long default duration; Ctrl-C "
                        "drains the whole fleet gracefully")
    p.add_argument("--drain", type=float, default=0.5,
                   help="post-stop settle seconds per session")
    p.add_argument("--heartbeat", type=float, default=1.0,
                   help="fleet heartbeat interval in seconds (0 disables)")
    p.add_argument("--snapshot-out", default=None, metavar="FILE",
                   help="write the final Prometheus rollup to FILE")
    p.add_argument("--dash", action="store_true",
                   help="render a live ANSI dashboard (sparklines, SLO "
                        "highlighting) on each heartbeat; repaints in "
                        "place on a TTY, stacks plain frames otherwise")
    p.add_argument("--autoscale", action="store_true",
                   help="instead of one fixed fleet, probe the largest "
                        "fleet of this configuration the machine sustains "
                        "under --slo-p99-ms (geometric ascent + bisection "
                        "over 1.5 s rounds unless --duration) and write "
                        "the ceiling artifact")
    p.add_argument("--autoscale-start", type=int, default=0, metavar="N",
                   help="first fleet size tried (default: core count)")
    p.add_argument("--autoscale-max", type=int, default=64, metavar="N",
                   help="fleet-size cap for the probe (default 64)")
    p.add_argument("--autoscale-out", default="BENCH_live_ceiling.json",
                   metavar="FILE",
                   help="where to write the ceiling artifact "
                        "(default BENCH_live_ceiling.json)")

    p = command("trace", cmd_trace,
                "replay one session with telemetry and print span/metric "
                "timelines", *SESSION, "--frame")
    p.add_argument("--worst", action="store_true",
                   help="print the worst end-to-end frame's span (the "
                        "default when no selector is given)")
    p.add_argument("--metric", default=None,
                   help="print one registry metric's time series, e.g. "
                        "bucket.token_level_bytes")
    p.add_argument("--kind", default=None,
                   help="filter the record log by kind (span|metric|event)")
    p.add_argument("--name", default=None,
                   help="filter the record log by name substring")
    p.add_argument("--since", type=float, default=None,
                   help="only records at or after this session time")
    p.add_argument("--until", type=float, default=None,
                   help="only records at or before this session time")
    p.add_argument("--limit", type=int, default=50,
                   help="max records/samples to print (0 = all)")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="also write the JSONL event log + Prometheus "
                        "snapshot into DIR")
    p.add_argument("--attrib", action="store_true",
                   help="print the session-level pacer-residence "
                        "attribution rollup (see `repro why`)")
    p.add_argument("--profile", action="store_true",
                   help="self-profile the event loop and print the "
                        "per-event-type callback table")

    p = command("why", cmd_why,
                "attribute frames' pacer-residence latency to ACE-N "
                "decisions (frame blame)", *SESSION, "--frame")
    p.add_argument("--frames", type=int, default=3,
                   help="how many worst frames to show (default 3)")

    p = command("report", cmd_report,
                "roll a grid run directory into aggregate tables; diff two "
                "runs for regressions")
    p.add_argument("run_dir", help="run directory from `repro grid "
                                   "--run-dir` / run_grid(run_dir=...)")
    p.add_argument("--diff", default=None, metavar="OTHER_RUN_DIR",
                   help="compare against this run directory; exit 1 on "
                        "regressions")
    p.add_argument("--tolerance", type=float, default=0.05,
                   help="relative worsening that counts as a regression "
                        "(default 0.05)")

    p = command("grid", cmd_grid,
                "run a baselines x traces x seeds grid, optionally into a "
                "fleet run directory",
                *WORKLOAD, "--category", "--discipline", *STACK, *RUNNER,
                *SLO, "--run-dir", "--series", "--window")
    p.add_argument("--baselines", default="ace,webrtc-star",
                   help="comma-separated baseline names")
    p.add_argument("--traces", default="wifi",
                   help="comma-separated trace kinds")
    p.add_argument("--seeds", default="1,2,3",
                   help="comma-separated session seeds")
    p.add_argument("--arena", default=None, metavar="MIX",
                   help="sweep arena cells instead of single flows: flow "
                        "mix like 'ace*2+webrtc-star*2' (';'-separated for "
                        "several mixes); --discipline may then be a comma "
                        "list")

    p = command("plot", cmd_plot,
                "render recorded time-series shards into a self-contained "
                "HTML report of paper-style figures")
    p.add_argument("target", help="run dir (grid/load --series), series/ "
                                  "dir, or one shard .json")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="output HTML path (default <run-dir>/report.html)")
    p.add_argument("--width", type=int, default=572, metavar="PX",
                   help="data-area pixel width per figure; also the M4 "
                        "downsampling budget (default 572)")

    p = command("watch", cmd_watch,
                "live ANSI dashboard polling a Prometheus stats endpoint "
                "(`repro load --stats-port`)", "--stats-port")
    p.add_argument("--url", default=None,
                   help="stats endpoint URL (overrides --stats-port)")
    p.add_argument("--interval", type=float, default=1.0,
                   help="seconds between polls (default 1)")
    p.add_argument("--frames", type=int, default=0,
                   help="stop after N dashboard frames (default 0: until "
                        "Ctrl-C)")

    p = command("timeline", cmd_timeline,
                "per-frame lifecycle CSV with pacer-blame columns", *SESSION)
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the CSV here (atomic); default stdout")
    p.add_argument("--no-blame", action="store_false", dest="blame",
                   help="drop the blame_* columns (skip pacer-residence "
                        "attribution)")

    p = command("arena", cmd_arena,
                "run N flows over a shared bottleneck with pluggable AQM",
                *WORKLOAD, "--rtt", "--category", "--discipline", "--window",
                "--telemetry-out")
    p.add_argument("--flows", default="ace*2+webrtc-star*2",
                   help="flow mix: base[*count][@start[:stop]] joined by "
                        "'+', e.g. ace*2+webrtc-star@5")

    p = command("scenario", cmd_scenario,
                "run a named paper-experiment scenario",
                "--seed", "--duration", "--category",
                seed=dict(default=3), duration=dict(default=None),
                category=dict(default=None))
    p.add_argument("name", nargs="?", default=None,
                   help="scenario name (omit to list)")
    p.add_argument("--out", default=None,
                   help="write RunResult JSON to this path")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

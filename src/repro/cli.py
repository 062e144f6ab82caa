"""Command-line interface: run sessions and comparisons without code.

Usage (installed as ``python -m repro``):

    python -m repro list                      # baselines & trace classes
    python -m repro run --baseline ace --trace wifi --duration 20
    python -m repro compare --baselines ace,webrtc-star,cbr --trace wifi
    python -m repro sweep-rtt --baseline ace --rtts 10,20,40,80
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from typing import Optional, Sequence

from repro.analysis.cache import ResultCache
from repro.bench.parallel import (
    GridTask,
    ParallelRunner,
    open_task,
    run_opened,
    series_shard_name,
)
from repro.bench.tables import fmt_ms, fmt_pct, print_table
from repro.net.aqm import DEFAULT_DISCIPLINE, list_disciplines
from repro.net.trace import (
    BandwidthTrace,
    make_4g_trace,
    make_5g_trace,
    make_campus_wifi_trace,
    make_weak_network_trace,
    make_wifi_trace,
)
from repro.rtc.baselines import list_baselines
from repro.rtc.session import SessionConfig
from repro.sim import ENGINE_NAMES
from repro.sim.rng import RngStream
from repro.video.source import CONTENT_CATEGORIES

TRACE_MAKERS = {
    "wifi": make_wifi_trace,
    "4g": make_4g_trace,
    "5g": make_5g_trace,
    "campus": make_campus_wifi_trace,
}


def make_trace(kind: str, seed: int, duration: float) -> BandwidthTrace:
    """Build a trace by class name, or a constant one via 'const:<mbps>'."""
    if kind.startswith("const:"):
        mbps = float(kind.split(":", 1)[1])
        return BandwidthTrace.constant(mbps * 1e6, duration=duration)
    if kind.startswith("weak:"):
        venue = kind.split(":", 1)[1]
        return make_weak_network_trace(RngStream(seed, f"cli.{kind}"),
                                       duration=duration, venue=venue)
    if kind not in TRACE_MAKERS:
        raise SystemExit(
            f"unknown trace {kind!r}: choose from {sorted(TRACE_MAKERS)}, "
            "'const:<mbps>', or 'weak:<venue>'")
    return TRACE_MAKERS[kind](RngStream(seed, f"cli.{kind}"), duration=duration)


def session_config(args: argparse.Namespace,
                   rtt_ms: Optional[float] = None) -> SessionConfig:
    """The :class:`SessionConfig` the common workload flags describe."""
    rtt = (rtt_ms if rtt_ms is not None else args.rtt) / 1000.0
    return SessionConfig(
        duration=args.duration, seed=args.seed, fps=args.fps,
        base_rtt=rtt, initial_bwe_bps=args.initial_bwe * 1e6,
    )


def make_task(baseline: str, args: argparse.Namespace,
              trace: Optional[BandwidthTrace] = None,
              rtt_ms: Optional[float] = None, **instrument) -> GridTask:
    """One grid cell from CLI arguments.

    Every single-flow command builds its session through this, so the
    common flags (``--engine``, ``--discipline``, ``--cc``, ``--codec``)
    mean the same thing everywhere. ``instrument`` sets the
    :class:`GridTask` instrumentation fields (``telemetry=``, ``slo=``,
    ...).
    """
    if trace is None:
        trace = make_trace(args.trace, args.seed, args.duration + 10)
    build_kwargs = {"cc_override": args.cc, "codec_override": args.codec}
    if args.engine != "reference":
        # Only a non-default engine enters the build kwargs (and thus
        # the result-cache key): reference-engine cells keep their
        # pre-engine cache identity, and cached cells can never be
        # silently served across engines.
        build_kwargs["engine"] = args.engine
    if args.discipline != DEFAULT_DISCIPLINE:
        # Same convention for the queue discipline: drop-tail cells keep
        # their historical cache identity, AQM cells get their own.
        build_kwargs["discipline"] = args.discipline
    return GridTask(baseline=baseline, trace=trace, category=args.category,
                    config=session_config(args, rtt_ms),
                    build_kwargs=build_kwargs, **instrument)


def run_session(task: GridTask):
    """Open, run and harvest one cell in-process — for commands that
    read the session object afterwards.

    Returns ``(session, auditor, metrics)``; the auditor (``task.audit``)
    is non-strict, so violations end up in its report instead of
    raising.
    """
    session, auditor = open_task(task, strict_audit=False)
    metrics = run_opened(task, session, auditor)
    warn_fallback([metrics])
    return session, auditor, metrics


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


def run_tasks(args: argparse.Namespace, tasks: list) -> list:
    """Run cells through the ``--jobs``/``--cache`` runner, announcing
    batch fallbacks and the cache counters."""
    runner = ParallelRunner(jobs=args.jobs,
                            cache=ResultCache() if args.cache else None)
    results = runner.run(tasks)
    warn_fallback(results)
    if runner.cache is not None:
        print(runner.counters())
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
    print("\ntrace classes:", ", ".join(sorted(TRACE_MAKERS)),
          "+ const:<mbps>, weak:<canteen|coffee_shop|airport>")
    print("content categories:", ", ".join(CONTENT_CATEGORIES))
    return 0


def _parse_stall(spec: Optional[str]) -> tuple[Optional[float], float]:
    """Parse ``--inject-stall AT[:DUR]`` into ``(at_s, duration_s)``
    (``at_s`` is None without the flag)."""
    if spec is None:
        return None, 1.0
    try:
        if ":" in spec:
            at_txt, dur_txt = spec.split(":", 1)
            return float(at_txt), float(dur_txt)
        return float(spec), 1.0
    except ValueError:
        raise SystemExit(
            f"--inject-stall wants AT or AT:DUR seconds, got {spec!r}")


def _fmt_slo_event(event: dict) -> str:
    bound = event.get("bound")
    value = event.get("value")
    return (f"SLO {event['state'].upper()}: {event['rule']} "
            f"({event['metric']} = "
            f"{'-' if value is None else f'{value:g}'}, bound "
            f"{'-' if bound is None else f'{bound:g}'}) "
            f"at t={event['at']:.2f}s")


def _print_slo_summary(summary: dict) -> None:
    for event in summary.get("events", ()):
        print(_fmt_slo_event(event))
    firing = summary.get("firing") or []
    print(f"slo: {summary.get('alerts', 0)} alert(s), "
          f"firing: {', '.join(firing) if firing else '-'}")


def cmd_run(args: argparse.Namespace) -> int:
    """``repro run``: one grid cell.

    Plain runs go through the ``--jobs``/``--cache`` runner. With
    ``--check``/``--telemetry-out``/``--slo``/``--series-out``/
    ``--inject-stall`` the cell is instrumented exactly as a grid would
    instrument it, but in-process: the exports and the audit report read
    the session object, and a cache hit would observe nothing.
    """
    stall_at, stall_dur = _parse_stall(args.inject_stall)
    task = make_task(
        args.baseline, args,
        telemetry=bool(args.telemetry_out), audit=args.check, slo=args.slo,
        slo_pacing_p99_s=args.slo_p99_ms / 1000.0,
        series=bool(args.series_out),
        inject_stall=None if stall_at is None else (stall_at, stall_dur))
    session = auditor = None
    if task.instrumented:
        session, auditor, metrics = run_session(task)
    else:
        [metrics] = run_tasks(args, [task])
    suffix = ", audited" if auditor is not None else ""
    print_session(f"{args.baseline} over {args.trace} "
                  f"({args.duration:.0f}s, {args.category}{suffix})",
                  args.baseline, metrics)
    if args.telemetry_out:
        export_telemetry(session.telemetry, args.telemetry_out)
    if args.series_out:
        from pathlib import Path
        # Standalone shards are named after the --trace flag, not the
        # trace object's name ("constant" for every const:<mbps>).
        frame = metrics.series_frame
        frame.meta["trace"] = args.trace
        shard = series_shard_name(
            (args.baseline, args.trace, args.seed, args.category))
        path = Path(args.series_out) / "series" / f"{shard}.json"
        frame.write(path)
        print(f"series: {len(frame.t)} samples x {len(frame.series)} "
              f"series -> {path}")
    if args.slo:
        _print_slo_summary(metrics.slo_alerts)
    if auditor is not None:
        print(auditor.report())
        return 1 if auditor.violations else 0
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.audit.fuzz import main as fuzz_main

    argv = ["--cases", str(args.cases), "--seed", str(args.seed),
            "--start", str(args.start)]
    if args.no_shrink:
        argv.append("--no-shrink")
    if args.replay is not None:
        argv += ["--replay", args.replay]
    return fuzz_main(argv)


def cmd_compare(args: argparse.Namespace) -> int:
    baselines = [b.strip() for b in args.baselines.split(",")]
    trace = make_trace(args.trace, args.seed, args.duration + 10)
    results = run_tasks(args, [make_task(b, args, trace=trace)
                               for b in baselines])
    rows = [metrics_row(baseline, metrics)
            for baseline, metrics in zip(baselines, results)]
    print_table(f"comparison over {args.trace} "
                f"({args.duration:.0f}s, {args.category})", HEADERS, rows)
    return 0


def cmd_sweep_rtt(args: argparse.Namespace) -> int:
    rtts = [float(x) for x in args.rtts.split(",")]
    trace = make_trace(args.trace, args.seed, args.duration + 10)
    results = run_tasks(args, [make_task(args.baseline, args, trace=trace,
                                         rtt_ms=rtt_ms) for rtt_ms in rtts])
    rows = [[f"{rtt_ms:g}"] + metrics_row(args.baseline, metrics)[1:]
            for rtt_ms, metrics in zip(rtts, results)]
    print_table(f"{args.baseline}: RTT sweep over {args.trace}",
                ["RTT ms"] + HEADERS[1:], rows)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.analysis import RunResult, compare_runs, save_results

    kinds = [kind.strip() for kind in args.traces.split(",")]
    traces = {kind: make_trace(kind, args.seed, args.duration + 10)
              for kind in kinds}
    cells = [(kind, baseline.strip()) for kind in kinds
             for baseline in args.baselines.split(",")]
    metrics = run_tasks(args, [make_task(baseline, args, trace=traces[kind])
                               for kind, baseline in cells])
    results = [RunResult.from_metrics(m, baseline=baseline, trace=kind,
                                      seed=args.seed, category=args.category)
               for (kind, baseline), m in zip(cells, metrics)]
    print(compare_runs(results, reference_baseline=args.reference))
    if args.out:
        save_results(results, args.out)
        print(f"\nwrote {len(results)} results to {args.out}")
    return 0


def _live_path_config(args: argparse.Namespace) -> dict:
    """The ``LiveConfig``/``LoadConfig`` fields ``live`` and ``load``
    both take from :func:`_add_live_path` and :func:`_add_slo_args`."""
    stall_at, stall_dur = _parse_stall(args.inject_stall)
    return dict(
        seed=args.seed, fps=args.fps, initial_bwe_bps=args.initial_bwe * 1e6,
        base_rtt=args.rtt / 1000.0, random_loss_rate=args.loss,
        queue_capacity_bytes=args.queue, shaped=not args.unshaped,
        stats_port=args.stats_port, slo=args.slo,
        slo_pacing_p99_s=args.slo_p99_ms / 1000.0,
        inject_stall_at=stall_at, inject_stall_duration=stall_dur)


def cmd_live(args: argparse.Namespace) -> int:
    import asyncio

    from repro.live.session import LiveConfig, build_live_session

    trace = make_trace(args.trace, args.seed, args.duration + 10)
    config = LiveConfig(
        duration=args.duration, audit=args.check,
        telemetry=bool(args.telemetry_out), **_live_path_config(args))
    session = build_live_session(args.baseline, config, trace=trace,
                                 category=args.category)
    print(f"live: {args.baseline} over UDP loopback, "
          f"{args.duration:.0f}s wall-clock "
          f"({'unshaped' if args.unshaped else args.trace}, "
          f"rtt {args.rtt:g} ms, loss {args.loss:.1%})...")
    if args.stats_port is not None:
        port = args.stats_port if args.stats_port else "<ephemeral>"
        print(f"stats: serving Prometheus snapshot on "
              f"http://127.0.0.1:{port}/ while the session runs")
    metrics = asyncio.run(session.run())
    if session.telemetry is not None and args.telemetry_out:
        export_telemetry(session.telemetry, args.telemetry_out)
    print_session(f"{args.baseline} live ({args.duration:.0f}s, "
                  f"{args.category})", args.baseline, metrics)
    shim = session.impairment
    print(f"impairment: {shim.delivered} datagrams delivered, "
          f"{shim.dropped} dropped; "
          f"{metrics.packets_retransmitted} retransmissions")
    if session.watchdog is not None:
        _print_slo_summary(session.watchdog.summary())
    if session.auditor is not None:
        print(session.auditor.report())
        if session.auditor.violations:
            return 1
    return 0


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

    from repro.live.server import (
        DEFAULT_SOAK_DURATION_S,
        LoadConfig,
        run_load,
    )
    from repro.rtc.baselines import get_spec

    mix = [b.strip() for b in args.mix.split(",") if b.strip()]
    known = set(list_baselines())
    for name in mix:
        if name not in known:
            raise SystemExit(
                f"unknown baseline {name!r} in --mix; choose from: "
                + ", ".join(list_baselines()))
        if get_spec(name).fec:
            raise SystemExit(
                f"baseline {name!r} in --mix uses FEC, which is not "
                "encodable on the live wire format yet; pick non-FEC "
                "baselines")
    if not mix:
        raise SystemExit("--mix needs at least one baseline name")
    if args.autoscale:
        return _cmd_load_autoscale(args, mix)
    duration = args.duration
    if duration is None:
        duration = DEFAULT_SOAK_DURATION_S if args.soak else 5.0
    config = LoadConfig(
        sessions=args.sessions, mix=tuple(mix), ramp=args.ramp,
        duration=duration, drain=args.drain,
        heartbeat_interval=args.heartbeat, series=args.series,
        **_live_path_config(args))
    trace_factory = None
    if args.trace is not None:
        def trace_factory(i, _kind=args.trace, _seed=args.seed,
                          _dur=duration + args.drain):
            # Traces keep a monotonic cursor: one private instance per
            # session (seed-shifted so stochastic traces decorrelate).
            return make_trace(_kind, _seed + i, _dur + 10)
    print(f"load: {args.sessions} sessions over UDP loopback "
          f"({','.join(mix)} round-robin), ramp {args.ramp:g}s, "
          f"{duration:g}s media each"
          + (" [soak: Ctrl-C drains the fleet]" if args.soak else ""))
    echo = print
    heartbeat_hook = None
    if args.dash:
        # Live ANSI dashboard fed by heartbeat records. On a TTY each
        # heartbeat repaints in place (clear + color); piped/redirected
        # output falls back to plain stacked frames so CI logs stay
        # readable and the command still exits 0.
        from repro.obs.dash import FleetDashboard
        tty = sys.stdout.isatty()
        dash = FleetDashboard(color=tty, clear=tty)
        echo = None  # the dashboard replaces the heartbeat echo lines

        def heartbeat_hook(record, _dash=dash, _tty=tty):
            frame = _dash.update(record)
            sys.stdout.write(frame if _tty else frame + "\n")
            sys.stdout.flush()

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


def _cmd_load_autoscale(args: argparse.Namespace, mix: list[str]) -> int:
    """``repro load --autoscale``: probe the sessions/core ceiling."""
    from repro.live.autoscale import AutoscaleConfig, run_autoscale

    cfg = AutoscaleConfig(
        start=args.autoscale_start,
        max_sessions=args.autoscale_max,
        duration=args.duration if args.duration is not None else 1.5,
        drain=min(args.drain, 0.3),
        seed=args.seed,
        mix=tuple(mix),
        p99_limit_ms=args.p99_limit,
    )
    print(f"autoscale: probing sessions/core ceiling "
          f"({','.join(mix)} mix, p99 limit {cfg.p99_limit_ms:g} ms, "
          f"{cfg.duration:g}s rounds, cap {cfg.max_sessions})")
    result = run_autoscale(cfg, echo=print,
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
    session, _ = open_task(task)
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
        from repro.obs import render_rollup
        print()
        print(render_rollup(session.attribution()))
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
    from repro.obs import render_frame_blame, render_rollup

    session, _, _ = run_session(make_task(args.baseline, args))
    attribution = session.attribution()
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

    Polls the rollup served by ``repro load --stats-port`` (or any
    ``repro_*`` exposition) and renders the fleet dashboard — sparkline
    history per session, SLO highlighting. On a TTY each poll repaints
    in place; otherwise frames are stacked as plain text and the command
    still exits 0 (CI-safe). ``--frames N`` stops after N polls.
    """
    import time
    from urllib.error import URLError
    from urllib.request import urlopen

    from repro.obs.dash import FleetDashboard, record_from_prometheus

    if args.url is not None:
        url = args.url
    elif args.stats_port is not None:
        url = f"http://127.0.0.1:{args.stats_port}/"
    else:
        raise SystemExit("repro watch needs --url or --stats-port "
                         "(point it at `repro load --stats-port`)")
    tty = sys.stdout.isatty()
    dash = FleetDashboard(color=tty, clear=tty)
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
            frame = dash.update(record_from_prometheus(text))
            sys.stdout.write(frame if tty else frame + "\n")
            sys.stdout.flush()
            polled += 1
    except KeyboardInterrupt:
        pass
    if tty:
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

    session, _, metrics = run_session(make_task(args.baseline, args))
    attribution = session.attribution() if args.blame else None
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
    from repro.bench.parallel import run_grid
    from repro.obs import report_run

    seeds = [int(s) for s in args.seeds.split(",")]
    traces = [make_trace(kind.strip(), args.seed, args.duration + 10)
              for kind in args.traces.split(",")]
    disciplines = [d.strip() for d in args.discipline.split(",")]
    stall_at, stall_dur = _parse_stall(args.inject_stall)
    if args.arena is not None:
        # Arena sweep: mixes x disciplines x traces x seeds, per-flow
        # results plus a fairness block in the run summary.
        if (stall_at is not None or args.slo or args.cc or args.codec
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
            window_s=args.window, series=args.series)
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
    baselines = [b.strip() for b in args.baselines.split(",")]
    # Only overrides that are set enter build_kwargs (and the cache key).
    overrides = {key: value for key, value in (("cc_override", args.cc),
                                               ("codec_override", args.codec))
                 if value is not None}
    results = run_grid(baselines, traces, seeds=seeds,
                       categories=(args.category,),
                       duration=args.duration, fps=args.fps,
                       initial_bwe_bps=args.initial_bwe * 1e6,
                       jobs=args.jobs, use_cache=args.cache,
                       build_kwargs=overrides or None,
                       run_dir=args.run_dir, verbose=True,
                       engine=args.engine,
                       discipline=disciplines[0],
                       slo=args.slo,
                       slo_pacing_p99_s=args.slo_p99_ms / 1000.0,
                       series=args.series,
                       inject_stall=(None if stall_at is None
                                     else (stall_at, stall_dur)))
    warn_fallback(list(results.values()))
    if args.run_dir is not None:
        print()
        print(report_run(args.run_dir))
    else:
        rows = [metrics_row("/".join(str(part) for part in key), m)
                for key, m in results.items()]
        print_table(f"grid: {len(results)} cells", HEADERS, rows)
    if args.slo:
        fired = 0
        for key, m in results.items():
            slo = getattr(m, "slo_alerts", None) or {}
            for event in slo.get("events", ()):
                fired += 1
                print("/".join(str(part) for part in key) + ": "
                      + _fmt_slo_event(event))
        print(f"slo: {fired} alert event(s) across {len(results)} cells")
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


def _add_common(p: argparse.ArgumentParser, *, stack: bool = True,
                runner: bool = False, rtt: bool = True) -> None:
    """The workload flags every sim command honours, plus the groups
    only some do: ``stack`` (``--engine``/``--cc``/``--codec`` — the
    single-flow session builder) and ``runner`` (``--jobs``/``--cache``
    — commands that go through :class:`ParallelRunner`). A command
    defines a flag only if it acts on it.
    """
    p.add_argument("--trace", default="wifi",
                   help="wifi|4g|5g|campus|const:<mbps>|weak:<venue>")
    p.add_argument("--duration", type=float, default=20.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--fps", type=float, default=30.0)
    if rtt:
        p.add_argument("--rtt", type=float, default=30.0,
                       help="base RTT in ms")
    p.add_argument("--category", default="gaming",
                   choices=sorted(CONTENT_CATEGORIES))
    p.add_argument("--initial-bwe", type=float, default=6.0,
                   dest="initial_bwe", help="initial BWE in Mbps")
    p.add_argument("--discipline", default=DEFAULT_DISCIPLINE,
                   help="bottleneck queue discipline: "
                        + "|".join(list_disciplines())
                        + " (comma list with `grid --arena`)")
    if stack:
        p.add_argument("--engine", default="reference", choices=ENGINE_NAMES,
                       help="simulation engine: 'reference' is the golden "
                            "per-event loop, 'batch' macro-steps whole "
                            "bursts (faster, metrics equivalent within "
                            "float noise)")
        p.add_argument("--cc", default=None,
                       help="override congestion controller "
                            "(gcc|bbr|copa|delivery)")
        p.add_argument("--codec", default=None,
                       help="override codec model (x264|x265|vp8|vp9|av1)")
    if runner:
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for multi-session commands "
                            "(0 = one per CPU); results are identical to "
                            "serial")
        p.add_argument("--cache", action="store_true",
                       help="memoize session results on disk "
                            "(REPRO_CACHE=off disables, REPRO_CACHE_DIR "
                            "moves)")


def _add_live_path(p: argparse.ArgumentParser) -> None:
    """The emulated loopback path of ``live``/``load``."""
    p.add_argument("--seed", type=int, default=1,
                   help="session seed (`load`: session i uses seed+i)")
    p.add_argument("--fps", type=float, default=30.0)
    p.add_argument("--rtt", type=float, default=30.0,
                   help="emulated base RTT in ms")
    p.add_argument("--loss", type=float, default=0.0,
                   help="emulated random loss rate (0..1)")
    p.add_argument("--queue", type=int, default=100_000,
                   help="emulated bottleneck queue in bytes")
    p.add_argument("--initial-bwe", type=float, default=4.0,
                   dest="initial_bwe", help="initial BWE in Mbps")
    p.add_argument("--unshaped", action="store_true",
                   help="skip trace shaping (delay/loss still apply)")


def _add_slo_args(p: argparse.ArgumentParser) -> None:
    """``--slo`` / ``--slo-p99-ms`` / ``--inject-stall``
    (run/grid/live/load; instrumented sim cells bypass the cache)."""
    p.add_argument("--slo", action="store_true",
                   help="attach the burstiness SLO watchdog (pacing-p99 "
                        "threshold + pacer-backlog drift rules) and print "
                        "fired alerts")
    p.add_argument("--slo-p99-ms", type=float, default=250.0,
                   dest="slo_p99_ms", metavar="MS",
                   help="pacing-delay p99 SLO bound in ms (default 250)")
    p.add_argument("--inject-stall", default=None, dest="inject_stall",
                   metavar="AT[:DUR]",
                   help="fault injection: pin the pacer at its rate floor "
                        "from AT seconds for DUR seconds (default 1.0) — "
                        "smoke-tests the SLO watchdog; with `grid --series` "
                        "it builds A/B divergence fixtures")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ACE (SIGCOMM'25) reproduction — experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list baselines/traces/categories") \
       .set_defaults(func=cmd_list)

    p_run = sub.add_parser("run", help="run one baseline")
    p_run.add_argument("--baseline", required=True)
    p_run.add_argument("--check", action="store_true",
                       help="attach the invariant auditor; exit 1 on any "
                            "violation (disables --jobs/--cache)")
    p_run.add_argument("--telemetry-out", default=None, dest="telemetry_out",
                       metavar="DIR",
                       help="run with telemetry and write the JSONL event "
                            "log + Prometheus snapshot into DIR (disables "
                            "--jobs/--cache)")
    p_run.add_argument("--series-out", default=None, dest="series_out",
                       metavar="DIR",
                       help="record bounded per-tick time series (gauges, "
                            "counters, pacing quantiles) and write a "
                            "DIR/series/*.json shard for `repro plot` "
                            "(disables --jobs/--cache)")
    _add_slo_args(p_run)
    _add_common(p_run, runner=True)
    p_run.set_defaults(func=cmd_run)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="randomized short sessions under the invariant auditor")
    p_fuzz.add_argument("--cases", type=int, default=10)
    p_fuzz.add_argument("--seed", type=int, default=1)
    p_fuzz.add_argument("--start", type=int, default=0,
                        help="first case index (resume a sweep)")
    p_fuzz.add_argument("--no-shrink", action="store_true")
    p_fuzz.add_argument("--replay", default=None, metavar="SEED:INDEX",
                        help="re-run one case, e.g. --replay 1:7")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_cmp = sub.add_parser("compare", help="run several baselines on one workload")
    p_cmp.add_argument("--baselines", required=True,
                       help="comma-separated baseline names")
    _add_common(p_cmp, runner=True)
    p_cmp.set_defaults(func=cmd_compare)

    p_rtt = sub.add_parser("sweep-rtt", help="sweep the base RTT")
    p_rtt.add_argument("--baseline", required=True)
    p_rtt.add_argument("--rtts", default="10,20,40,80,160",
                       help="comma-separated RTTs in ms")
    _add_common(p_rtt, runner=True)
    p_rtt.set_defaults(func=cmd_sweep_rtt)

    p_eval = sub.add_parser(
        "evaluate",
        help="condensed Fig. 12 evaluation (baselines x trace classes), "
             "optionally persisted to JSON")
    p_eval.add_argument("--baselines",
                        default="ace,webrtc-star,cbr,webrtc-b",
                        help="comma-separated baseline names")
    p_eval.add_argument("--traces", default="wifi,4g,5g",
                        help="comma-separated trace kinds")
    p_eval.add_argument("--out", default=None,
                        help="write RunResult JSON to this path")
    p_eval.add_argument("--reference", default="webrtc-star",
                        help="baseline the comparison is relative to")
    _add_common(p_eval, runner=True)
    p_eval.set_defaults(func=cmd_evaluate)

    p_live = sub.add_parser(
        "live",
        help="run one baseline in real time over UDP loopback")
    p_live.add_argument("--baseline", default="ace")
    p_live.add_argument("--trace", default="const:20",
                        help="wifi|4g|5g|campus|const:<mbps>|weak:<venue>")
    p_live.add_argument("--duration", type=float, default=5.0,
                        help="wall-clock seconds to run")
    p_live.add_argument("--category", default="gaming",
                        choices=sorted(CONTENT_CATEGORIES))
    _add_live_path(p_live)
    p_live.add_argument("--check", action="store_true",
                        help="attach the polling invariant auditor; exit 1 "
                             "on any violation")
    p_live.add_argument("--stats-port", type=int, default=None,
                        dest="stats_port", metavar="PORT",
                        help="serve a Prometheus snapshot over HTTP on this "
                             "loopback port during the run (enables "
                             "telemetry; 0 picks an ephemeral port)")
    p_live.add_argument("--telemetry-out", default=None,
                        dest="telemetry_out", metavar="DIR",
                        help="enable telemetry and write the JSONL event "
                             "log + Prometheus snapshot into DIR at "
                             "session end")
    _add_slo_args(p_live)
    p_live.set_defaults(func=cmd_live)

    p_load = sub.add_parser(
        "load",
        help="run N concurrent live sessions on one event loop "
             "(multi-session load generator / soak)")
    p_load.add_argument("--sessions", type=int, default=4,
                        help="number of concurrent sessions (default 4)")
    p_load.add_argument("--mix", default="ace",
                        help="comma-separated baselines assigned "
                             "round-robin, e.g. ace,webrtc-star")
    p_load.add_argument("--ramp", type=float, default=0.0,
                        help="seconds over which session joins are "
                             "staggered (default 0: all at once)")
    p_load.add_argument("--duration", type=float, default=None,
                        help="media seconds per session (default 5; "
                             "3600 with --soak)")
    p_load.add_argument("--soak", action="store_true",
                        help="soak mode: hour-long default duration; "
                             "Ctrl-C drains the whole fleet gracefully")
    p_load.add_argument("--drain", type=float, default=0.5,
                        help="post-stop settle seconds per session")
    p_load.add_argument("--trace", default=None,
                        help="per-session trace class (wifi|4g|5g|campus|"
                             "const:<mbps>|weak:<venue>, seed-shifted per "
                             "session); default: constant 20 Mbps")
    _add_live_path(p_load)
    p_load.add_argument("--stats-port", type=int, default=None,
                        dest="stats_port", metavar="PORT",
                        help="serve one rolled-up Prometheus snapshot "
                             "(session=\"<label>\" series per session) on "
                             "this loopback port (0 = ephemeral)")
    p_load.add_argument("--heartbeat", type=float, default=1.0,
                        help="fleet heartbeat interval in seconds "
                             "(0 disables)")
    p_load.add_argument("--run-dir", default=None, dest="run_dir",
                        metavar="DIR",
                        help="stream fleet heartbeats to DIR/live.jsonl "
                             "and write DIR/summary.json")
    p_load.add_argument("--snapshot-out", default=None, dest="snapshot_out",
                        metavar="FILE",
                        help="write the final Prometheus rollup to FILE")
    p_load.add_argument("--series", action="store_true",
                        help="record per-session time series on the "
                             "telemetry tick; with --run-dir the shards "
                             "land in DIR/series/ for `repro plot`")
    p_load.add_argument("--dash", action="store_true",
                        help="render a live ANSI dashboard (sparklines, "
                             "SLO highlighting) on each heartbeat; "
                             "repaints in place on a TTY, stacks plain "
                             "frames otherwise")
    _add_slo_args(p_load)
    p_load.add_argument("--autoscale", action="store_true",
                        help="instead of one fixed fleet, probe the "
                             "largest fleet this machine sustains under "
                             "the pacing-p99 SLO (geometric ascent + "
                             "bisection) and write the ceiling artifact")
    p_load.add_argument("--autoscale-start", type=int, default=0,
                        dest="autoscale_start", metavar="N",
                        help="first fleet size tried (default: core count)")
    p_load.add_argument("--autoscale-max", type=int, default=64,
                        dest="autoscale_max", metavar="N",
                        help="fleet-size cap for the probe (default 64)")
    p_load.add_argument("--p99-limit", type=float, default=250.0,
                        dest="p99_limit", metavar="MS",
                        help="autoscale SLO: fleet pacing p99 bound in ms "
                             "(default 250)")
    p_load.add_argument("--autoscale-out", default="BENCH_live_ceiling.json",
                        dest="autoscale_out", metavar="FILE",
                        help="where to write the ceiling artifact "
                             "(default BENCH_live_ceiling.json)")
    p_load.set_defaults(func=cmd_load)

    p_tr = sub.add_parser(
        "trace",
        help="replay one session with telemetry and print span/metric "
             "timelines")
    p_tr.add_argument("--baseline", default="ace")
    p_tr.add_argument("--frame", type=int, default=None,
                      help="frame id whose span timeline to print")
    p_tr.add_argument("--worst", action="store_true",
                      help="print the worst end-to-end frame's span "
                           "(the default when no selector is given)")
    p_tr.add_argument("--metric", default=None,
                      help="print one registry metric's time series, e.g. "
                           "bucket.token_level_bytes")
    p_tr.add_argument("--kind", default=None,
                      help="filter the record log by kind "
                           "(span|metric|event)")
    p_tr.add_argument("--name", default=None,
                      help="filter the record log by name substring")
    p_tr.add_argument("--since", type=float, default=None,
                      help="only records at or after this session time")
    p_tr.add_argument("--until", type=float, default=None,
                      help="only records at or before this session time")
    p_tr.add_argument("--limit", type=int, default=50,
                      help="max records/samples to print (0 = all)")
    p_tr.add_argument("--out", default=None, metavar="DIR",
                      help="also write the JSONL event log + Prometheus "
                           "snapshot into DIR")
    p_tr.add_argument("--attrib", action="store_true",
                      help="print the session-level pacer-residence "
                           "attribution rollup (see `repro why`)")
    p_tr.add_argument("--profile", action="store_true",
                      help="self-profile the event loop and print the "
                           "per-event-type callback table")
    _add_common(p_tr)
    p_tr.set_defaults(func=cmd_trace)

    p_why = sub.add_parser(
        "why",
        help="attribute frames' pacer-residence latency to ACE-N "
             "decisions (frame blame)")
    p_why.add_argument("--baseline", default="ace")
    p_why.add_argument("--frame", type=int, default=None,
                       help="attribute this frame id instead of the worst")
    p_why.add_argument("--frames", type=int, default=3,
                       help="how many worst frames to show (default 3)")
    _add_common(p_why)
    p_why.set_defaults(func=cmd_why)

    p_rep = sub.add_parser(
        "report",
        help="roll a grid run directory into aggregate tables; diff two "
             "runs for regressions")
    p_rep.add_argument("run_dir", help="run directory from `repro grid "
                                       "--run-dir` / run_grid(run_dir=...)")
    p_rep.add_argument("--diff", default=None, metavar="OTHER_RUN_DIR",
                       help="compare against this run directory; exit 1 "
                            "on regressions")
    p_rep.add_argument("--tolerance", type=float, default=0.05,
                       help="relative worsening that counts as a "
                            "regression (default 0.05)")
    p_rep.set_defaults(func=cmd_report)

    p_grid = sub.add_parser(
        "grid",
        help="run a baselines x traces x seeds grid, optionally into a "
             "fleet run directory")
    p_grid.add_argument("--baselines", default="ace,webrtc-star",
                        help="comma-separated baseline names")
    p_grid.add_argument("--traces", default="wifi",
                        help="comma-separated trace kinds")
    p_grid.add_argument("--seeds", default="1,2,3",
                        help="comma-separated session seeds")
    p_grid.add_argument("--run-dir", default=None, dest="run_dir",
                        metavar="DIR",
                        help="write manifest/cells.jsonl/results/summary "
                             "into DIR for `repro report`")
    p_grid.add_argument("--arena", default=None, metavar="MIX",
                        help="sweep arena cells instead of single flows: "
                             "flow mix like 'ace*2+webrtc-star*2' "
                             "(';'-separated for several mixes); "
                             "--discipline may then be a comma list")
    p_grid.add_argument("--window", type=float, default=10.0,
                        help="fairness window in seconds (arena cells)")
    p_grid.add_argument("--series", action="store_true",
                        help="record per-cell time series (instrumented: "
                             "bypasses the cache); with --run-dir the "
                             "shards land in DIR/series/ for `repro plot`")
    _add_slo_args(p_grid)
    _add_common(p_grid, runner=True, rtt=False)
    p_grid.set_defaults(func=cmd_grid)

    p_plot = sub.add_parser(
        "plot",
        help="render recorded time-series shards into a self-contained "
             "HTML report of paper-style figures")
    p_plot.add_argument("target",
                        help="run dir (grid/load --series), series/ dir, "
                             "or one shard .json")
    p_plot.add_argument("--out", default=None, metavar="FILE",
                        help="output HTML path "
                             "(default <run-dir>/report.html)")
    p_plot.add_argument("--width", type=int, default=572, metavar="PX",
                        help="data-area pixel width per figure; also the "
                             "M4 downsampling budget (default 572)")
    p_plot.set_defaults(func=cmd_plot)

    p_watch = sub.add_parser(
        "watch",
        help="live ANSI dashboard polling a Prometheus stats endpoint "
             "(`repro load --stats-port`)")
    p_watch.add_argument("--url", default=None,
                         help="stats endpoint URL (overrides --stats-port)")
    p_watch.add_argument("--stats-port", type=int, default=None,
                         dest="stats_port", metavar="PORT",
                         help="poll http://127.0.0.1:PORT/")
    p_watch.add_argument("--interval", type=float, default=1.0,
                         help="seconds between polls (default 1)")
    p_watch.add_argument("--frames", type=int, default=0,
                         help="stop after N dashboard frames "
                              "(default 0: until Ctrl-C)")
    p_watch.set_defaults(func=cmd_watch)

    p_tl = sub.add_parser(
        "timeline",
        help="per-frame lifecycle CSV with pacer-blame columns")
    p_tl.add_argument("--baseline", default="ace")
    p_tl.add_argument("--out", default=None, metavar="FILE",
                      help="write the CSV here (atomic); default stdout")
    p_tl.add_argument("--no-blame", action="store_false", dest="blame",
                      help="drop the blame_* columns (skip pacer-residence "
                           "attribution)")
    _add_common(p_tl)
    p_tl.set_defaults(func=cmd_timeline)

    p_arena = sub.add_parser(
        "arena",
        help="run N flows over a shared bottleneck with pluggable AQM")
    p_arena.add_argument("--flows", default="ace*2+webrtc-star*2",
                         help="flow mix: base[*count][@start[:stop]] "
                              "joined by '+', e.g. ace*2+webrtc-star@5")
    p_arena.add_argument("--window", type=float, default=10.0,
                         help="fairness window in seconds")
    p_arena.add_argument("--telemetry-out", default=None, metavar="DIR",
                         dest="telemetry_out",
                         help="export arena telemetry (per-router and "
                              "per-flow queue gauges) into DIR")
    _add_common(p_arena, stack=False)
    p_arena.set_defaults(func=cmd_arena)

    p_sc = sub.add_parser("scenario",
                          help="run a named paper-experiment scenario")
    p_sc.add_argument("name", nargs="?", default=None,
                      help="scenario name (omit to list)")
    p_sc.add_argument("--seed", type=int, default=3)
    p_sc.add_argument("--duration", type=float, default=None)
    p_sc.add_argument("--category", default=None)
    p_sc.add_argument("--out", default=None,
                      help="write RunResult JSON to this path")
    p_sc.set_defaults(func=cmd_scenario)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Gate simulator performance against the committed baseline.

Compares a pytest-benchmark JSON dump of
``benchmarks/test_perf_simulator.py`` against the snapshot in
``BENCH_perf_simulator.json`` and exits non-zero when any bench's
minimum wall time regressed by more than ``--threshold`` (default
1.5x). Minima are compared — the most load-robust statistic on shared
CI machines.

Usage:

    PYTHONPATH=src python -m pytest benchmarks/test_perf_simulator.py \
        --benchmark-json=/tmp/bench.json
    python scripts/check_perf.py /tmp/bench.json          # gate
    python scripts/check_perf.py /tmp/bench.json --update # new baseline
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_SNAPSHOT = Path(__file__).resolve().parent.parent / \
    "BENCH_perf_simulator.json"
DEFAULT_THRESHOLD = 1.5

#: telemetry-overhead gate: the instrumented session bench is compared
#: against its telemetry-off twin from the *same run* (machine-
#: independent, unlike the absolute snapshot comparison).
TELEMETRY_BENCH = "test_perf_full_session_telemetry_on"
TELEMETRY_BASE_BENCH = "test_perf_full_session_throughput"
DEFAULT_TELEMETRY_OVERHEAD = 1.25

#: profiler-off gate: a session that attached and then detached the
#: event-loop self-profiler must run at the plain session's speed —
#: detaching restores the exact unprofiled dispatch path, so the
#: tolerance is tight (noise allowance only).
PROFILER_OFF_BENCH = "test_perf_full_session_profiler_off"
PROFILER_BASE_BENCH = "test_perf_full_session_throughput"
DEFAULT_PROFILER_OVERHEAD = 1.05

#: batch-engine speedup gates: the batch bench must beat its reference
#: twin *from the same run* by at least the floor factor. Two pairs:
#: the 20 Mbps session pair (ratio bounded by the shared decision-plane
#: code — GCC, ACE-N, rate control run identically on both engines, an
#: Amdahl floor measured at ~45% of reference wall time) and the
#: packet-heavy macro-step pair (~110 packets/frame, where the
#: vectorized pipeline's per-packet advantage dominates). The gate
#: exists to catch a *batch* regression, not to reward a slow reference:
#: PR 16 made the denominator's twin — the reference macro-step bench —
#: ~13 % faster (three events per packet, DESIGN §3b) with the batch
#: bench unchanged (66-98 ms both sides), so the floor was re-based on
#: the post-change ratio. Seven alternated same-box pairs: parent
#: 4.35-5.42x (median 4.95), change 2.96-4.44x (median 4.1); floor =
#: 4.1 x 0.8 = 3.3 (was 4.0 = 0.8 x ~5). The session pair read parent
#: 1.76-2.30x (median 1.98), change 1.61-1.94x (median 1.72): 1.3 holds.
#: PR 17 made the numerator's twin faster instead: the exact drop-tail
#: admission scan keeps frames larger than the queue on the vector lane
#: (DESIGN §10), batch macro-step bench 78-165 ms -> 60-94 ms with the
#: reference bench unchanged. Fifteen alternated same-box pairs: parent
#: 2.77-5.46x (median 3.62), change 4.44-7.32x (median 5.64); floor =
#: 5.64 x 0.8 = 4.5. Session pair: parent 1.26-2.64x (median 2.06),
#: change 1.23-2.68x (median 1.98), one sub-floor reading a side on a
#: loaded box — 1.3 stays.
BATCH_SESSION_BENCH = "test_perf_batch_session_throughput"
BATCH_SESSION_BASE = "test_perf_full_session_throughput"
DEFAULT_BATCH_SESSION_SPEEDUP = 1.3
BATCH_MACRO_BENCH = "test_perf_batch_macro_step"
BATCH_MACRO_BASE = "test_perf_reference_macro_step"
DEFAULT_BATCH_MACRO_SPEEDUP = 4.5


#: live-load gate defaults: N concurrent loopback sessions on one event
#: loop must keep the fleet p99 pacing delay (time from a packet's
#: pacer-release decision to its socket write) under the bound. The
#: bound is deliberately loose — shared CI machines add scheduling
#: noise — but catches the failure mode that matters: timer leaks or
#: per-session O(fleet) work stacking up until pacing collapses.
DEFAULT_LIVE_SESSIONS = 8
DEFAULT_LIVE_DURATION = 2.0
DEFAULT_LIVE_P99_MS = 250.0

#: autoscale gate defaults: the ceiling probe (geometric ascent +
#: bisection over short live fleets, see repro.live.autoscale) must
#: find at least this many sustainable sessions per core. The floor is
#: conservative — one session per core is table stakes; the probe's
#: value is the *artifact* (BENCH_live_ceiling.json + the history
#: line), which records what the box actually sustained over time.
DEFAULT_AUTOSCALE_FLOOR = 1.0
DEFAULT_AUTOSCALE_MAX = 16
DEFAULT_AUTOSCALE_DURATION = 1.0
DEFAULT_CEILING_ARTIFACT = Path(__file__).resolve().parent.parent / \
    "BENCH_live_ceiling.json"

#: every check_perf invocation appends one JSON line here (gate
#: results, bench minima, live-load / autoscale outcomes) so perf
#: history accumulates across CI runs instead of vanishing with each
#: job. CI uploads it as an artifact.
DEFAULT_HISTORY = Path(__file__).resolve().parent.parent / \
    "BENCH_history.jsonl"


def load_mins(bench_json: Path) -> dict[str, float]:
    """Per-bench minimum seconds from a pytest-benchmark dump."""
    data = json.loads(bench_json.read_text())
    return {b["name"]: float(b["stats"]["min"]) for b in data["benchmarks"]}


def append_history(path: Path, record: dict) -> None:
    """Append one run record to the bench-history JSONL file."""
    import time

    record = {"at": round(time.time(), 3), **record}
    with path.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def check_autoscale(floor: float, max_sessions: int, duration: float,
                    artifact: Path) -> tuple[bool, dict]:
    """Probe the sessions/core ceiling and gate it against ``floor``.

    Returns ``(ok, result)``; the probe artifact is written either way
    so a failing box still leaves evidence of what it sustained.
    """
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.live.autoscale import AutoscaleConfig, run_autoscale

    result = run_autoscale(
        AutoscaleConfig(max_sessions=max_sessions, duration=duration),
        echo=lambda line: print(f"       {line}"),
        artifact_path=str(artifact))
    per_core = result["sessions_per_core"]
    ok = per_core >= floor
    status = "ok" if ok else "FAIL"
    state = ("converged" if result["converged"]
             else "at cap" if result["at_cap"] else "not converged")
    print(f"  {status:>4} live-autoscale: ceiling "
          f"{result['ceiling_sessions']} sessions "
          f"({per_core:.2f}/core, {state}; floor {floor:g}/core) "
          f"-> {artifact}")
    return ok, result


def check_live_load(sessions: int, duration: float,
                    p99_ms: float) -> tuple[bool, dict]:
    """Run the multi-session live supervisor and gate fleet pacing p99.

    Returns ``(ok, digest)``. Runs in-process (sys.path gets src/) so
    the gate exercises exactly the working tree under test.
    """
    import os

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.live.server import LoadConfig, run_load

    cores = os.cpu_count() or 1
    supervisor = run_load(LoadConfig(
        sessions=sessions, mix=("ace",), ramp=0.0,
        duration=duration, drain=0.3))
    summary = supervisor.summary
    failed = summary["failed"]
    p99 = summary["pacing_p99_ms"]
    ok = failed == 0 and p99 is not None and p99 <= p99_ms
    status = "ok" if ok else "FAIL"
    print(f"  {status:>4} live-load: {sessions} sessions "
          f"({sessions / cores:.1f}/core), {summary['completed']} completed, "
          f"{failed} failed; fleet pacing p99 "
          f"{'-' if p99 is None else f'{p99:.2f} ms'} "
          f"(limit {p99_ms:g} ms)")
    digest = {
        "ok": ok, "sessions": sessions, "completed": summary["completed"],
        "failed": failed, "pacing_p99_ms": p99, "limit_ms": p99_ms,
        "cpu_total_s": summary.get("cpu_total_s"),
        "rss_mb": summary.get("rss_mb"),
    }
    return ok, digest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench_json", type=Path, nargs="?", default=None,
                        help="pytest-benchmark --benchmark-json output "
                             "(optional with --live-load)")
    parser.add_argument("--live-load", action="store_true", dest="live_load",
                        help="also run the multi-session live-load gate: "
                             "N concurrent loopback sessions on one event "
                             "loop, fleet pacing p99 under --live-p99-ms")
    parser.add_argument("--live-sessions", type=int,
                        default=DEFAULT_LIVE_SESSIONS, dest="live_sessions")
    parser.add_argument("--live-duration", type=float,
                        default=DEFAULT_LIVE_DURATION, dest="live_duration",
                        help="media seconds per live-load session")
    parser.add_argument("--live-p99-ms", type=float,
                        default=DEFAULT_LIVE_P99_MS, dest="live_p99_ms",
                        help="fleet pacing-delay p99 bound in ms "
                             f"(default {DEFAULT_LIVE_P99_MS:g})")
    parser.add_argument("--snapshot", type=Path, default=DEFAULT_SNAPSHOT)
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="fail when min time exceeds baseline x this "
                             f"(default {DEFAULT_THRESHOLD})")
    parser.add_argument("--telemetry-overhead", type=float,
                        default=DEFAULT_TELEMETRY_OVERHEAD,
                        dest="telemetry_overhead",
                        help="fail when the telemetry-on session bench "
                             "exceeds the telemetry-off one by more than "
                             f"this factor (default "
                             f"{DEFAULT_TELEMETRY_OVERHEAD})")
    parser.add_argument("--profiler-overhead", type=float,
                        default=DEFAULT_PROFILER_OVERHEAD,
                        dest="profiler_overhead",
                        help="fail when the profiler-off session bench "
                             "exceeds the plain one by more than this "
                             f"factor (default {DEFAULT_PROFILER_OVERHEAD})")
    parser.add_argument("--batch-session-speedup", type=float,
                        default=DEFAULT_BATCH_SESSION_SPEEDUP,
                        dest="batch_session_speedup",
                        help="fail when the batch-engine session bench is "
                             "not at least this much faster than the "
                             "reference one from the same run (default "
                             f"{DEFAULT_BATCH_SESSION_SPEEDUP})")
    parser.add_argument("--batch-macro-speedup", type=float,
                        default=DEFAULT_BATCH_MACRO_SPEEDUP,
                        dest="batch_macro_speedup",
                        help="fail when the batch-engine macro-step bench "
                             "is not at least this much faster than its "
                             "reference twin from the same run (default "
                             f"{DEFAULT_BATCH_MACRO_SPEEDUP})")
    parser.add_argument("--live-autoscale", action="store_true",
                        dest="live_autoscale",
                        help="also probe the sessions/core ceiling "
                             "(repro.live.autoscale) and gate it against "
                             "--autoscale-floor; writes --ceiling-out")
    parser.add_argument("--autoscale-floor", type=float,
                        default=DEFAULT_AUTOSCALE_FLOOR,
                        dest="autoscale_floor",
                        help="minimum sustainable sessions per core "
                             f"(default {DEFAULT_AUTOSCALE_FLOOR:g})")
    parser.add_argument("--autoscale-max", type=int,
                        default=DEFAULT_AUTOSCALE_MAX, dest="autoscale_max",
                        help="fleet-size cap for the ceiling probe "
                             f"(default {DEFAULT_AUTOSCALE_MAX})")
    parser.add_argument("--autoscale-duration", type=float,
                        default=DEFAULT_AUTOSCALE_DURATION,
                        dest="autoscale_duration",
                        help="media seconds per probe round "
                             f"(default {DEFAULT_AUTOSCALE_DURATION:g})")
    parser.add_argument("--ceiling-out", type=Path,
                        default=DEFAULT_CEILING_ARTIFACT, dest="ceiling_out",
                        help="where the ceiling artifact is written")
    parser.add_argument("--history", type=Path, default=DEFAULT_HISTORY,
                        help="bench-history JSONL every run appends to")
    parser.add_argument("--no-history", action="store_true",
                        dest="no_history",
                        help="skip the bench-history append")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the snapshot from bench_json and exit")
    args = parser.parse_args(argv)

    record: dict = {"kind": "check_perf", "argv": list(argv or sys.argv[1:])}

    def finish(code: int) -> int:
        record["exit_code"] = code
        if not args.no_history:
            append_history(args.history, record)
        return code

    live_ok = True
    if args.live_load:
        live_ok, record["live_load"] = check_live_load(
            args.live_sessions, args.live_duration, args.live_p99_ms)
    autoscale_ok = True
    if args.live_autoscale:
        autoscale_ok, autoscale = check_autoscale(
            args.autoscale_floor, args.autoscale_max,
            args.autoscale_duration, args.ceiling_out)
        record["autoscale"] = {
            "ok": autoscale_ok,
            "ceiling_sessions": autoscale["ceiling_sessions"],
            "sessions_per_core": autoscale["sessions_per_core"],
            "cores": autoscale["cores"],
            "converged": autoscale["converged"],
            "at_cap": autoscale["at_cap"],
        }
    if args.bench_json is None:
        if not (args.live_load or args.live_autoscale):
            parser.error("need a bench_json dump, --live-load, "
                         "and/or --live-autoscale")
        if live_ok and autoscale_ok:
            print("check_perf: live gate(s) passed")
            return finish(0)
        print("check_perf: live gate(s) failed", file=sys.stderr)
        return finish(1)

    current = load_mins(args.bench_json)
    record["benches"] = {k: round(v, 6) for k, v in sorted(current.items())}
    if not current:
        print("check_perf: no benchmarks in dump", file=sys.stderr)
        return finish(2)

    if args.update:
        snap = {
            "_comment": "Committed perf baseline for "
                        "benchmarks/test_perf_simulator.py; min wall-clock "
                        "seconds per bench. Regenerate with "
                        "scripts/check_perf.py --update <benchmark-json>.",
            "benchmarks": {k: round(v, 6) for k, v in current.items()},
        }
        args.snapshot.write_text(json.dumps(snap, indent=2, sort_keys=True)
                                 + "\n")
        print(f"check_perf: wrote {len(current)} baselines "
              f"to {args.snapshot}")
        return finish(0)

    baseline = json.loads(args.snapshot.read_text())["benchmarks"]
    failures = []
    for name in sorted(baseline):
        if name not in current:
            print(f"  skip {name}: not in this run (marker/skip?)")
            continue
        ratio = current[name] / baseline[name]
        status = "FAIL" if ratio > args.threshold else "ok"
        print(f"  {status:>4} {name}: {current[name] * 1e3:.2f} ms "
              f"vs baseline {baseline[name] * 1e3:.2f} ms ({ratio:.2f}x)")
        if ratio > args.threshold:
            failures.append(name)
    for name in sorted(set(current) - set(baseline)):
        print(f"  new  {name}: {current[name] * 1e3:.2f} ms (no baseline)")

    if TELEMETRY_BENCH in current and TELEMETRY_BASE_BENCH in current:
        ratio = current[TELEMETRY_BENCH] / current[TELEMETRY_BASE_BENCH]
        status = "FAIL" if ratio > args.telemetry_overhead else "ok"
        print(f"  {status:>4} telemetry overhead: "
              f"{current[TELEMETRY_BENCH] * 1e3:.2f} ms on vs "
              f"{current[TELEMETRY_BASE_BENCH] * 1e3:.2f} ms off "
              f"({ratio:.2f}x, limit {args.telemetry_overhead}x)")
        if ratio > args.telemetry_overhead:
            failures.append("telemetry-overhead")

    if PROFILER_OFF_BENCH in current and PROFILER_BASE_BENCH in current:
        ratio = current[PROFILER_OFF_BENCH] / current[PROFILER_BASE_BENCH]
        status = "FAIL" if ratio > args.profiler_overhead else "ok"
        print(f"  {status:>4} profiler-off overhead: "
              f"{current[PROFILER_OFF_BENCH] * 1e3:.2f} ms detached vs "
              f"{current[PROFILER_BASE_BENCH] * 1e3:.2f} ms plain "
              f"({ratio:.2f}x, limit {args.profiler_overhead}x)")
        if ratio > args.profiler_overhead:
            failures.append("profiler-off-overhead")

    for batch, base, floor, tag in (
            (BATCH_SESSION_BENCH, BATCH_SESSION_BASE,
             args.batch_session_speedup, "batch-session-speedup"),
            (BATCH_MACRO_BENCH, BATCH_MACRO_BASE,
             args.batch_macro_speedup, "batch-macro-speedup")):
        if batch in current and base in current:
            speedup = current[base] / current[batch]
            status = "FAIL" if speedup < floor else "ok"
            print(f"  {status:>4} {tag}: reference "
                  f"{current[base] * 1e3:.2f} ms vs batch "
                  f"{current[batch] * 1e3:.2f} ms "
                  f"({speedup:.2f}x, floor {floor}x)")
            if speedup < floor:
                failures.append(tag)

    if not live_ok:
        failures.append("live-load")
    if not autoscale_ok:
        failures.append("live-autoscale")
    record["failures"] = list(failures)
    if failures:
        print(f"check_perf: {len(failures)} regression(s) beyond "
              f"{args.threshold}x: {', '.join(failures)}", file=sys.stderr)
        return finish(1)
    print("check_perf: all benches within threshold")
    return finish(0)


if __name__ == "__main__":
    sys.exit(main())

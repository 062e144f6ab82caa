"""The traced pass: per-layer numbers for one workload, in one child.

Never used for end-to-end numbers. The child first runs untraced
repetitions (the base of ``trace.overhead_ratio``, and the source of the
end-to-end numbers that only one kind of workload defines), then the
engine twins and other side runs the named extras need, then installs
:mod:`perfbench.trace` and runs one traced repetition. On workloads that
ask for the reference engine it also attaches the repo's
``LoopProfiler`` and cross-checks its event count; on workloads that ask
for the batch engine it attaches nothing ``ineligible_reason`` can see,
so tracing never changes which engine runs.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perfbench import calibrate
from perfbench.harness import ROOT, cpu_seconds, timed_rep
from perfbench.probe import overhead_s, percentile
from perfbench.spec import DECISION_PLANE, EXTRAS, LAYERS
from perfbench.workloads import divergence, headline

#: spans written to ``trace_<workload>.json`` (all are kept in memory
#: and counted; the file holds the head of the run).
SPANS_WRITTEN = 20_000


def traced_pass(workload, variants: list, args: dict, pins, probe) -> dict:
    """Everything below runs on variant 0 of the workload's inputs."""
    from repro.net.packet import DEFAULT_PAYLOAD_BYTES

    from perfbench import trace

    inputs = variants[0]
    extras = dict.fromkeys(EXTRAS, 0.0)
    kernel = calibrate.measure()
    reps = []
    for _ in range(1 if workload.kind in ("grid", "live") else 2):
        if probe is not None:
            probe.samples.clear()
        record, kernel = timed_rep(workload, variants, 0, kernel, pins)
        reps.append(record)
    base = reps[-1]
    base_cpu = statistics.median(r["cpu_s"] for r in reps)
    notes = [n for r in reps for n in r["notes"]]

    if workload.kind == "live":
        _live_extras(extras, workload, inputs, probe, base)
    if workload.kind == "grid":
        _grid_extras(extras, workload, base)
    if workload.kind == "sim":
        _twin_extras(extras, workload, inputs, base_cpu)
        extras["rtc.session.build_ms"] = 1e3 * statistics.median(
            r["info"]["build_s"] for r in reps)
    extras.update(_cli_times())

    profiler = None

    def attach_profiler(session) -> None:
        nonlocal profiler
        from repro.obs.profiler import LoopProfiler
        profiler = session.loop.set_profiler(LoopProfiler())

    hook = attach_profiler if workload.engine == "reference" \
        and workload.kind in ("sim", "arena") else None
    if probe is not None:
        probe.samples.clear()
    tracer = trace.install()
    try:
        run = (lambda i: workload.run(i, before_run=hook)) if hook else None
        traced, kernel = timed_rep(workload, variants, 0, kernel, pins,
                                   run=run)
    finally:
        tracer.remove()
    notes += traced["notes"]
    if profiler is not None and profiler.total_events != traced["events"]:
        notes.append(f"LoopProfiler saw {profiler.total_events} events, the "
                     f"loop processed {traced['events']}")

    layers = tracer.layer_table()
    attributed = sum(row["self_s"] for row in layers.values()) or 1.0
    for row in layers.values():
        row["share"] = row["self_s"] / attributed
    info, packets = traced["info"], max(traced["packets"], 1)
    steps = tracer.calls_of("sim.batch:BatchPipeline.run_until",
                            "sim.batch:BatchPipeline.drain_to")
    extras.update({
        "sim.events.ns_per_event": (
            1e9 * layers["sim.events"]["self_s"] / traced["events"]
            if traced["events"] else 0.0),
        "sim.batch.fallback": float(workload.engine == "batch" and bool(
            info.get("fallback_reason"))),
        "sim.batch.pkts_per_step": packets / steps if steps else 0.0,
        "decision_plane.share": sum(layers[name]["share"]
                                    for name in DECISION_PLANE),
        "transport.pacer.backlog_max_pkts":
            info.get("backlog_max_bytes", 0) / DEFAULT_PAYLOAD_BYTES,
        "net.link.drops": float(info.get("link_drops", 0)),
        "net.link.fastpath_bypass_ratio":
            tracer.calls_of("net.link:Link.send") / packets,
        "net.aqm.drops": float(info.get("aqm_drops", 0)),
        "transport.feedback.retransmit_ratio":
            info.get("retransmitted", 0) / packets,
        "trace.overhead_ratio": traced["cpu_s"] / base_cpu,
        "ops_failed_ratio": (
            sum(r["failed"] for r in reps + [traced])
            / sum(r["attempted"] for r in reps + [traced])),
        "cpu_s": statistics.median(r["cal_cpu_s"] for r in reps),
        "speed_x": statistics.median(r["sim_seconds"] / r["cal_cpu_s"]
                                     for r in reps),
        "frames_per_cpu_s": statistics.median(r["frames"] / r["cal_cpu_s"]
                                              for r in reps),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "sim_events_per_packet": (base["events"] / base["packets"]
                                  if base["events"] and base["packets"]
                                  else 0.0),
        "host.kernel_ms": 1e3 * statistics.median(
            r["kernel_s"] for r in reps + [traced]),
    })

    out_dir = Path(args.get("out") or ROOT / "perfbench" / "out")
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_file = out_dir / f"trace_{workload.name}.json"
    trace_file.write_text(json.dumps({
        "workload": workload.name, "seed": args["seed"],
        "fallback_reason": info.get("fallback_reason"),
        "span_overhead_ns": tracer.overhead_ns,
        "spans_total": tracer._next_id,
        "spans_written": min(SPANS_WRITTEN, len(tracer.span_id)),
        "layers": layers,
        "callables": dict(zip(tracer.callables, tracer.callable_calls)),
        "loop_profiler": (None if profiler is None else {
            "events": profiler.total_events,
            "callback_s": profiler.total_wall_s,
            "components": {name: list(pair) for name, pair
                           in profiler.component_totals().items()}}),
        "columns": ["id", "callable", "start_ns", "end_ns", "parent"],
        "spans": tracer.spans(SPANS_WRITTEN),
    }))
    return {"reps": reps, "traced": traced, "layers": layers,
            "extras": extras, "notes": notes,
            "fallback_reason": info.get("fallback_reason"),
            "trace_file": str(trace_file)}


def _twin_extras(extras: dict, workload, inputs: dict,
                 base_cpu: float) -> None:
    """Both engines, unobserved, on the workload's own inputs."""
    stats = {}
    cpu = {}
    for engine in ("reference", "batch"):
        c0 = cpu_seconds()
        _session, _metrics, result, _build = workload.twin(inputs, engine)
        cpu[engine] = cpu_seconds() - c0
        stats[engine] = headline(result)
    extras["sim.batch.divergence_rel"] = divergence(stats["reference"],
                                                    stats["batch"])
    if workload.observe:
        extras["obs.overhead_ratio"] = base_cpu / cpu["reference"]


def _grid_extras(extras: dict, workload, base: dict) -> None:
    info = base["info"]
    cells = info["cells"]
    phases = dict(zip(workload.phases, base["segments"]))
    extras.update({
        "analysis.cache.hit_ratio":
            info["cache_hits"] / info["cache_lookups"],
        "analysis.cache.bytes_per_cell": info["bytes_per_cell"],
        "bench.parallel.speedup_jn":
            phases["cold_j1"]["wall_s"] / phases["cold_jn"]["wall_s"],
        "cells_per_min_j1": 60.0 * cells / phases["cold_j1"]["wall_s"],
        "cells_per_min_jn": 60.0 * cells / phases["cold_jn"]["wall_s"],
        "warm_cells_per_min":
            60.0 * info["warm_cells"] / phases["warm"]["wall_s"],
    })


def _live_extras(extras: dict, workload, inputs: dict, probe,
                 base: dict) -> None:
    """Lateness per pacer type; a solo always-burst round adds the third."""
    by_kind: dict = {}
    for key, late in probe.samples:
        kind = base["info"]["clocks"].get(str(key))
        if kind is not None:
            by_kind.setdefault(kind, []).append(late * 1e3)
    late = probe.lateness_ms()
    callbacks = len(late)
    probe.samples.clear()
    solo = workload.run(inputs, workload.config(
        inputs, media_s=2.0, mix=("always-burst",), sessions=1))
    by_kind["burst"] = probe.lateness_ms(solo.records[0].session.clock)
    for kind in ("token", "leaky", "burst"):
        extras[f"live.clock.late_p50_ms.{kind}"] = percentile(
            sorted(by_kind.get(kind, [])), 50)
    extras.update({
        "late_p50_ms": percentile(late, 50),
        "late_p90_ms": percentile(late, 90),
        "live.clock.late_p99_ms": percentile(late, 99),
        "live.clock.probe_share": overhead_s(callbacks) / base["cpu_s"],
        "live.wire.ipg_err_p50": base["info"]["ipg_err_p50_ms"],
    })


def _cli_times() -> dict:
    """Cold start of the CLI, as a user's shell pays it."""
    env_path = str(ROOT / "src")
    out = {}
    for name, argv in (
            ("cli.cold_start_s", ["-m", "repro", "--help"]),
            ("cli.import_s", ["-c", "import repro.cli"])):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *argv], check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       env={"PYTHONPATH": env_path, "PATH": ""}, timeout=60)
        out[name] = time.perf_counter() - t0
    return out


def layer_metrics(child: dict) -> dict:
    """Flatten a traced child's output into ``name -> value``."""
    metrics = {}
    for layer in LAYERS:
        row = child["layers"][layer]
        metrics[f"{layer}.calls"] = row["calls"]
        metrics[f"{layer}.self_s"] = row["self_s"]
        metrics[f"{layer}.share"] = row["share"]
    metrics.update(child["extras"])
    return metrics

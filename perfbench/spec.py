"""Names of everything the benchmark prints: workloads, metrics, units.

``BENCHMARK.json`` carries the same names (``tests/test_perfbench.py``
checks the two agree); this module is what the code imports, so a
misspelt metric fails at import time and not in a report.
"""

from __future__ import annotations

#: workload name -> one-line reason (copied into BENCHMARK.json).
WORKLOADS = {
    "ref_packet":
        "ace, const 100 Mbps, reference engine: ~110 packets/frame, so the "
        "per-packet plane (sim.events, pacer, link, receiver) does the work",
    "batch_packet":
        "same traffic on the batch engine: sim.events is idle, so a "
        "heap/dispatch change must show nothing here and a macro-step "
        "change only here",
    "ref_decision":
        "ace, const 2.5 Mbps, 60 fps, reference engine: ~4 packets/frame, "
        "so per-frame/per-feedback work (video, ACE-C, GCC, ACE-N) dominates",
    "impaired_fallback":
        "ace on wifi trace with loss, jitter, cross traffic, audio; batch "
        "requested, falls back: the share of traffic that leaves the fast "
        "path (NACK/RTX, loss RNG)",
    "arena_mix":
        "4 flows (ace, webrtc-star, always-burst, late ace) over one "
        "confucius router: only place net.aqm and arena run; three pacer "
        "types share one loop",
    "observed":
        "ace, const 20 Mbps, batch requested, telemetry + SLO watchdog + "
        "series attached (falls back): obs does the marginal work, the "
        "other seven must not move",
    "grid_sweep":
        "16-cell grid: cold jobs=1, then 8 warm passes over the cache, then "
        "cold jobs=N: bench.parallel + analysis.cache, cache writes beside "
        "cache reads",
    "live_fleet":
        "min(nproc,2) live sessions (ace, webrtc-star) on WallClock + UDP "
        "over host loopback, open loop: the shared stack off the simulator",
}

#: gated metrics, printed by every workload with ``--trace 0``:
#: name -> (unit, better, bound). Times are calibrated seconds (see
#: :mod:`perfbench.calibrate`). The speed gate is per unit of work:
#: how many packets a session sends depends on its seed (+-8 % to
#: +-30 %), so seconds per repetition move with ``--seed`` and
#: microseconds per packet do not.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "us_per_packet": ("us", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.10),
}

#: layer names, in pipeline order. Each yields ``<layer>.calls``,
#: ``<layer>.self_s`` and ``<layer>.share``.
LAYERS = (
    "sim.events", "sim.batch",
    "video.source", "video.codec",
    "core.ace_c", "core.ace_n", "core.queue_estimator", "transport.cc",
    "rtc.sender", "rtc.session",
    "transport.rtp", "transport.pacer",
    "net.path", "net.link", "net.aqm", "arena",
    "transport.receiver", "transport.feedback",
    "obs",
    "bench.parallel", "analysis.cache",
    "live.clock", "live.transport", "live.wire", "live.impairment",
)

#: layers whose shares sum to ``decision_plane.share``.
DECISION_PLANE = ("video.source", "video.codec", "core.ace_c", "core.ace_n",
                  "core.queue_estimator", "transport.cc", "rtc.sender")

#: named per-layer extras: name -> (unit, better). 0 means "does not
#: apply to this workload" throughout.
EXTRAS = {
    "sim.events.ns_per_event": ("ns", "lower"),
    "sim.batch.fallback": ("count", "lower"),
    "sim.batch.pkts_per_step": ("count", "higher"),
    "sim.batch.divergence_rel": ("ratio", "lower"),
    "decision_plane.share": ("ratio", "lower"),
    "rtc.session.build_ms": ("ms", "lower"),
    "transport.pacer.backlog_max_pkts": ("count", "lower"),
    "net.link.drops": ("count", "lower"),
    "net.link.fastpath_bypass_ratio": ("ratio", "lower"),
    "net.aqm.drops": ("count", "lower"),
    "transport.feedback.retransmit_ratio": ("ratio", "lower"),
    "obs.overhead_ratio": ("ratio", "lower"),
    "analysis.cache.hit_ratio": ("ratio", "higher"),
    "analysis.cache.bytes_per_cell": ("B", "lower"),
    "bench.parallel.speedup_jn": ("x", "higher"),
    "live.clock.late_p99_ms": ("ms", "lower"),
    "live.clock.late_p50_ms.token": ("ms", "lower"),
    "live.clock.late_p50_ms.leaky": ("ms", "lower"),
    "live.clock.late_p50_ms.burst": ("ms", "lower"),
    "live.clock.probe_share": ("ratio", "lower"),
    "live.wire.ipg_err_p50": ("ms", "lower"),
    "cli.cold_start_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    # End-to-end numbers that cannot be gated: they move with the seed
    # (seconds per repetition), only one kind of workload defines them,
    # or they are exact counts. The driver's contract wants every gated
    # metric from every workload, never zero, and steady across seeds,
    # so these ride in the traced pass, measured there on untraced
    # repetitions.
    "ops_failed_ratio": ("ratio", "lower"),
    "cpu_s": ("s", "lower"),
    "speed_x": ("x", "higher"),
    "frames_per_cpu_s": ("1/s", "higher"),
    "wall_s": ("s", "lower"),
    "sim_events_per_packet": ("count", "lower"),
    "cells_per_min_j1": ("1/min", "higher"),
    "cells_per_min_jn": ("1/min", "higher"),
    "warm_cells_per_min": ("1/min", "higher"),
    "late_p50_ms": ("ms", "lower"),
    "late_p90_ms": ("ms", "lower"),
    "host.kernel_ms": ("ms", "lower"),
}


def per_layer() -> dict:
    """Every per-layer metric name -> (unit, better), in print order."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = ("count", "lower")
        out[f"{layer}.self_s"] = ("s", "lower")
        out[f"{layer}.share"] = ("ratio", "lower")
    out.update(EXTRAS)
    return out


#: seconds one run measures (BENCHMARK.json ``run_seconds``).
RUN_SECONDS = 12

#: the seed ``expected.json`` is pinned for.
DEFAULT_SEED = 3


def benchmark_json() -> dict:
    """The contents of the root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in per_layer().items()],
    }

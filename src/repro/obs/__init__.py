"""repro.obs — unified telemetry for sim and live sessions.

One subsystem answers "where did the time go?" at runtime instead of
post-hoc: frame-lifecycle spans (capture -> encode -> packetize ->
pacer-enqueue -> wire -> reassembly -> display), a metric registry the
pacing/control components publish into, a bounded flight recorder the
invariant auditor dumps on violation, and exporters (JSONL event log,
Prometheus-style text snapshot, CLI timelines).

Everything here is a pure observer: telemetry never draws randomness,
never mutates component state, and never advances lazy-refill token
arithmetic — a session with telemetry attached is bit-identical to one
without (guarded by the golden fingerprints in
``tests/test_sim_regression.py``).

Beyond the single session, the subsystem scales in two directions:
*down* into the event loop (:mod:`repro.obs.profiler` counts and times
every dispatched callback) and causal attribution
(:mod:`repro.obs.attrib` partitions each frame's pacer residence across
the ACE-N decisions active while it waited), and *up* to the fleet
(:mod:`repro.obs.fleet` gives grid runs manifests, heartbeats, and
diffable run directories).
"""

from importlib import import_module

#: submodule -> the public names it defines. Submodules load on first
#: use, so a caller of one helper (the result cache writing through
#: ``repro.obs.atomicio``) does not load the whole telemetry stack.
_SUBMODULES = {
    "atomicio": "atomic_write_text",
    "burst": "BurstAnalyzer",
    "dash": "FleetDashboard parse_prometheus record_from_prometheus sparkline",
    "timeseries": ("SeriesFrame SeriesRecorder load_shard m4_downsample "
                   "max_divergence_window rate_series"),
    "quantiles": "clean_samples histogram_quantile percentile percentiles",
    "resources": "process_rss_bytes",
    "slo": "SloRule SloWatchdog fleet_slo_rules session_slo_rules",
    "attrib": ("BLAME_CATEGORIES BlameSegment FrameBlame SessionAttribution "
               "attribute_frames attribute_metrics attribute_session "
               "render_frame_blame render_rollup"),
    "fleet": ("FleetObserver LiveFleetLog build_manifest diff_runs load_run "
              "report_run"),
    "profiler": "LoopProfiler ProfileEntry",
    "recorder": "FlightRecorder Telemetry TelemetryRecord",
    "registry": "Counter Gauge Histogram MetricRegistry",
    "spans": "SPAN_STAGES FrameSpan SpanBook",
    "export": ("filter_records prometheus_rollup prometheus_snapshot "
               "render_record render_span_timeline write_export_dir "
               "write_jsonl write_snapshot"),
    "wiring": "instrument_arena instrument_stack",
}
_EXPORTS = {name: module for module, names in _SUBMODULES.items()
            for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"repro.obs.{module}"), name)
    globals()[name] = value
    return value

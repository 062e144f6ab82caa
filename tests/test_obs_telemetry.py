"""Tests for the repro.obs telemetry subsystem.

Covers the metric registry instruments, frame spans, the flight
recorder, the exporters, full-session wiring (span/metric reconciliation
against ``SessionMetrics``), the auditor's flight-recorder dump, and the
``REPRO_TELEMETRY`` environment switch.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.net.trace import BandwidthTrace
from repro.obs import (
    FlightRecorder,
    FrameSpan,
    MetricRegistry,
    SpanBook,
    Telemetry,
    TelemetryRecord,
    filter_records,
    prometheus_snapshot,
    render_span_timeline,
    write_export_dir,
    write_jsonl,
)
from repro.rtc.baselines import build_session
from repro.rtc.session import SessionConfig
from repro.sim.events import EventLoop


def run_telemetry_session(baseline="ace", duration=2.0, seed=5, **cfg):
    trace = BandwidthTrace.constant(8e6, duration=duration + 15)
    config = SessionConfig(duration=duration, seed=seed, **cfg)
    session = build_session(baseline, trace, config)
    telemetry = session.enable_telemetry()
    metrics = session.run()
    return session, telemetry, metrics


# ---------------------------------------------------------------------------
# registry instruments
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_counter_records_every_bump(self):
        seen = []
        reg = MetricRegistry(record=lambda k, n, v: seen.append((k, n, v)))
        c = reg.counter("x.count")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        assert seen == [("metric", "x.count", 1.0), ("metric", "x.count", 3.5)]

    def test_gauge_records_only_on_change(self):
        seen = []
        reg = MetricRegistry(record=lambda k, n, v: seen.append(v))
        g = reg.gauge("x.level")
        g.set(5.0)
        g.set(5.0)  # duplicate: suppressed
        g.set(7.0)
        assert seen == [5.0, 7.0]
        assert g.value == 7.0

    def test_sampled_gauge_polls_its_source(self):
        state = {"v": 1.0}
        reg = MetricRegistry()
        reg.gauge("x.sampled", sample_fn=lambda: state["v"])
        reg.sample_all()
        assert reg.gauge("x.sampled").value == 1.0
        state["v"] = 4.0
        reg.sample_all()
        assert reg.gauge("x.sampled").value == 4.0

    def test_registration_is_idempotent(self):
        reg = MetricRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")
        assert reg.names() == ["a", "b", "c"]

    def test_histogram_buckets_and_cumulative(self):
        reg = MetricRegistry()
        h = reg.histogram("lat", buckets=(0.1, 0.5))
        for v in (0.05, 0.2, 0.2, 0.9, float("nan")):
            h.observe(v)
        assert h.count == 4  # NaN dropped
        cumulative = h.cumulative()
        assert cumulative == [(0.1, 1), (0.5, 3), (math.inf, 4)]
        assert h.sum == pytest.approx(0.05 + 0.2 + 0.2 + 0.9)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------
class TestSpans:
    def test_durations_and_e2e(self):
        span = FrameSpan(0)
        for stage, t in (("capture", 1.0), ("encode_end", 1.01),
                         ("pacer_enqueue", 1.01), ("wire_last", 1.03),
                         ("complete", 1.05), ("displayed", 1.053)):
            span.stage(stage, t)
        d = span.durations()
        assert d["encode"] == pytest.approx(0.01)
        assert d["pacing"] == pytest.approx(0.02)
        assert d["network"] == pytest.approx(0.02)
        assert d["decode"] == pytest.approx(0.003)
        assert span.e2e() == pytest.approx(0.053)
        assert span.complete

    def test_missing_stage_yields_none(self):
        span = FrameSpan(0)
        span.stage("capture", 0.0)
        assert span.durations()["pacing"] is None
        assert span.e2e() is None
        assert not span.complete

    def test_book_worst_e2e(self):
        book = SpanBook()
        for fid, e2e in ((0, 0.05), (1, 0.2), (2, 0.1)):
            book.stage(fid, "capture", 0.0)
            book.stage(fid, "displayed", e2e)
        assert book.worst_e2e().frame_id == 1
        assert len(book.completed()) == 3

    def test_timeline_rendering(self):
        span = FrameSpan(7)
        span.stage("capture", 0.0)
        span.stage("encode_end", 0.01)
        span.stage("displayed", 0.05)
        text = render_span_timeline(span)
        assert "frame 7 span:" in text
        assert "capture" in text and "encode_end" in text
        assert "e2e=50.000ms" in text
        assert "pacing=-" in text  # missing component renders as '-'


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_is_bounded(self):
        ring = FlightRecorder(capacity=4)
        for i in range(10):
            ring.append(TelemetryRecord(float(i), "event", f"r{i}"))
        assert len(ring) == 4
        assert [r.name for r in ring.records()] == ["r6", "r7", "r8", "r9"]
        assert ring.total_seen == 10

    def test_dump_reports_rotation(self):
        ring = FlightRecorder(capacity=2)
        for i in range(5):
            ring.append(TelemetryRecord(float(i), "event", f"r{i}"))
        dump = ring.dump()
        assert "last 2 of 5" in dump
        assert "3 older records rotated out" in dump
        assert "r4" in dump and "r0" not in dump

    def test_flight_only_mode_keeps_no_event_log(self):
        tel = Telemetry(keep_events=False, flight_capacity=8)
        for i in range(20):
            tel.record("event", f"e{i}", at=float(i))
        assert tel.events == []
        assert len(tel.flight) == 8
        assert "e19" in tel.flight_dump()


# ---------------------------------------------------------------------------
# columnar wire rows behind the record views
# ---------------------------------------------------------------------------
#: flight ring (capacity 8) of the fixed-seed session below at t = 1.02 s
#: and t = 1.05 s, exactly as the per-record implementation (the commit
#: before columnar probe rows) returned it.
RING_AT = {
    1.02: (1026, [
        '{"t":1.006100249,"kind":"span","name":"wire","frame_id":30,"size":1200}',
        '{"t":1.006100249,"kind":"span","name":"wire","frame_id":30,"size":1200}',
        '{"t":1.006100249,"kind":"span","name":"wire","frame_id":30,"size":1200}',
        '{"t":1.006100249,"kind":"span","name":"wire","frame_id":30,"size":1200}',
        '{"t":1.006100249,"kind":"span","name":"wire","frame_id":30,"size":348}',
        '{"t":1.011246815,"kind":"span","name":"complete","frame_id":29}',
        '{"t":1.013978729,"kind":"span","name":"displayed","frame_id":29}',
        '{"t":1.011246815,"kind":"metric","name":"frames.displayed","value":30.0}',
    ]),
    1.05: (1041, [
        '{"t":1.033333333,"kind":"metric","name":"frames.encoded","value":32.0}',
        '{"t":1.039909696,"kind":"span","name":"packetize","frame_id":31}',
        '{"t":1.039909696,"kind":"span","name":"pacer_enqueue","frame_id":31}',
        '{"t":1.039909696,"kind":"span","name":"wire","frame_id":31,"size":1200}',
        '{"t":1.039909696,"kind":"span","name":"wire","frame_id":31,"size":1200}',
        '{"t":1.039909696,"kind":"span","name":"wire","frame_id":31,"size":1200}',
        '{"t":1.039909696,"kind":"span","name":"wire","frame_id":31,"size":1200}',
        '{"t":1.039909696,"kind":"span","name":"wire","frame_id":31,"size":112}',
    ]),
}
#: sha256 of that session's full event log as compact JSONL, same commit.
EVENTS_SHA256 = ("58f4a0afe649263da21cef2440ef29c9"
                 "94c89dbacd7e2e5b76ea48460de48fd2")


def _compact(records):
    return [json.dumps(r.to_json_obj(), separators=(",", ":"))
            for r in records]


class TestWireRowViews:
    def test_events_view_round_trips_the_per_record_log(self):
        import hashlib
        _, tel, metrics = run_telemetry_session()
        lines = _compact(tel.events)
        assert len(lines) == 1873
        assert sum('"name":"wire"' in line for line in lines) \
            == metrics.packets_sent == len(tel.wire)
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() \
            == EVENTS_SHA256
        assert tel.events is tel.events  # materialised once per state

    @pytest.mark.parametrize("at", sorted(RING_AT))
    def test_flight_ring_round_trips_mid_run(self, at):
        trace = BandwidthTrace.constant(8e6, duration=17)
        session = build_session("ace", trace,
                                SessionConfig(duration=2.0, seed=5))
        tel = session.enable_telemetry(
            Telemetry(keep_events=False, flight_capacity=8))
        seen = []
        session.loop.call_at(at, lambda: seen.append(
            (tel.flight.total_seen, _compact(tel.flight.records()))))
        session.run()
        assert seen == [RING_AT[at]]
        assert tel.events == [] and len(tel.flight) == 8
        # Flight-only mode retains a window of rows, not the run.
        assert len(tel.wire.columns()[0]) == 8 < len(tel.wire)

    def test_one_train_session_reports_one_train(self):
        """always-burst releases its single frame back to back: one
        train, which only the end-of-session flush can close."""
        trace = BandwidthTrace.constant(8e6, duration=12)
        session = build_session("always-burst", trace,
                                SessionConfig(duration=0.02, seed=5))
        tel = session.enable_telemetry()
        metrics = session.run()
        assert len(metrics.frames) == 1 and metrics.packets_sent > 1
        summary = tel.burst.summary()
        assert summary["trains"] == 1
        assert summary["packets"] == metrics.packets_sent
        assert summary["mean_train_packets"] == metrics.packets_sent

    def test_pending_rows_are_bounded_without_tick_or_reader(self):
        from repro.obs.recorder import MAX_PENDING_ROWS
        tel = Telemetry(tick_interval=None, keep_events=False,
                        flight_capacity=8)
        for _ in range(MAX_PENDING_ROWS + 5):
            tel.packet_wire(0, 1200, 0.001)
        assert len(tel.wire.t) == 5
        assert tel.registry.counter("burst.packets").value \
            == MAX_PENDING_ROWS + 5


# ---------------------------------------------------------------------------
# telemetry hub on a sim loop
# ---------------------------------------------------------------------------
class TestTelemetryTick:
    def test_tick_samples_gauges_on_schedule(self):
        loop = EventLoop()
        tel = Telemetry(loop, tick_interval=0.1)
        state = {"v": 0.0}
        tel.registry.gauge("g", sample_fn=lambda: state["v"])
        tel.start_tick()
        loop.call_at(0.15, lambda: state.__setitem__("v", 3.0))
        loop.run(until=0.35)
        tel.stop_tick()
        series = tel.metric_series("g")
        assert series[0] == (0.1, 0.0)
        assert (0.2, 3.0) in series

    def test_tick_disabled_when_interval_none(self):
        loop = EventLoop()
        tel = Telemetry(loop, tick_interval=None)
        tel.start_tick()
        assert tel._tick_handle is None

    def test_frame_stage_feeds_counters_and_histograms(self):
        tel = Telemetry()
        tel.frame_stage(0, "capture", at=0.0)
        tel.frame_stage(0, "encode_end", at=0.01)
        tel.frame_stage(0, "pacer_enqueue", at=0.01)
        tel.packet_wire(0, 1200)
        tel.frame_stage(0, "displayed", at=0.05)
        assert tel.registry.counter("frames.encoded").value == 1
        assert tel.registry.counter("frames.displayed").value == 1
        assert tel.registry.histogram("frame.e2e_s").count == 1


# ---------------------------------------------------------------------------
# full-session wiring
# ---------------------------------------------------------------------------
class TestSessionWiring:
    def test_spans_reconcile_with_latency_breakdown(self):
        """Per-stage span durations must equal the FrameMetrics-derived
        components for every displayed frame, to float tolerance."""
        _, tel, metrics = run_telemetry_session()
        displayed = [f for f in metrics.frames if f.displayed_at is not None]
        assert displayed
        for fm in displayed:
            span = tel.spans.get(fm.frame_id)
            assert span is not None and span.complete
            d = span.durations()
            assert span.e2e() == pytest.approx(
                fm.displayed_at - fm.capture_time, abs=1e-12)
            assert d["pacing"] == pytest.approx(fm.pacing_latency, abs=1e-12)
            assert d["network"] == pytest.approx(fm.network_latency,
                                                 abs=1e-12)
            assert d["decode"] == pytest.approx(fm.decode_latency, abs=1e-12)

    def test_component_means_match_breakdown(self):
        _, tel, metrics = run_telemetry_session()
        breakdown = metrics.latency_breakdown()
        spans = tel.spans.completed()
        for component in ("pacing", "network", "decode"):
            values = [s.durations()[component] for s in spans
                      if s.durations()[component] is not None]
            mean = sum(values) / len(values)
            assert mean == pytest.approx(breakdown[component], abs=1e-9)

    def test_registry_gauges_are_sane(self):
        session, tel, _ = run_telemetry_session()
        reg = tel.registry
        level = reg.gauge("bucket.token_level_bytes").value
        size = reg.gauge("bucket.size_bytes").value
        assert level is not None and size is not None
        assert -1e-6 <= level <= size + 1e-6
        assert reg.gauge("cc.bwe_bps").value > 0
        assert reg.gauge("pacer.backlog_bytes").value >= 0
        assert reg.gauge("ace.bucket_bytes").value > 0
        assert reg.counter("frames.encoded").value == len(
            session.sender.encoded_frames)

    def test_metric_series_is_time_ordered(self):
        _, tel, _ = run_telemetry_session()
        series = tel.metric_series("cc.bwe_bps")
        assert series
        times = [t for t, _ in series]
        assert times == sorted(times)

    def test_link_drop_counter_counts_losses(self):
        _, tel, metrics = run_telemetry_session(
            duration=3.0, queue_capacity_bytes=20_000)
        drops = tel.registry.counter("link.drop_packets").value
        assert drops > 0
        assert drops == metrics.packets_lost

    def test_repro_telemetry_env_enables_it(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        trace = BandwidthTrace.constant(8e6, duration=16)
        session = build_session("ace", trace, SessionConfig(duration=1.0))
        session.run()
        assert session.telemetry is not None
        assert session.telemetry.events

    def test_disabled_by_default(self):
        trace = BandwidthTrace.constant(8e6, duration=16)
        session = build_session("ace", trace, SessionConfig(duration=0.5))
        session.run()
        assert session.telemetry is None
        assert session.sender.telemetry is None


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------
class TestExporters:
    def test_jsonl_roundtrip(self, tmp_path):
        _, tel, _ = run_telemetry_session(duration=1.0)
        path = tmp_path / "events.jsonl"
        n = write_jsonl(tel, path)
        lines = path.read_text().splitlines()
        assert n == len(lines) == len(tel.events)
        objs = [json.loads(line) for line in lines]
        assert all({"t", "kind", "name"} <= set(o) for o in objs)
        spans = [o for o in objs if o["kind"] == "span"]
        assert spans and all("frame_id" in o for o in spans)

    def test_prometheus_snapshot_format(self):
        _, tel, _ = run_telemetry_session(duration=1.0)
        text = prometheus_snapshot(tel.registry)
        assert "# TYPE repro_frames_encoded_total counter" in text
        assert "# TYPE repro_cc_bwe_bps gauge" in text
        assert "# TYPE repro_frame_e2e_s histogram" in text
        assert 'repro_frame_e2e_s_bucket{le="+Inf"}' in text
        assert "repro_frame_e2e_s_count" in text
        # every sample line is "name[{labels}] value"
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            name, value = line.rsplit(" ", 1)
            assert name.startswith("repro_")
            float(value)  # parseable

    def test_histogram_bucket_counts_are_cumulative(self):
        _, tel, _ = run_telemetry_session(duration=1.0)
        text = prometheus_snapshot(tel.registry)
        counts = [float(line.rsplit(" ", 1)[1])
                  for line in text.splitlines()
                  if line.startswith("repro_frame_e2e_s_bucket")]
        assert counts == sorted(counts)
        total = float([line for line in text.splitlines()
                       if line.startswith("repro_frame_e2e_s_count")]
                      [0].rsplit(" ", 1)[1])
        assert counts[-1] == total

    def test_write_export_dir(self, tmp_path):
        _, tel, _ = run_telemetry_session(duration=1.0)
        jsonl, snapshot = write_export_dir(tel, tmp_path / "out")
        assert jsonl.exists() and snapshot.exists()
        assert snapshot.read_text().startswith("# ")  # HELP or TYPE header

    def test_help_lines_precede_types(self):
        _, tel, _ = run_telemetry_session(duration=1.0)
        text = prometheus_snapshot(tel.registry)
        assert ("# HELP repro_frames_encoded_total "
                "Frames produced by the encoder") in text
        assert "# HELP repro_cc_bwe_bps " in text
        assert "# HELP repro_frame_e2e_s " in text
        lines = text.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("# HELP "):
                metric = line.split()[2]
                assert lines[i + 1].startswith(f"# TYPE {metric} "), line

    def test_label_escaping(self):
        registry = MetricRegistry()
        registry.counter("weird.counter", help="has \\ and\nnewline",
                         labels={"path": 'C:\\x "y"\nz', "ok": "plain"})
        registry.gauge("plain.gauge", labels={"trace": "wifi"}).set(2.0)
        text = prometheus_snapshot(registry)
        assert ('repro_weird_counter_total{ok="plain",'
                'path="C:\\\\x \\"y\\"\\nz"} 0.0') in text
        assert "# HELP repro_weird_counter_total has \\\\ and\\nnewline" \
            in text
        assert 'repro_plain_gauge{trace="wifi"} 2.0' in text

    def test_histogram_labels_merge_with_le(self):
        registry = MetricRegistry()
        registry.histogram("h.lat", buckets=(0.1,), labels={"kind": "e2e"}) \
            .observe(0.05)
        text = prometheus_snapshot(registry)
        assert 'repro_h_lat_bucket{kind="e2e",le="0.1"} 1' in text
        assert 'repro_h_lat_bucket{kind="e2e",le="+Inf"} 1' in text
        assert 'repro_h_lat_sum{kind="e2e"} 0.05' in text
        assert 'repro_h_lat_count{kind="e2e"} 1' in text

    def test_snapshot_ordering_stable_across_runs(self):
        def build():
            registry = MetricRegistry()
            # registration order deliberately differs from sorted order
            registry.counter("z.last")
            registry.gauge("m.mid").set(1.0)
            registry.counter("a.first")
            registry.histogram("q.hist", buckets=(0.1,)).observe(0.01)
            registry.gauge("b.gauge").set(3.0)
            return prometheus_snapshot(registry)

        a, b = build(), build()
        assert a == b
        samples = [line.split("{")[0].split(" ")[0]
                   for line in a.splitlines() if not line.startswith("#")]
        # groups: counters first, then gauges, then histograms — each sorted
        assert samples == ["repro_a_first_total", "repro_z_last_total",
                           "repro_b_gauge", "repro_m_mid",
                           "repro_q_hist_bucket", "repro_q_hist_bucket",
                           "repro_q_hist_sum", "repro_q_hist_count"]

    def test_session_snapshot_identical_for_fixed_seed(self):
        _, tel_a, _ = run_telemetry_session(duration=1.0)
        _, tel_b, _ = run_telemetry_session(duration=1.0)
        assert (prometheus_snapshot(tel_a.registry)
                == prometheus_snapshot(tel_b.registry))

    def test_filter_records(self):
        _, tel, _ = run_telemetry_session(duration=1.0)
        spans = filter_records(tel.events, kind="span")
        assert spans and all(r.kind == "span" for r in spans)
        frame0 = filter_records(tel.events, kind="span", frame_id=0)
        assert frame0 and all(r.fields["frame_id"] == 0 for r in frame0)
        windowed = filter_records(tel.events, since=0.5, until=0.7)
        assert all(0.5 <= r.time <= 0.7 for r in windowed)
        named = filter_records(tel.events, name="bwe")
        assert named and all("bwe" in r.name for r in named)


# ---------------------------------------------------------------------------
# auditor integration
# ---------------------------------------------------------------------------
class TestAuditorFlightDump:
    def test_violation_carries_flight_dump(self):
        from repro.audit.auditor import attach_audit

        trace = BandwidthTrace.constant(8e6, duration=16)
        session = build_session("ace", trace, SessionConfig(duration=1.0))
        session.enable_telemetry()
        auditor = attach_audit(session, strict=False)
        assert auditor.telemetry is session.telemetry
        session.run()
        assert auditor.finalize() == []  # clean run
        # Inject a synthetic breach to exercise the capture path.
        auditor.strict = False
        auditor._saturated = False
        auditor._fail("test.injected", "synthetic breach")
        violation = auditor.violations[-1]
        assert violation.flight_dump is not None
        assert "flight recorder:" in violation.flight_dump
        assert "span" in violation.flight_dump
        assert "flight recorder" in auditor.report()

    def test_strict_violation_message_includes_dump(self):
        from repro.audit.auditor import InvariantViolation, SessionAuditor

        trace = BandwidthTrace.constant(8e6, duration=16)
        session = build_session("ace", trace, SessionConfig(duration=0.5))
        tel = session.enable_telemetry()
        session.run()
        auditor = SessionAuditor(session.loop, session.sender.pacer,
                                 telemetry=tel)
        with pytest.raises(InvariantViolation) as excinfo:
            auditor._fail("test.injected", "synthetic breach")
        message = str(excinfo.value)
        assert "test.injected" in message
        assert "flight recorder" in message

    def test_no_telemetry_no_dump(self):
        from repro.audit.auditor import SessionAuditor

        trace = BandwidthTrace.constant(8e6, duration=16)
        session = build_session("ace", trace, SessionConfig(duration=0.5))
        session.run()
        auditor = SessionAuditor(session.loop, session.sender.pacer,
                                 strict=False)
        auditor._fail("test.injected", "synthetic breach")
        assert auditor.violations[-1].flight_dump is None


class TestFuzzFlightDump:
    def test_failure_surfaces_dump(self):
        from repro.audit.auditor import Violation
        from repro.audit.fuzz import FuzzFailure, case_from_seed

        case = case_from_seed(1, 0)
        bare = Violation(1.0, "x", "no dump")
        dumped = Violation(2.0, "y", "with dump", flight_dump="flight recorder: ...")
        failure = FuzzFailure(case, case, [bare, dumped])
        assert failure.flight_dump == "flight recorder: ..."
        assert FuzzFailure(case, case, [bare]).flight_dump is None

    def test_run_case_attaches_dumps_via_telemetry(self):
        from repro.audit.fuzz import case_from_seed, run_case

        violations, events = run_case(case_from_seed(1, 0))
        assert violations == []  # seed 1 case 0 is a clean scenario
        assert events > 0

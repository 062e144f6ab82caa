"""Multi-session supervisor tests: fleets of live loopback sessions.

Real sockets and wall clocks, so fleets are small (3-4 sessions, ~1 s)
and assertions coarse — completion, isolation, labels — while the
deterministic behaviour (rollup rendering, spec expansion, percentiles)
is tested without any I/O.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import fields

import pytest

from repro.live.server import (
    LoadConfig,
    SessionSpec,
    SessionSupervisor,
    build_load_specs,
    percentiles,
    run_load,
)
from repro.obs import MetricRegistry, prometheus_rollup
from repro.rtc.session import SessionConfig


# ---------------------------------------------------------------------------
# deterministic pieces (no sockets)
# ---------------------------------------------------------------------------
def test_build_load_specs_round_robin_and_seeds():
    specs = build_load_specs(LoadConfig(
        sessions=5, mix=("ace", "webrtc-star"), seed=10, duration=2.0))
    assert [s.baseline for s in specs] == \
        ["ace", "webrtc-star", "ace", "webrtc-star", "ace"]
    assert [s.label for s in specs] == \
        ["s0-ace", "s1-webrtc-star", "s2-ace", "s3-webrtc-star", "s4-ace"]
    assert [s.config.seed for s in specs] == [10, 11, 12, 13, 14]
    # Traces keep a stateful cursor: every session gets a private one.
    traces = [s.trace for s in specs]
    assert len({id(t) for t in traces}) == len(traces)
    # Supervisor-managed sessions never keep full event logs.
    assert all(not s.config.keep_telemetry_events for s in specs)


def test_load_specs_carry_every_session_config_field():
    """One projection: session i runs the load config's SessionConfig —
    max_bwe_bps included, once pinned at its default — with seed + i."""
    config = LoadConfig(sessions=2, seed=5, duration=2.0, fps=60.0,
                        base_rtt=0.05, random_loss_rate=0.01,
                        queue_capacity_bytes=60_000, initial_bwe_bps=6e6,
                        max_bwe_bps=8e6)
    for i, spec in enumerate(build_load_specs(config)):
        assert isinstance(spec.config, SessionConfig)
        for f in fields(SessionConfig):
            want = getattr(config, f.name) + (i if f.name == "seed" else 0)
            assert getattr(spec.config, f.name) == want, f.name


def test_percentiles_nearest_rank():
    assert percentiles([], (50, 99)) == (None, None)
    values = list(range(100))
    p50, p99 = percentiles(values, (50, 99))
    assert p50 == 50 and p99 == 98
    assert percentiles([7.0], (50, 99)) == (7.0, 7.0)


def test_prometheus_rollup_labels_every_shard():
    a, b = MetricRegistry(), MetricRegistry()
    a.counter("x.sent", help="sent things").inc(3)
    b.counter("x.sent").inc(5)
    a.gauge("x.level").set(1.5)
    b.histogram("x.delay", buckets=(0.1, 1.0)).observe(0.05)
    text = prometheus_rollup({"s0": a, "s1": b})
    assert '# HELP repro_x_sent_total sent things' in text
    assert 'repro_x_sent_total{session="s0"} 3.0' in text
    assert 'repro_x_sent_total{session="s1"} 5.0' in text
    # Gauge only sampled in one shard: one series, no phantom zeros.
    assert 'repro_x_level{session="s0"} 1.5' in text
    assert 'session="s1"} 1.5' not in text
    assert 'repro_x_delay_bucket{le="0.1",session="s1"} 1' in text
    # Headers render once per family even with two shards.
    assert text.count("# TYPE repro_x_sent_total counter") == 1


def test_prometheus_rollup_is_deterministic():
    def build():
        regs = {}
        for key in ("s2", "s0", "s1"):
            reg = MetricRegistry()
            reg.counter("c.n").inc(int(key[1]))
            regs[key] = reg
        return regs

    assert prometheus_rollup(build()) == prometheus_rollup(build())


def test_prometheus_rollup_empty_and_empty_shard():
    # No shards at all: a valid (blank) exposition, not a crash.
    assert prometheus_rollup({}) == "\n"
    # An empty registry among real shards contributes no series but
    # does not suppress the others'.
    a = MetricRegistry()
    a.counter("x.sent").inc(2)
    text = prometheus_rollup({"s0": a, "empty": MetricRegistry()})
    assert 'repro_x_sent_total{session="s0"} 2.0' in text
    assert 'session="empty"' not in text


def test_prometheus_rollup_escapes_session_labels():
    reg = MetricRegistry()
    reg.counter("x.sent").inc(1)
    key = 'we"ird\\lab\nel'
    text = prometheus_rollup({key: reg})
    # Exposition-format escapes: backslash, quote, newline.
    assert r'session="we\"ird\\lab\nel"' in text
    # The sample stayed on one physical line (no raw newline leaked).
    line = next(l for l in text.splitlines()
                if l.startswith("repro_x_sent_total{"))
    assert line.endswith("} 1.0")


def test_prometheus_rollup_duplicate_family_across_shards():
    # Same family in many shards: one header, one sample per shard,
    # help text taken from the first shard (sorted order) that has one.
    a, b, c = MetricRegistry(), MetricRegistry(), MetricRegistry()
    a.counter("x.sent")                      # no help
    b.counter("x.sent", help="from b").inc(1)
    c.counter("x.sent", help="from c").inc(2)
    h = MetricRegistry()
    h.histogram("x.delay", buckets=(0.1,)).observe(0.05)
    h2 = MetricRegistry()
    h2.histogram("x.delay", buckets=(0.1,)).observe(0.2)
    text = prometheus_rollup({"s2": c, "s1": b, "s0": a,
                              "h0": h, "h1": h2})
    assert text.count("# TYPE repro_x_sent_total counter") == 1
    assert text.count("# HELP repro_x_sent_total") == 1
    assert "# HELP repro_x_sent_total from b" in text
    for key, value in (("s0", "0.0"), ("s1", "1.0"), ("s2", "2.0")):
        assert f'repro_x_sent_total{{session="{key}"}} {value}' in text
    # Histogram family renders per-shard bucket/sum/count series under
    # one header.
    assert text.count("# TYPE repro_x_delay histogram") == 1
    assert 'repro_x_delay_bucket{le="0.1",session="h0"} 1' in text
    assert 'repro_x_delay_bucket{le="0.1",session="h1"} 0' in text
    assert 'repro_x_delay_count{session="h1"} 1' in text


# ---------------------------------------------------------------------------
# fleets over real loopback sockets (~1 s wall each)
# ---------------------------------------------------------------------------
def quick_load(**kwargs) -> LoadConfig:
    defaults = dict(sessions=3, mix=("ace", "webrtc-star"), duration=0.8,
                    drain=0.2, seed=3, heartbeat_interval=0.3)
    defaults.update(kwargs)
    return LoadConfig(**defaults)


def test_supervisor_runs_mixed_fleet_to_completion(tmp_path):
    lines = []
    supervisor = run_load(quick_load(ramp=0.3), echo=lines.append,
                          run_dir=str(tmp_path))
    records = supervisor.records
    assert [r.status for r in records] == ["completed"] * 3
    assert all(r.metrics is not None and r.metrics.frames for r in records)
    # All sessions shared one loop but produced isolated metrics.
    assert len({id(r.session) for r in records}) == 3
    summary = supervisor.summary
    assert summary["completed"] == 3 and summary["failed"] == 0
    assert {row["label"] for row in summary["per_session"]} == \
        {"s0-ace", "s1-webrtc-star", "s2-ace"}
    # Heartbeats streamed to the run dir and echoed.
    beats = [json.loads(line)
             for line in (tmp_path / "live.jsonl").read_text().splitlines()
             if json.loads(line)["kind"] == "heartbeat"]
    assert beats and lines
    assert all("sessions" in b for b in beats)
    # Resource accounting rides every heartbeat: fleet RSS plus the
    # per-session CPU attribution summed into cpu_total_s.
    assert all("cpu_total_s" in b and "rss_mb" in b for b in beats)
    assert beats[-1]["rss_mb"] > 0
    assert any("cpu_s" in row
               for b in beats for row in b["sessions"].values())
    written = json.loads((tmp_path / "summary.json").read_text())
    assert written["kind"] == "live-run"
    # Wall-clock window and exit bookkeeping land in summary.json.
    assert written["exit_reason"] == "completed"
    assert written["ended_unix"] >= written["started_unix"] > 0
    assert written["statuses"] == {"s0-ace": "completed",
                                   "s1-webrtc-star": "completed",
                                   "s2-ace": "completed"}
    assert written["cpu_total_s"] > 0
    assert written["rss_mb"] > 0
    assert all(row["cpu_s"] is not None for row in written["per_session"])


def _run_supervisor(supervisor):
    async def go():
        return await supervisor.run()

    return asyncio.run(go())


def test_supervisor_isolated_crash_fleet_survives():
    from repro.live.server import _default_factory

    def factory(spec: SessionSpec):
        if spec.label.startswith("s1"):
            raise RuntimeError("injected setup crash")
        return _default_factory(spec)

    supervisor = SessionSupervisor(build_load_specs(quick_load()),
                                   session_factory=factory)
    records = _run_supervisor(supervisor)
    statuses = {r.spec.label: r.status for r in records}
    assert statuses["s1-webrtc-star"] == "failed"
    assert statuses["s0-ace"] == "completed"
    assert statuses["s2-ace"] == "completed"
    failed = next(r for r in records if r.status == "failed")
    assert "injected setup crash" in failed.error
    assert supervisor.summary["failed"] == 1
    assert supervisor.summary["completed"] == 2
    # The crash is visible in the fleet shard of the rollup.
    assert 'repro_live_sessions_failed_total{session="fleet"} 1.0' in \
        supervisor.rollup()


def test_supervisor_rollup_scrapes_with_per_session_labels():
    """The stats endpoint serves one snapshot with session="..." series
    for every live shard plus the supervisor's fleet shard."""
    config = quick_load(sessions=2, duration=1.0, stats_port=0)
    supervisor = SessionSupervisor(build_load_specs(config),
                                   stats_port=0,
                                   heartbeat_interval=0.3)

    async def run_and_scrape():
        task = asyncio.ensure_future(supervisor.run())
        while supervisor.stats_addr is None:
            if task.done():
                task.result()
            await asyncio.sleep(0.02)
        host, port = supervisor.stats_addr
        text = ""
        while not task.done():
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"GET / HTTP/1.1\r\nHost: t\r\n\r\n")
                await writer.drain()
                text = (await reader.read()).decode()
                writer.close()
            except OSError:
                break
            if 'session="s0-ace"' in text and \
                    'session="s1-webrtc-star"' in text:
                break
            await asyncio.sleep(0.05)
        await task
        return text

    text = asyncio.run(run_and_scrape())
    assert "200 OK" in text
    assert 'session="s0-ace"' in text
    assert 'session="s1-webrtc-star"' in text
    assert 'repro_live_sessions_running{session="fleet"}' in text


def test_heartbeat_and_watch_read_one_fleet_record(monkeypatch):
    """``load --dash`` renders ``heartbeat()``, ``repro watch`` renders
    ``record_from_prometheus(rollup())``: at one fleet moment both carry
    the same numbers and draw the same dashboard frame."""
    from repro.live import server
    from repro.obs.dash import FleetDashboard, record_from_prometheus

    # Each sample reads RSS; pinned so two back-to-back samples cannot
    # straddle a page the process maps in between.
    monkeypatch.setattr(server, "process_rss_bytes", lambda: 50_331_648)
    config = quick_load(sessions=2, duration=4.0, initial_bwe_bps=12e6)
    supervisor = SessionSupervisor(build_load_specs(config),
                                   heartbeat_interval=None)

    async def mid_run():
        task = asyncio.ensure_future(supervisor.run())
        await asyncio.sleep(1.5)
        # No await between the two reads: no session callback runs.
        beat = supervisor.heartbeat()
        watched = record_from_prometheus(supervisor.rollup())
        supervisor.request_stop()
        await task
        return beat, watched

    beat, watched = asyncio.run(mid_run())
    assert beat["running"] == 2
    for key in ("running", "completed", "failed", "pacing_p99_ms",
                "cpu_total_s", "rss_mb"):
        assert watched[key] == beat[key], key
    assert sorted(watched["sessions"]) == ["s0-ace", "s1-webrtc-star"]
    for label, row in beat["sessions"].items():
        assert row["frames"] > 0 and row["pacing_p99_ms"] is not None
        for key in ("status", "frames", "pacing_p50_ms", "pacing_p99_ms",
                    "cpu_s", "wire_faults"):
            assert watched["sessions"][label][key] == row[key], (label, key)
    assert FleetDashboard(color=False, clear=False).update(watched) == \
        FleetDashboard(color=False, clear=False).update(beat)


def test_wire_faults_reach_summary_and_rollup(tmp_path):
    """One malformed datagram at a session's receiver shows as
    ``wire_faults == 1`` in summary.json and on ``live.wire_faults``."""
    import socket

    config = quick_load(sessions=1, mix=("ace",), duration=0.8)
    supervisor = SessionSupervisor(build_load_specs(config),
                                   run_dir=str(tmp_path),
                                   heartbeat_interval=None)

    async def run_with_fault():
        task = asyncio.ensure_future(supervisor.run())
        rec = supervisor.records[0]
        while rec.session is None or rec.session.sender is None:
            await asyncio.sleep(0.01)
        recv_end = rec.session.ends[0]
        raw = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        raw.sendto(b"\x07", recv_end.local_addr)
        raw.close()
        await task

    asyncio.run(run_with_fault())
    assert supervisor.records[0].status == "completed"
    written = json.loads((tmp_path / "summary.json").read_text())
    assert written["per_session"][0]["wire_faults"] == 1
    assert 'repro_live_wire_faults{session="s0-ace"} 1.0' in \
        supervisor.rollup()


def test_supervisor_graceful_stop_drains_fleet():
    """request_stop() mid-run: started sessions drain and complete,
    ramp-pending sessions are skipped — the SIGINT path."""
    config = quick_load(sessions=3, mix=("ace",), duration=30.0,
                        ramp=60.0)  # s1/s2 wait far into the ramp
    supervisor = SessionSupervisor(build_load_specs(config),
                                   ramp=config.ramp,
                                   heartbeat_interval=0.3)

    async def go():
        task = asyncio.ensure_future(supervisor.run())
        await asyncio.sleep(0.8)
        supervisor.request_stop()
        return await asyncio.wait_for(task, timeout=10.0)

    records = asyncio.run(go())
    statuses = [r.status for r in records]
    assert statuses[0] == "completed"  # drained early, still clean
    assert statuses[1:] == ["skipped", "skipped"]
    assert records[0].metrics is not None
    assert records[0].metrics.duration < 5.0


def test_supervisor_sigint_drain_records_exit_reason():
    config = quick_load(sessions=2, mix=("ace",), duration=30.0)
    supervisor = SessionSupervisor(build_load_specs(config),
                                   heartbeat_interval=0.3)

    async def go():
        task = asyncio.ensure_future(supervisor.run())
        await asyncio.sleep(0.6)
        supervisor.request_stop()
        return await asyncio.wait_for(task, timeout=10.0)

    asyncio.run(go())
    assert supervisor.summary["exit_reason"] == "sigint-drain"


def test_supervisor_stall_trips_fleet_watchdog(tmp_path):
    """Injected pacing stall in one session must fire the fleet SLO
    rule, land in the fleet log, and roll up as the slo shard."""
    from repro.obs.slo import fleet_slo_rules

    config = quick_load(sessions=2, mix=("ace",), duration=2.5,
                        slo_p99_s=0.05, stall=(0.5, 1.5))
    supervisor = SessionSupervisor(
        build_load_specs(config), heartbeat_interval=0.3,
        slo_rules=fleet_slo_rules(pacing_p99_s=0.05),
        run_dir=str(tmp_path))
    _run_supervisor(supervisor)
    summary = supervisor.summary
    assert summary["failed"] == 0
    assert summary["slo"]["alerts"] >= 1
    assert any(e["rule"] == "fleet-pacing-p99" and e["state"] == "firing"
               for e in summary["slo"]["events"])
    # Alert events streamed to the fleet log alongside heartbeats.
    events = [json.loads(line)
              for line in (tmp_path / "live.jsonl").read_text().splitlines()]
    assert any(e.get("kind") == "slo-alert" for e in events)
    # The watchdog's publish registry rolls up as its own shard.
    text = supervisor.rollup()
    assert 'repro_slo_alerts_total{session="slo"}' in text
    assert 'repro_slo_breached_fleet_pacing_p99{session="slo"}' in text


def test_supervisor_series_writes_shards_and_calls_hook(tmp_path):
    """``--series`` fleet: per-session shards land under the run dir at
    teardown, and the heartbeat hook (the dashboard's feed) sees every
    heartbeat record without being able to crash the fleet."""
    from repro.obs.timeseries import load_shard

    hooked = []

    def hook(record):
        hooked.append(record)
        raise RuntimeError("renderer bug")  # must be swallowed

    supervisor = run_load(quick_load(sessions=2, series=True),
                          run_dir=str(tmp_path), heartbeat_hook=hook)
    assert [r.status for r in supervisor.records] == ["completed"] * 2
    shards = sorted((tmp_path / "series").glob("*.json"))
    assert [p.stem for p in shards] == ["s0-ace", "s1-webrtc-star"]
    for path in shards:
        frame = load_shard(path)
        assert frame.t and frame.series
        assert frame.meta["mode"] == "live"
        assert frame.meta["label"] == path.stem
    # The hook fired on heartbeats and its exception never propagated.
    assert hooked
    assert all("sessions" in record for record in hooked)


def test_supervisor_without_series_writes_no_shards(tmp_path):
    run_load(quick_load(sessions=1, mix=("cbr",)), run_dir=str(tmp_path))
    assert not (tmp_path / "series").exists()


def test_supervisor_slo_firing_rides_heartbeat_records(tmp_path):
    """An injected stall trips the fleet watchdog; the breach shows up
    as ``slo_firing`` on heartbeat records — what the dashboard's SLO
    line renders from."""
    hooked = []
    config = quick_load(sessions=2, mix=("ace",), duration=2.5,
                        slo_p99_s=0.05, stall=(0.5, 1.5))
    run_load(config, run_dir=str(tmp_path), heartbeat_hook=hooked.append)
    firing = [record["slo_firing"] for record in hooked
              if record.get("slo_firing")]
    assert firing
    assert any("fleet-pacing-p99" in rules for rules in firing)


def test_supervisor_busy_stats_port_fails_clearly():
    async def go():
        blocker = await asyncio.start_server(
            lambda r, w: None, "127.0.0.1", 0)
        port = blocker.sockets[0].getsockname()[1]
        supervisor = SessionSupervisor(
            build_load_specs(quick_load(sessions=1, duration=0.3)),
            stats_port=port)
        try:
            with pytest.raises(RuntimeError, match="stats port"):
                await supervisor.run()
        finally:
            blocker.close()
            await blocker.wait_closed()

    asyncio.run(go())

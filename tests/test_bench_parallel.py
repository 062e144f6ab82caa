"""Tests for the parallel experiment runner and the on-disk result cache.

The contract under test: fanning a grid across worker processes — or
answering it from the cache — must be *observationally identical* to
running it serially in-process. Equality is checked on the canonical
JSON encoding of the full SessionMetrics (every frame, packet counter,
send event and BWE sample), not just headline statistics.
"""

import pytest

from repro.analysis import ResultCache, canonical_metrics_json, code_version, \
    metrics_from_dict, metrics_to_dict, trace_fingerprint
from repro.analysis.cache import cache_enabled_by_env
from repro.bench.parallel import GridTask, ParallelRunner, make_grid, run_grid
from repro.bench.workloads import run_baseline, run_baselines, trace_library
from repro.net.trace import BandwidthTrace
from repro.observe import Observe
from repro.rtc.session import SessionConfig

BASELINES = ["ace", "webrtc-star", "cbr"]
SEEDS = (3, 11)
DURATION = 2.5
#: the cell config ``make_grid`` builds for seed 3.
CONFIG = SessionConfig(duration=DURATION, seed=3, initial_bwe_bps=6e6)


@pytest.fixture()
def traces():
    return [
        BandwidthTrace.constant(15e6, duration=10.0, name="flat-15"),
        BandwidthTrace([0.0, 0.8, 1.6], [12e6, 6e6, 18e6], name="steppy"),
    ]


class TestParallelIdentity:
    def test_parallel_grid_byte_identical_to_serial(self, traces):
        serial = run_grid(BASELINES, traces, seeds=SEEDS, duration=DURATION,
                          jobs=1)
        parallel = run_grid(BASELINES, traces, seeds=SEEDS, duration=DURATION,
                            jobs=4)
        assert list(serial) == list(parallel)
        assert len(serial) == len(BASELINES) * len(traces) * len(SEEDS)
        for key in serial:
            assert (canonical_metrics_json(serial[key])
                    == canonical_metrics_json(parallel[key])), key

    def test_results_come_back_in_task_order(self, traces):
        tasks = make_grid(["cbr", "ace"], traces[:1], seeds=(3,),
                          duration=DURATION)
        runner = ParallelRunner(jobs=2)
        results = runner.run(tasks)
        # cbr and ace produce different packet counts; order must match.
        direct = [canonical_metrics_json(
                      run_baseline(t.baseline, t.trace, duration=DURATION))
                  for t in tasks]
        assert [canonical_metrics_json(m) for m in results] == direct

    def test_grid_matches_run_baseline(self, traces):
        trace = traces[0]
        grid = run_grid(["ace"], [trace], seeds=(3,), duration=DURATION)
        direct = run_baseline("ace", trace, duration=DURATION)
        assert (canonical_metrics_json(grid[("ace", trace.name, 3, "gaming")])
                == canonical_metrics_json(direct))

    def test_run_baselines_parallel_same_as_serial(self, traces):
        trace = traces[1]
        serial = run_baselines(BASELINES, trace, duration=DURATION)
        parallel = run_baselines(BASELINES, trace, duration=DURATION, jobs=3)
        assert set(serial) == set(parallel) == set(BASELINES)
        for name in BASELINES:
            assert (canonical_metrics_json(serial[name])
                    == canonical_metrics_json(parallel[name]))

    def test_duplicate_trace_names_rejected(self, traces):
        twin = BandwidthTrace.constant(15e6, duration=10.0, name="flat-15")
        with pytest.raises(ValueError, match="duplicate"):
            run_grid(["cbr"], [traces[0], twin], duration=DURATION)


class TestEnvIsolation:
    """Grid cells must not inherit instrumentation from the parent env.

    ``REPRO_TELEMETRY``/``REPRO_AUDIT`` turn a debugging session's
    instrumentation on in ``RtcSession.run()``; a sweep launched from
    that same shell must not silently run hundreds of instrumented
    cells. Instrumentation is per-:class:`GridTask` instead.
    """

    def test_worker_strips_telemetry_env(self, traces, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_AUDIT", "1")
        enabled = []
        from repro.rtc.session import RtcSession
        monkeypatch.setattr(
            RtcSession, "enable_telemetry",
            lambda self, telemetry=None: enabled.append(self) or None)
        # jobs=1 runs in this very process — the strongest leak vector.
        run_grid(["cbr"], traces[:1], seeds=(3,), duration=DURATION, jobs=1)
        assert enabled == []
        # the parent's env survives the run for its own sessions
        import os
        assert os.environ["REPRO_TELEMETRY"] == "1"
        assert os.environ["REPRO_AUDIT"] == "1"

    def test_env_stripped_grid_matches_clean_grid(self, traces, monkeypatch):
        clean = run_grid(["ace"], traces[:1], seeds=(3,), duration=DURATION)
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_AUDIT", "1")
        dirty_env = run_grid(["ace"], traces[:1], seeds=(3,),
                             duration=DURATION)
        for key in clean:
            assert (canonical_metrics_json(clean[key])
                    == canonical_metrics_json(dirty_env[key]))

    def test_task_opts_into_telemetry_explicitly(self, traces, monkeypatch):
        enabled = []
        from repro.rtc.session import RtcSession
        orig = RtcSession.enable_telemetry
        monkeypatch.setattr(
            RtcSession, "enable_telemetry",
            lambda self, telemetry=None: (enabled.append(self),
                                          orig(self, telemetry))[1])
        tasks = [GridTask(baseline="cbr", trace=traces[0], config=CONFIG,
                          telemetry=True)]
        ParallelRunner(jobs=1).run(tasks)
        assert len(enabled) == 1

    def test_instrumented_tasks_bypass_cache(self, traces, tmp_path):
        cache = ResultCache(cache_dir=tmp_path, enabled=True)
        runner = ParallelRunner(jobs=1, cache=cache)
        task = GridTask(baseline="cbr", trace=traces[0], config=CONFIG,
                        telemetry=True)
        runner.run([task])
        runner.run([task])
        # neither run consulted nor populated the cache
        assert cache.hits == cache.misses == cache.stores == 0
        plain = GridTask(baseline="cbr", trace=traces[0], config=CONFIG)
        runner.run([plain])
        assert cache.misses == 1 and cache.stores == 1

    def test_instrumented_cell_results_identical_to_plain(self, traces):
        plain = GridTask(baseline="ace", trace=traces[0], config=CONFIG)
        instrumented = GridTask(baseline="ace", trace=traces[0], config=CONFIG,
                                telemetry=True, audit=True)
        [a] = ParallelRunner(jobs=1).run([plain])
        [b] = ParallelRunner(jobs=1).run([instrumented])
        assert canonical_metrics_json(a) == canonical_metrics_json(b)

    def test_slo_cell_attaches_alert_summary_and_bypasses_cache(
            self, traces, tmp_path):
        cache = ResultCache(cache_dir=tmp_path, enabled=True)
        runner = ParallelRunner(jobs=1, cache=cache)
        task = GridTask(baseline="ace", trace=traces[0], config=CONFIG,
                        slo_p99_s=0.25)
        assert task.instrumented
        [m] = runner.run([task])
        assert cache.hits == cache.misses == cache.stores == 0
        summary = m.slo_alerts
        assert summary["rules"] == 2
        assert summary["evaluations"] > 0
        assert isinstance(summary["events"], list)
        # Watchdog cells stay observationally identical to plain runs.
        [plain] = ParallelRunner(jobs=1).run([
            GridTask(baseline="ace", trace=traces[0], config=CONFIG)])
        assert canonical_metrics_json(m) == canonical_metrics_json(plain)

    def test_slo_summary_survives_worker_pickling(self, traces):
        task = GridTask(baseline="cbr", trace=traces[0], config=CONFIG,
                        slo_p99_s=0.25)
        [m] = ParallelRunner(jobs=2).run([task])
        assert hasattr(m, "slo_alerts")
        assert m.slo_alerts["rules"] == 2


class TestSeriesRecordingCells:
    """``GridTask.series`` / ``stall``: the divergence A/B story."""

    def test_series_cell_attaches_frame_and_bypasses_cache(self, traces,
                                                           tmp_path):
        cache = ResultCache(cache_dir=tmp_path, enabled=True)
        runner = ParallelRunner(jobs=1, cache=cache)
        task = GridTask(baseline="ace", trace=traces[0], config=CONFIG,
                        series=True)
        assert task.instrumented
        [m] = runner.run([task])
        assert cache.hits == cache.misses == cache.stores == 0
        frame = m.series_frame
        assert frame.t and frame.t == sorted(frame.t)
        assert "pacer.sent_bytes" in frame.series
        assert frame.meta["baseline"] == "ace"
        assert frame.meta["mode"] == "sim"
        assert frame.meta["trace"] == traces[0].name
        # Pure observer: identical to an uninstrumented run.
        [plain] = ParallelRunner(jobs=1).run([
            GridTask(baseline="ace", trace=traces[0], config=CONFIG)])
        assert canonical_metrics_json(m) == canonical_metrics_json(plain)

    def test_series_frame_survives_worker_pickling(self, traces):
        task = GridTask(baseline="cbr", trace=traces[0], config=CONFIG,
                        series=True)
        [m] = ParallelRunner(jobs=2).run([task])
        assert m.series_frame.t

    def test_inject_stall_diverges_and_is_never_cached(self, traces,
                                                       tmp_path):
        cache = ResultCache(cache_dir=tmp_path, enabled=True)
        runner = ParallelRunner(jobs=1, cache=cache)
        stalled = GridTask(baseline="ace", trace=traces[0], config=CONFIG,
                           series=True, stall=(1.0, 0.8))
        assert stalled.instrumented
        [m] = runner.run([stalled])
        assert cache.hits == cache.misses == cache.stores == 0
        assert m.series_frame.meta["stall"] == [1.0, 0.8]
        [plain] = ParallelRunner(jobs=1).run([
            GridTask(baseline="ace", trace=traces[0], config=CONFIG)])
        # The stall clamps the pacer to its floor for 0.8 s: the run is
        # observably different from the clean one.
        assert canonical_metrics_json(m) != canonical_metrics_json(plain)

    def test_series_shard_name_sanitizes_grid_keys(self):
        from repro.bench.parallel import series_shard_name

        assert series_shard_name(("ace", "flat-15", 3, "gaming")) == \
            "ace__flat-15__s3__gaming"
        arena = series_shard_name(
            ("arena:ace*2+webrtc-star@codel", "const:20", 7, "gaming"))
        assert arena == "arena-ace-2-webrtc-star-codel__const-20__s7__gaming"
        assert not set(arena) - set(
            "abcdefghijklmnopqrstuvwxyz"
            "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")

    def test_write_series_shards_lands_loadable_files(self, traces,
                                                      tmp_path):
        from repro.bench.parallel import series_shard_name
        from repro.observe import write_series_shards
        from repro.obs.timeseries import load_shard

        tasks = [GridTask(baseline=b, trace=traces[0], config=CONFIG,
                          series=True)
                 for b in ("ace", "cbr")]
        metrics = ParallelRunner(jobs=1).run(tasks)
        names = [series_shard_name(t.key()) for t in tasks]
        written = write_series_shards(tmp_path, names, metrics)
        assert [p.name for p in written] == [f"{n}.json" for n in names]
        for path in written:
            assert path.parent == tmp_path / "series"
            frame = load_shard(path)
            assert frame.t and frame.series

    def test_write_series_shards_skips_frameless_cells(self, traces,
                                                       tmp_path):
        from repro.observe import write_series_shards

        task = GridTask(baseline="cbr", trace=traces[0],
                        config=CONFIG)  # no series recording
        [m] = ParallelRunner(jobs=1).run([task])
        assert write_series_shards(tmp_path, ["cbr"], [m]) == []
        assert not (tmp_path / "series").exists()

    def test_run_grid_series_run_dir_writes_shards(self, traces, tmp_path):
        run_grid(["ace"], traces[:1], seeds=(3,), duration=DURATION,
                 observe=Observe(series=True), run_dir=str(tmp_path / "run"))
        shards = sorted((tmp_path / "run" / "series").glob("*.json"))
        assert [p.stem for p in shards] == ["ace__flat-15__s3__gaming"]
        import json
        manifest = json.loads(
            (tmp_path / "run" / "manifest.json").read_text())
        assert manifest["series"] is True


class TestResultCache:
    def test_cache_hit_returns_equal_metrics_without_rerun(self, traces,
                                                           tmp_path):
        trace = traces[0]
        cache = ResultCache(cache_dir=tmp_path, enabled=True)
        first = ParallelRunner(jobs=1, cache=cache)
        grid1 = run_grid(["cbr", "ace"], [trace], seeds=(3,),
                         duration=DURATION, runner=first)
        assert (cache.hits, cache.misses, cache.stores) == (0, 2, 2)

        second = ParallelRunner(jobs=1, cache=cache)
        grid2 = run_grid(["cbr", "ace"], [trace], seeds=(3,),
                         duration=DURATION, runner=second)
        # nothing re-ran, nothing re-stored
        assert (cache.hits, cache.misses, cache.stores) == (2, 2, 2)
        for key in grid1:
            assert (canonical_metrics_json(grid1[key])
                    == canonical_metrics_json(grid2[key]))
        # the live bandwidth lookup is reattached on load
        cached = grid2[("cbr", trace.name, 3, "gaming")]
        assert cached.bandwidth_fn(0.5) == trace.rate_at(0.5)

    def test_cache_key_separates_workloads(self, traces, tmp_path):
        cache = ResultCache(cache_dir=tmp_path, enabled=True)
        cfg_a = SessionConfig(duration=2.0, seed=3)
        cfg_b = SessionConfig(duration=2.0, seed=4)
        base = cache.make_key("ace", cfg_a, traces[0])
        assert cache.make_key("ace", cfg_a, traces[0]) == base
        assert cache.make_key("cbr", cfg_a, traces[0]) != base
        assert cache.make_key("ace", cfg_b, traces[0]) != base
        assert cache.make_key("ace", cfg_a, traces[1]) != base
        assert cache.make_key("ace", cfg_a, traces[0], "lecture") != base
        assert cache.make_key("ace", cfg_a, traces[0],
                              extra={"cc_override": "bbr"}) != base

    def test_env_escape_hatch(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", "off")
        assert not cache_enabled_by_env()
        cache = ResultCache(cache_dir=tmp_path)
        assert not cache.enabled
        assert cache.get("deadbeef") is None
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert cache_enabled_by_env()

    def test_corrupt_entry_is_a_miss(self, traces, tmp_path):
        cache = ResultCache(cache_dir=tmp_path, enabled=True)
        key = cache.make_key("cbr", SessionConfig(duration=2.0, seed=3),
                             traces[0])
        (tmp_path / f"{key}.json").write_text("{not json")
        assert cache.get(key) is None
        assert cache.misses == 1
        assert cache.hits == 0 and cache.corrupt == 1

    def test_trace_fingerprint_content_sensitive(self, traces):
        a = trace_fingerprint(traces[0])
        assert trace_fingerprint(traces[0]) == a
        assert trace_fingerprint(traces[1]) != a
        renamed = BandwidthTrace.constant(15e6, duration=10.0, name="other")
        assert trace_fingerprint(renamed) != a

    def test_trace_fingerprint_matches_parent_commit(self):
        """Digests pinned from the commit before memoization: a constant,
        a wifi and a trace of uneven 200 ms delivery counts (first read
        from a Mahimahi file) must keep their fingerprint (first call and
        memoized call alike)."""
        # one 1500-byte delivery at each of these milliseconds
        stamps = [ms for ms in range(1, 1200, 3) for _ in range(1 + ms % 4)]
        counts = [0] * 6
        for ms in stamps:
            counts[min(int((ms / 1000.0) / 0.2), 5)] += 1
        cell = BandwidthTrace([i * 0.2 for i in range(6)],
                              [c * 1500 * 8 / 0.2 for c in counts],
                              name="mahimahi:cell.up")
        pinned = [
            (BandwidthTrace.constant(15e6, duration=10.0, name="flat-15"),
             "9bc002e5f46914ba"),
            (trace_library(seed=7, duration=30.0).by_class("wifi")[0],
             "3eedbb4e0e788278"),
            (cell, "6544af88223dcd46"),
        ]
        for trace, digest in pinned:
            assert trace_fingerprint(trace) == digest, trace.name
            assert trace_fingerprint(trace) == digest, trace.name

    def test_trace_fingerprint_memo_follows_the_object(self, traces):
        """The memo is per trace object: an equal twin hashes to the same
        digest, a rename of the same object is re-hashed, and keys made
        before and after the memo is warm are identical."""
        trace = traces[1]
        cache = ResultCache(enabled=False)
        cfg = SessionConfig(duration=2.0, seed=3)
        twin = BandwidthTrace(list(trace.timestamps), list(trace.rates_bps),
                              name=trace.name)
        cold_key = cache.make_key("ace", cfg, twin)
        assert cache.make_key("ace", cfg, twin) == cold_key
        assert cache.make_key("ace", cfg, trace) == cold_key
        before = trace_fingerprint(twin)
        twin.name = "steppy-renamed"
        assert trace_fingerprint(twin) != before
        twin.name = trace.name
        assert trace_fingerprint(twin) == before

    def test_code_version_stable(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16


class TestThreePathsAgree:
    """Serial, parallel and warm-cache answers are the same bytes, for
    every baseline and for the cell shapes the grid can carry."""

    @pytest.fixture(scope="class")
    def tasks(self):
        from repro.arena import parse_mix
        from repro.rtc.baselines import list_baselines
        trace = BandwidthTrace([0.0, 0.8, 1.6], [12e6, 6e6, 18e6],
                               name="steppy")
        baselines = list_baselines()
        assert len(baselines) == 14
        tasks = make_grid(baselines, [trace], seeds=(3,), duration=2.0)
        tasks.append(GridTask(          # lossy path + FEC: NACK/RTX rows
            baseline="ace-fec", trace=trace, category="sports",
            config=SessionConfig(duration=2.0, seed=5, random_loss_rate=0.03,
                                 delay_jitter_std=0.002,
                                 initial_bwe_bps=6e6)))
        tasks.append(GridTask(          # multi-flow cell: nested entries
            baseline="arena:ace+cbr@codel", trace=trace,
            config=SessionConfig(duration=2.0, seed=3, initial_bwe_bps=6e6),
            arena={"flows": parse_mix("ace+cbr"), "discipline": "codel"}))
        return tasks

    def test_serial_parallel_and_warm_cache_are_byte_identical(
            self, tasks, tmp_path):
        serial = [canonical_metrics_json(m)
                  for m in ParallelRunner(jobs=1).run(tasks)]
        assert len(set(serial)) == len(tasks)

        cold_cache = ResultCache(cache_dir=tmp_path, enabled=True)
        parallel = ParallelRunner(jobs=2, cache=cold_cache).run(tasks)
        assert [canonical_metrics_json(m) for m in parallel] == serial
        assert cold_cache.counter_dict() == {
            "hits": 0, "misses": len(tasks), "stores": len(tasks),
            "corrupt": 0}

        warm_cache = ResultCache(cache_dir=tmp_path, enabled=True)
        warm = ParallelRunner(jobs=1, cache=warm_cache).run(tasks)
        assert [canonical_metrics_json(m) for m in warm] == serial
        assert warm_cache.counter_dict() == {
            "hits": len(tasks), "misses": 0, "stores": 0, "corrupt": 0}
        # a lossy cell really exercised the retransmission columns
        lossy = warm[-2]
        assert lossy.packets_lost > 0
        assert any(f.had_retransmission for f in lossy.frames)
        assert sorted(warm[-1].flows) == [1, 2]     # arena flows restored
        assert warm[0].bandwidth_fn(0.9) == tasks[0].trace.rate_at(0.9)


class TestMetricsRoundTrip:
    def test_full_session_metrics_round_trip(self, traces):
        metrics = run_baseline("ace", traces[1], duration=DURATION)
        restored = metrics_from_dict(metrics_to_dict(metrics))
        assert canonical_metrics_json(restored) == canonical_metrics_json(metrics)
        assert restored.packets_sent == metrics.packets_sent
        assert len(restored.frames) == len(metrics.frames)
        assert restored.frames[0] == metrics.frames[0]
        assert restored.p95_latency() == metrics.p95_latency()
        assert restored.mean_vmaf() == metrics.mean_vmaf()
        assert restored.stall_rate() == metrics.stall_rate()
        assert restored.bandwidth_fn is None

    def test_round_trip_through_json_text(self, traces):
        import json
        metrics = run_baseline("cbr", traces[0], duration=DURATION)
        blob = json.dumps(metrics_to_dict(metrics))
        restored = metrics_from_dict(json.loads(blob))
        assert canonical_metrics_json(restored) == canonical_metrics_json(metrics)


class TestTraceLibraryCache:
    def test_library_keyed_by_seed_and_duration(self):
        """Regression: the library cache ignored ``duration``, so a
        short-trace request could hand back a long-trace corpus."""
        short = trace_library(seed=7, duration=30.0)
        long = trace_library(seed=7, duration=60.0)
        assert short is not long
        assert trace_library(seed=7, duration=30.0) is short
        assert len(short.by_class("wifi")[0].timestamps) < \
            len(long.by_class("wifi")[0].timestamps)

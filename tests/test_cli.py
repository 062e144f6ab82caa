"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main, make_trace, metrics_row
from repro.net.trace import BandwidthTrace
from repro.observe import Observe
from repro.rtc.session import SessionConfig


class TestMakeTrace:
    def test_named_classes(self):
        for kind in ("wifi", "4g", "5g", "campus"):
            trace = make_trace(kind, seed=1, duration=10.0)
            assert min(trace.rates_bps) > 0

    def test_constant(self):
        trace = make_trace("const:12.5", seed=1, duration=10.0)
        assert trace.rate_at(0.0) == 12.5e6
        assert trace.name == "const:12.5"

    def test_weak_venue(self):
        trace = make_trace("weak:canteen", seed=1, duration=10.0)
        assert sum(trace.rates_bps) / len(trace.rates_bps) < 40e6

    def test_unknown_kind_exits(self):
        with pytest.raises(SystemExit):
            make_trace("dialup", seed=1, duration=10.0)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_args(self):
        args = build_parser().parse_args(
            ["run", "--baseline", "ace", "--trace", "4g", "--rtt", "20"])
        assert args.baseline == "ace"
        assert args.rtt == 20.0
        assert args.category == "gaming"

    def test_category_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--baseline", "ace", "--category", "cooking"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "ace" in out and "webrtc-star" in out and "gaming" in out

    def test_run_prints_metrics(self, capsys):
        rc = main(["run", "--baseline", "cbr", "--trace", "const:15",
                   "--duration", "3", "--seed", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "p95 ms" in out
        assert "latency breakdown" in out

    def test_grid_prints_all_rows(self, capsys):
        """`grid` prints the metrics rows `repro compare --baselines
        cbr,always-burst --trace const:15 --duration 3` printed at
        92b9b19 (recorded there), under their cell keys."""
        rc = main(["grid", "--baselines", "cbr,always-burst", "--traces",
                   "const:15", "--seeds", "1", "--duration", "3"])
        assert rc == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()
                if "/const:15/1/gaming" in line]
        assert rows == [
            ["cbr/const:15/1/gaming",
             "139.0", "60.0", "56.4", "1.32%", "1.87%", "30.0"],
            ["always-burst/const:15/1/gaming",
             "250.0", "50.0", "23.8", "15.22%", "20.73%", "30.0"]]

    def test_grid_over_two_constant_rates(self, capsys):
        """Each const:<mbps> trace is its own grid cell (they were all
        named "constant": a duplicate-cell error)."""
        rc = main(["grid", "--baselines", "ace", "--traces",
                   "const:10,const:20", "--seeds", "1", "--duration", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ace/const:10/1/gaming" in out
        assert "ace/const:20/1/gaming" in out

    def test_sweep_rtt(self, capsys):
        rc = main(["sweep-rtt", "--baseline", "cbr", "--rtts", "20,40",
                   "--trace", "const:15", "--duration", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "RTT ms" in out and "20" in out and "40" in out

    def test_codec_override(self, capsys):
        rc = main(["run", "--baseline", "ace", "--trace", "const:15",
                   "--duration", "3", "--codec", "av1"])
        assert rc == 0

    def test_batch_fallback_is_announced_on_stderr(self, tmp_path, capsys):
        base = ["--trace", "const:15", "--duration", "1.5",
                "--engine", "batch"]
        # Observed and eligible: stays on the batch engine, says nothing.
        assert main(["run", "--baseline", "ace", "--slo", "--series-out",
                     str(tmp_path / "series")] + base) == 0
        assert capsys.readouterr().err == ""
        # The auditor hooks the loop, FEC is outside the fast path.
        assert main(["run", "--baseline", "ace", "--check"] + base) == 0
        err = capsys.readouterr().err
        assert "1 of 1 batch run(s) fell back" in err and "audit" in err
        assert main(["run", "--baseline", "ace-fec"] + base) == 0
        assert "FEC enabled" in capsys.readouterr().err
        assert main(["grid", "--baselines", "ace,ace-fec", "--traces",
                     "const:15", "--seeds", "3", "--duration", "1.5",
                     "--engine", "batch"]) == 0
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "1 of 2 batch run(s) fell back" in err[0]

    def test_cc_override(self, capsys):
        rc = main(["run", "--baseline", "webrtc-star", "--trace", "const:15",
                   "--duration", "3", "--cc", "bbr"])
        assert rc == 0


class TestTraceCommand:
    def test_worst_span_by_default(self, capsys):
        rc = main(["trace", "--baseline", "ace", "--trace", "const:8",
                   "--duration", "2", "--seed", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "telemetry records" in out
        assert "worst end-to-end frame:" in out
        assert "span:" in out and "e2e=" in out

    def test_specific_frame(self, capsys):
        rc = main(["trace", "--baseline", "ace", "--trace", "const:8",
                   "--duration", "2", "--seed", "5", "--frame", "3"])
        assert rc == 0
        assert "frame 3 span:" in capsys.readouterr().out

    def test_metric_series(self, capsys):
        rc = main(["trace", "--baseline", "ace", "--trace", "const:8",
                   "--duration", "2", "--seed", "5",
                   "--metric", "cc.bwe_bps", "--limit", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cc.bwe_bps = " in out

    def test_unknown_metric_fails_and_lists_names(self, capsys):
        rc = main(["trace", "--baseline", "ace", "--trace", "const:8",
                   "--duration", "1", "--seed", "5",
                   "--metric", "no.such.metric"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "registered:" in out and "cc.bwe_bps" in out

    def test_filtered_record_log(self, capsys):
        rc = main(["trace", "--baseline", "ace", "--trace", "const:8",
                   "--duration", "2", "--seed", "5", "--kind", "span",
                   "--since", "0.5", "--until", "1.0", "--limit", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "span" in out

    def test_out_dir_writes_exports(self, tmp_path, capsys):
        out_dir = tmp_path / "tele"
        rc = main(["trace", "--baseline", "ace", "--trace", "const:8",
                   "--duration", "1", "--seed", "5", "--out", str(out_dir)])
        assert rc == 0
        assert (out_dir / "events.jsonl").exists()
        assert (out_dir / "metrics.prom").exists()


class TestRunTelemetryOut:
    def test_run_writes_exports(self, tmp_path, capsys):
        out_dir = tmp_path / "tele"
        rc = main(["run", "--baseline", "ace", "--trace", "const:8",
                   "--duration", "1", "--seed", "5",
                   "--telemetry-out", str(out_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert (out_dir / "events.jsonl").exists()
        assert (out_dir / "metrics.prom").exists()
        assert (out_dir / "metrics.prom").read_text().startswith("# ")

    def test_run_check_with_telemetry(self, tmp_path, capsys):
        out_dir = tmp_path / "tele"
        rc = main(["run", "--baseline", "ace", "--trace", "const:8",
                   "--duration", "1", "--seed", "5", "--check",
                   "--telemetry-out", str(out_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "audit clean" in out
        assert (out_dir / "events.jsonl").exists()


class TestAttribAndProfile:
    def test_trace_attrib_rollup(self, capsys):
        rc = main(["trace", "--baseline", "ace", "--trace", "const:8",
                   "--duration", "2", "--seed", "5", "--attrib"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pacer-residence attribution over" in out
        assert "category" in out

    def test_trace_profile_table(self, capsys):
        rc = main(["trace", "--baseline", "ace", "--trace", "const:8",
                   "--duration", "2", "--seed", "5", "--profile"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "event-loop profile:" in out
        assert "pacer.pump" in out

    def test_why_worst_frames(self, capsys):
        rc = main(["why", "--baseline", "ace", "--trace", "const:8",
                   "--duration", "2", "--seed", "5", "--frames", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "frames attributed" in out
        assert out.count("pacer residence") == 2
        assert "dominant" in out
        assert "pacer-residence attribution over" in out

    def test_why_specific_frame(self, capsys):
        rc = main(["why", "--baseline", "ace", "--trace", "const:8",
                   "--duration", "2", "--seed", "5", "--frame", "4"])
        assert rc == 0
        assert "frame 4 pacer residence" in capsys.readouterr().out

    def test_why_missing_frame_fails(self, capsys):
        rc = main(["why", "--baseline", "ace", "--trace", "const:8",
                   "--duration", "1", "--seed", "5", "--frame", "99999"])
        assert rc == 1
        assert "no pacer stamps" in capsys.readouterr().out


class TestSeriesAndTimelineCli:
    def test_run_series_out_writes_shard(self, tmp_path, capsys):
        rc = main(["run", "--baseline", "ace", "--trace", "const:8",
                   "--duration", "1", "--seed", "5",
                   "--series-out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "series:" in out and "samples x" in out
        shard = tmp_path / "series" / "ace__const-8__s5__gaming.json"
        assert shard.is_file()
        from repro.obs.timeseries import load_shard
        frame = load_shard(shard)
        assert frame.meta["baseline"] == "ace"
        assert frame.t

    def test_timeline_out_writes_blame_csv(self, tmp_path, capsys):
        out = tmp_path / "tl.csv"
        rc = main(["timeline", "--baseline", "ace", "--trace", "const:8",
                   "--duration", "1", "--seed", "5", "--out", str(out)])
        assert rc == 0
        assert "timeline:" in capsys.readouterr().out
        header = out.read_text().splitlines()[0]
        assert header.startswith("frame_id,")
        assert "blame_dominant" in header

    def test_timeline_streams_to_stdout_without_blame(self, capsys):
        rc = main(["timeline", "--baseline", "ace", "--trace", "const:8",
                   "--duration", "1", "--seed", "5", "--no-blame"])
        assert rc == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.startswith("frame_id,")
        assert "blame_dominant" not in header

    def test_grid_stall_ab_pair_diffs_with_divergence_window(
            self, tmp_path, capsys):
        """The ISSUE's acceptance scenario end-to-end: record an A/B
        pair with --series, inject a stall into B, and `repro report
        --diff` prints the max-divergence window."""
        common = ["grid", "--baselines", "ace", "--traces", "const:15",
                  "--seeds", "3", "--duration", "2.5", "--series"]
        assert main(common + ["--run-dir", str(tmp_path / "ref")]) == 0
        assert main(common + ["--run-dir", str(tmp_path / "stalled"),
                              "--inject-stall", "1:0.8"]) == 0
        capsys.readouterr()
        main(["report", str(tmp_path / "stalled"),
              "--diff", str(tmp_path / "ref")])
        out = capsys.readouterr().out
        assert "time-series divergence (worst window per shard):" in out
        assert "max divergence in" in out

    def test_grid_inject_stall_rejects_arena(self):
        with pytest.raises(SystemExit, match="cannot be combined"):
            main(["grid", "--arena", "ace*2", "--traces", "const:15",
                  "--seeds", "3", "--duration", "1",
                  "--inject-stall", "1.0"])

    def test_grid_bad_stall_spec_fails(self):
        with pytest.raises(SystemExit, match="inject-stall wants"):
            main(["grid", "--baselines", "ace", "--traces", "const:15",
                  "--inject-stall", "soon"])


class TestGridAndReport:
    @pytest.fixture()
    def run_dir(self, tmp_path):
        path = tmp_path / "r1"
        rc = main(["grid", "--baselines", "cbr,always-burst",
                   "--traces", "const:15", "--seeds", "2,3",
                   "--duration", "2", "--run-dir", str(path)])
        assert rc == 0
        return path

    def test_grid_writes_run_dir_and_reports(self, tmp_path, capsys):
        path = tmp_path / "r1"
        rc = main(["grid", "--baselines", "cbr,always-burst",
                   "--traces", "const:15", "--seeds", "2,3",
                   "--duration", "2", "--run-dir", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "4 cells" in out
        assert "cache[none]" in out  # counters surface in summary output
        for name in ("manifest.json", "cells.jsonl", "results.json",
                     "summary.json"):
            assert (path / name).is_file(), name

    def test_cached_grid_heartbeat_and_summary_count_alike(
            self, tmp_path, monkeypatch):
        """One count of cache outcomes: the last heartbeat's block is the
        summary's, cold, warm, and with every cell bypassing the cache
        (--series instruments cells, which then neither hit nor miss)."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        grid = ["grid", "--baselines", "cbr,always-burst", "--traces",
                "const:15", "--seeds", "2,3", "--duration", "1", "--cache"]
        for run, extra, want in (("cold", [], (0, 4)),
                                 ("warm", [], (4, 0)),
                                 ("series", ["--series"], (0, 0))):
            run_dir = tmp_path / run
            assert main(grid + extra + ["--run-dir", str(run_dir)]) == 0
            beats = [json.loads(line) for line in
                     (run_dir / "cells.jsonl").read_text().splitlines()
                     if '"heartbeat"' in line]
            summary = json.loads((run_dir / "summary.json").read_text())
            cache = beats[-1]["cache"]
            assert (cache["hits"], cache["misses"]) == want, run
            assert cache == {k: summary["cache"][k] for k in cache}, run

    def test_grid_without_run_dir_prints_table(self, capsys):
        rc = main(["grid", "--baselines", "cbr", "--traces", "const:15",
                   "--seeds", "2", "--duration", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "grid: 1 cells" in out and "cbr" in out

    def test_report_command(self, run_dir, capsys):
        rc = main(["report", str(run_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cbr" in out and "always-burst" in out
        assert "p95_latency" in out

    def test_report_self_diff_is_clean(self, run_dir, capsys):
        rc = main(["report", str(run_dir), "--diff", str(run_dir)])
        assert rc == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_report_diff_exits_1_on_regression(self, run_dir, tmp_path,
                                               capsys):
        import json
        doctored = tmp_path / "doctored"
        doctored.mkdir()
        for name in ("manifest.json", "summary.json"):
            (doctored / name).write_text((run_dir / name).read_text())
        results = json.loads((run_dir / "results.json").read_text())
        for r in results:
            r["p95_latency"] *= 3.0
        (doctored / "results.json").write_text(json.dumps(results))
        rc = main(["report", str(doctored), "--diff", str(run_dir)])
        assert rc == 1
        assert "REGRESSED" in capsys.readouterr().out


class TestRunIsAGridCell:
    """``repro run`` and a grid cell share one instrumented-session
    wiring (``open_task``/``run_opened``) and one stall injector."""

    RUN = ["run", "--baseline", "ace", "--trace", "const:20",
           "--duration", "3", "--seed", "3"]

    def test_stalled_run_matches_the_same_cell_through_run_grid(self):
        from repro.bench.parallel import open_task, run_grid, run_opened
        from repro.cli import make_task
        from tests.test_sim_regression import fingerprint

        args = build_parser().parse_args(self.RUN)
        task = make_task(args.baseline, args, slo_p99_s=0.1,
                         stall=(1.0, 0.5))
        run = run_opened(task, open_task(task, strict_audit=False))
        [cell] = run_grid(
            ["ace"], [make_trace("const:20", seed=3, duration=13.0)],
            seeds=(3,), duration=3.0,
            observe=Observe(slo_p99_s=0.1, stall=(1, 0.5))).values()
        assert fingerprint(run) == fingerprint(cell)
        assert run.slo_alerts == cell.slo_alerts
        assert run.slo_alerts["alerts"] >= 1, "the stall never tripped"

    def test_slo_stall_series_on_the_batch_engine(self, tmp_path, capsys):
        rc = main(self.RUN + ["--engine", "batch", "--slo", "--slo-p99-ms",
                              "100", "--inject-stall", "1:0.5",
                              "--series-out", str(tmp_path)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "SLO FIRING: pacing-p99" in captured.out
        assert "slo: " in captured.out
        assert captured.err == ""
        assert len(list((tmp_path / "series").glob("*.json"))) == 1

    @pytest.fixture()
    def corrupting_build(self, monkeypatch):
        """Every session the grid wiring builds gets its pacer queue
        counter corrupted mid-run — an invariant violation on demand."""
        import repro.bench.parallel as parallel
        real = parallel.build_session

        def build(*args, **kwargs):
            session = real(*args, **kwargs)
            session.loop.call_at(
                0.5, lambda: setattr(session.sender.pacer,
                                     "_queued_bytes", -1), "test.corrupt")
            return session

        monkeypatch.setattr(parallel, "build_session", build)

    def test_run_check_reports_the_violation_and_exits_1(
            self, corrupting_build, capsys):
        rc = main(["run", "--baseline", "ace", "--trace", "const:3",
                   "--duration", "1", "--seed", "7", "--check"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "audited" in out and "FAILED" in out
        assert "pacer.queue.nonneg" in out

    def test_grid_audit_raises_on_the_same_violation(self, corrupting_build):
        from repro.audit import InvariantViolation
        from repro.bench.parallel import GridTask, ParallelRunner

        task = GridTask(baseline="ace", audit=True,
                        config=SessionConfig(duration=1.0, seed=7,
                                             initial_bwe_bps=6e6),
                        trace=BandwidthTrace.constant(3e6, duration=6.0))
        with pytest.raises(InvariantViolation):
            ParallelRunner(jobs=1).run([task])


class TestCommonFlagsAreHonoured:
    """A command defines a common flag only if it acts on it."""

    def test_why_and_trace_build_through_the_requested_discipline(
            self, monkeypatch, capsys):
        import repro.bench.parallel as parallel
        seen = []
        real = parallel.build_session

        def spy(*args, **kwargs):
            seen.append((kwargs.get("discipline"), kwargs.get("engine")))
            return real(*args, **kwargs)

        monkeypatch.setattr(parallel, "build_session", spy)
        common = ["--trace", "const:8", "--duration", "1", "--seed", "5",
                  "--discipline", "codel", "--engine", "batch"]
        assert main(["why"] + common) == 0
        assert main(["trace"] + common) == 0
        assert seen == [("codel", "batch")] * 2
        # CoDel is outside the batch fast path: announced, not silent.
        assert capsys.readouterr().err.count("fell back") == 2

    def test_grid_goes_through_the_runner(self, tmp_path, monkeypatch,
                                          capsys):
        import repro.bench.parallel as parallel
        ran = []
        real = parallel.ParallelRunner.run

        def spy(self, tasks, observer=None):
            ran.append((self.jobs, len(list(tasks))))
            return real(self, tasks, observer=observer)

        monkeypatch.setattr(parallel.ParallelRunner, "run", spy)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        argv = ["grid", "--baselines", "cbr,ace-fec", "--traces",
                "const:15,wifi", "--seeds", "1", "--duration", "1.5",
                "--engine", "batch", "--cache"]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "hits=0 misses=4 stores=4" in cold.out
        assert "2 of 4 batch run(s) fell back" in cold.err  # FEC cells
        assert main(argv + ["--jobs", "2"]) == 0
        warm = capsys.readouterr()
        assert "hits=4 misses=0" in warm.out
        assert ran == [(1, 4), (2, 4)]
        # Same table from the cache as from the fresh run.
        assert (cold.out.split("stores=4", 1)[1].splitlines()[1:]
                == warm.out.split("corrupt=0", 1)[1].splitlines()[1:])

    def test_run_and_grid_share_a_cache_entry(self, tmp_path, monkeypatch,
                                              capsys):
        """One rule for what enters the cache key: the cell `run`
        stored is the cell `grid` asks for on the same coordinates."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert main(["run", "--baseline", "cbr", "--trace", "const:15",
                     "--duration", "1.5", "--seed", "2", "--cache"]) == 0
        assert "hits=0 misses=1 stores=1" in capsys.readouterr().out
        assert main(["grid", "--baselines", "cbr", "--traces", "const:15",
                     "--seeds", "2", "--duration", "1.5", "--cache"]) == 0
        assert "hits=1 misses=0 stores=0" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["why", "--jobs", "2"], ["trace", "--cache"],
        ["timeline", "--jobs", "2"], ["arena", "--engine", "batch"],
        ["arena", "--cc", "bbr"], ["arena", "--cache"],
        ["grid", "--rtt", "80"],
    ])
    def test_flags_a_command_would_ignore_are_not_defined(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_grid_arena_rejects_single_flow_overrides(self):
        with pytest.raises(SystemExit, match="cannot be combined"):
            main(["grid", "--arena", "ace*2", "--traces", "const:15",
                  "--seeds", "3", "--duration", "1", "--cc", "bbr"])


@pytest.mark.parametrize("argv,field", [
    (["run", "--baseline", "ace", "--rtt", "-10"], "base_rtt"),
    (["live", "--rtt", "-10"], "base_rtt"),
    (["run", "--baseline", "ace", "--duration", "0"], "duration"),
    (["load", "--loss", "1.5"], "random_loss_rate"),
    (["live", "--queue", "0"], "queue_capacity_bytes"),
])
def test_an_out_of_range_run_value_exits_with_one_line(argv, field,
                                                       monkeypatch):
    """``run``, ``live`` and ``load`` refuse a value no run can honour:
    one line naming the field, a non-zero exit, no session built."""
    assert field in _refusal(argv, monkeypatch)


@pytest.mark.parametrize("argv,value", [
    (["run", "--baseline", "nope"], "'nope'"),
    (["run", "--baseline", "ace", "--cc", "nope"], "'nope'"),
    (["run", "--baseline", "ace", "--codec", "nope"], "'nope'"),
    (["run", "--baseline", "ace", "--trace", "const:abc"], "const:abc"),
    (["run", "--baseline", "ace", "--trace", "weak:mars"], "mars"),
    (["live", "--baseline", "ace-fec"], "ace-fec"),
    (["load", "--mix", "ace-fec", "--sessions", "1"], "ace-fec"),
    (["load", "--mix", "ace,nope"], "'nope'"),
])
def test_an_unknown_name_exits_with_one_line(argv, value, monkeypatch):
    """A baseline, controller, codec or trace nothing defines — or a live
    baseline the wire format cannot carry — is refused the same way."""
    assert value in _refusal(argv, monkeypatch)


def _refusal(argv, monkeypatch) -> str:
    """The one line ``main(argv)`` exits with, no session built."""
    def no_session(*args, **kwargs):
        raise AssertionError("a session was built")

    monkeypatch.setattr("repro.rtc.session.Session.__init__", no_session)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    message = exc.value.code
    assert isinstance(message, str)        # printed; the exit status is 1
    assert "\n" not in message
    return message

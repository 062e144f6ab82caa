"""Fleet observability: manifests, heartbeats, run reports, diffs."""

import json

import pytest

from repro.bench.parallel import make_grid, run_grid
from repro.net.trace import BandwidthTrace
from repro.obs import build_manifest, diff_runs, load_run, report_run
from repro.obs import fleet as fleet_module
from repro.obs.fleet import FleetObserver
from repro.observe import Observe


def flat_trace(mbps=15.0, name="flat"):
    return BandwidthTrace.constant(mbps * 1e6, duration=20.0, name=name)


def small_grid(**kwargs):
    return make_grid(["ace", "webrtc-star"], [flat_trace()],
                     seeds=(3, 11), duration=1.5, **kwargs)


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------
class TestManifest:
    def test_build_manifest_spec(self):
        tasks = small_grid()
        manifest = build_manifest(tasks, jobs=4, cache_enabled=True,
                                  cache_dir="/tmp/cache")
        assert manifest["cells"] == 4
        assert manifest["baselines"] == ["ace", "webrtc-star"]
        assert list(manifest["traces"]) == ["flat"]
        assert manifest["seeds"] == [3, 11]
        assert manifest["jobs"] == 4
        assert manifest["cache"] == {"enabled": True, "dir": "/tmp/cache"}
        assert len(manifest["code_version"]) == 16
        assert manifest["keys"][0] == ["ace", "flat", 3, "gaming"]

    def test_manifest_is_json_safe(self):
        manifest = build_manifest(small_grid(), jobs=1)
        json.dumps(manifest)  # must not raise


# ----------------------------------------------------------------------
# FleetObserver streaming
# ----------------------------------------------------------------------
class TestFleetObserver:
    def read_records(self, run_dir):
        lines = (run_dir / "cells.jsonl").read_text().splitlines()
        return [json.loads(line) for line in lines]

    def test_cells_and_heartbeats_stream(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fleet_module, "HEARTBEAT_EVERY", 2)
        obs = FleetObserver(tmp_path / "run", total=4, jobs=2)
        for i in range(4):
            obs.cell_done(i, ("ace", "flat", i, "gaming"),
                          source="worker", wall_s=0.1, pid=100 + (i % 2))
        records = self.read_records(tmp_path / "run")
        cells = [r for r in records if r["kind"] == "cell"]
        beats = [r for r in records if r["kind"] == "heartbeat"]
        assert len(cells) == 4
        assert len(beats) == 2  # every 2 completions
        assert cells[0]["done"] == 1 and cells[-1]["done"] == 4
        assert beats[-1]["done"] == 4
        assert set(beats[-1]["workers"]) == {"100", "101"}
        assert beats[-1]["workers"]["100"]["cells"] == 2

    def test_eta_projection(self, tmp_path):
        obs = FleetObserver(tmp_path / "run", total=10, jobs=2)
        assert obs.eta_s() is None  # nothing completed yet
        obs.cell_done(0, ("k",), source="worker", wall_s=2.0, pid=1)
        obs.cell_done(1, ("k",), source="cache")
        # 8 remaining * 2.0s mean / 2 workers
        assert obs.eta_s() == pytest.approx(8.0)
        assert obs.cache_hits == 1 and obs.cache_misses == 1

    def test_straggler_detection(self, tmp_path):
        obs = FleetObserver(tmp_path / "run", total=6, jobs=1)
        for i in range(5):
            obs.cell_done(i, ("fast", i), source="worker", wall_s=1.0, pid=1)
        obs.cell_done(5, ("slow",), source="worker", wall_s=10.0, pid=1)
        assert len(obs.stragglers) == 1
        assert obs.stragglers[0]["key"] == ["slow"]
        records = self.read_records(tmp_path / "run")
        flagged = [r for r in records
                   if r["kind"] == "cell" and r.get("straggler")]
        assert [r["index"] for r in flagged] == [5]

    def test_finalize_writes_summary(self, tmp_path):
        obs = FleetObserver(tmp_path / "run", total=2, jobs=1)
        obs.cell_done(0, ("a",), source="worker", wall_s=0.5, pid=7)
        obs.cell_done(1, ("b",), source="cache")
        summary = obs.finalize({"hits": 1, "misses": 1, "stores": 1})
        on_disk = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert on_disk == summary
        assert summary["completed"] == 2
        assert summary["cache"]["hits"] == 1
        assert summary["workers"]["7"]["cells"] == 1


# ----------------------------------------------------------------------
# run directories end-to-end (real mini-grid)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def run_dirs(tmp_path_factory):
    base = tmp_path_factory.mktemp("fleet")
    kwargs = dict(baselines=["ace", "webrtc-star"], traces=[flat_trace()],
                  seeds=(3, 11), duration=1.5)
    run_grid(run_dir=str(base / "r1"), **kwargs)
    run_grid(run_dir=str(base / "r2"), **kwargs)
    return base / "r1", base / "r2"


class TestRunDirectory:
    def test_artifacts_exist(self, run_dirs):
        r1, _ = run_dirs
        for name in ("manifest.json", "cells.jsonl", "results.json",
                     "summary.json"):
            assert (r1 / name).is_file(), name

    def test_load_run(self, run_dirs):
        r1, _ = run_dirs
        manifest, results, summary = load_run(r1)
        assert manifest["cells"] == len(results) == 4
        assert summary["completed"] == 4
        baselines = {r.baseline for r in results}
        assert baselines == {"ace", "webrtc-star"}

    def test_load_run_rejects_non_run_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run(tmp_path)

    def test_report_run(self, run_dirs):
        r1, _ = run_dirs
        text = report_run(r1)
        assert "4 cells" in text
        assert "ace" in text and "webrtc-star" in text
        assert "p95_latency" in text
        assert "paired comparisons vs ace" in text

    def test_diff_identical_runs_no_regressions(self, run_dirs):
        r1, r2 = run_dirs
        text, regressions = diff_runs(r1, r2)
        assert regressions == []
        assert "0 regression(s)" in text

    def test_diff_reports_series_divergence_window(self, tmp_path):
        """A/B pair recorded with --series: the diff names the time
        window where the injected stall pulled the runs apart — and the
        divergence stays informational (no regression by itself unless
        aggregate metrics also moved)."""
        kwargs = dict(baselines=["ace"], traces=[flat_trace()], seeds=(3,),
                      duration=2.5)
        run_grid(run_dir=str(tmp_path / "ref"),
                 observe=Observe(series=True), **kwargs)
        run_grid(run_dir=str(tmp_path / "stalled"),
                 observe=Observe(series=True, stall=(1.0, 0.8)), **kwargs)
        text, _ = diff_runs(tmp_path / "stalled", tmp_path / "ref")
        assert "time-series divergence (worst window per shard):" in text
        assert "ace__flat__s3__gaming: max divergence in" in text
        assert "normalized" in text

    def test_diff_without_shards_skips_divergence_section(self, run_dirs):
        r1, r2 = run_dirs
        text, _ = diff_runs(r1, r2)
        # Pre-series run dirs degrade cleanly: no divergence header.
        assert "time-series divergence" not in text

    def test_diff_identical_series_runs_have_no_divergence(self, tmp_path):
        kwargs = dict(baselines=["ace"], traces=[flat_trace()], seeds=(3,),
                      duration=1.5, observe=Observe(series=True))
        run_grid(run_dir=str(tmp_path / "a"), **kwargs)
        run_grid(run_dir=str(tmp_path / "b"), **kwargs)
        text, regressions = diff_runs(tmp_path / "a", tmp_path / "b")
        assert regressions == []
        # Identical shards: every window's divergence is ~0, but the
        # worst window is still reported (it exists, it is just flat).
        if "time-series divergence" in text:
            assert "normalized 0.000" in text

    def test_run_dir_writes_are_atomic(self, run_dirs):
        r1, _ = run_dirs
        leftovers = [p for p in r1.rglob(".*.tmp")]
        assert leftovers == []

    def test_diff_flags_regression(self, run_dirs, tmp_path):
        r1, _ = run_dirs
        # Degrade one baseline's latency in a doctored copy of the run.
        doctored = tmp_path / "doctored"
        doctored.mkdir()
        for name in ("manifest.json", "summary.json"):
            (doctored / name).write_text((r1 / name).read_text())
        results = json.loads((r1 / "results.json").read_text())
        for r in results:
            if r["baseline"] == "ace":
                r["p95_latency"] *= 2.0
                r["mean_vmaf"] *= 0.5
        (doctored / "results.json").write_text(json.dumps(results))
        text, regressions = diff_runs(doctored, r1)
        flagged = {(r["baseline"], r["metric"]) for r in regressions}
        assert ("ace", "p95_latency") in flagged
        assert ("ace", "mean_vmaf") in flagged  # direction-aware
        assert "REGRESSED" in text
        # the untouched baseline stays clean
        assert not any(b == "webrtc-star" for b, _ in flagged)

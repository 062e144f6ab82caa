"""Arena grid tests: mix parsing, fleet artifacts, cache keying."""

import json

import pytest

from repro.analysis.cache import ResultCache
from repro.analysis.results import metrics_from_dict, metrics_to_dict
from repro.arena import ArenaFlowSpec, ArenaSession, parse_mix, run_arena_grid
from repro.arena.grid import cell_label
from repro.bench.parallel import GridTask, ParallelRunner
from repro.net.trace import BandwidthTrace
from repro.obs.fleet import diff_runs, load_run, report_run
from repro.observe import Observe
from repro.rtc.session import SessionConfig


def const_trace(mbps=20.0, name="const20"):
    return BandwidthTrace.constant(mbps * 1e6, duration=60.0, name=name)


# ----------------------------------------------------------------------
# parse_mix / cell_label
# ----------------------------------------------------------------------
def test_parse_mix_counts_and_ids():
    flows = parse_mix("ace*2+webrtc-star*2")
    assert [f["baseline"] for f in flows] == \
        ["ace", "ace", "webrtc-star", "webrtc-star"]
    assert [f["flow_id"] for f in flows] == [1, 2, 3, 4]
    assert all(f["start"] == 0.0 and f["stop"] is None for f in flows)


def test_parse_mix_single_baseline():
    (flow,) = parse_mix("cbr")
    assert flow == {"baseline": "cbr", "flow_id": 1,
                    "start": 0.0, "stop": None}


def test_parse_mix_late_joiner_and_leaver():
    flows = parse_mix("ace*2+webrtc-star@8")
    assert flows[2] == {"baseline": "webrtc-star", "flow_id": 3,
                        "start": 8.0, "stop": None}
    flows = parse_mix("ace+cbr@5:12")
    assert flows[1]["start"] == 5.0 and flows[1]["stop"] == 12.0


def test_parse_mix_count_applies_group_start():
    flows = parse_mix("cbr*2@3")
    assert [f["start"] for f in flows] == [3.0, 3.0]


def test_parse_mix_errors():
    for bad in ("", "ace++cbr", "ace*0", "*2", "  "):
        with pytest.raises(ValueError):
            parse_mix(bad)


def test_cell_label_discipline_suffix_only_when_non_default():
    assert cell_label("ace*2", "droptail") == "arena:ace*2"
    assert cell_label("ace*2", "codel") == "arena:ace*2@codel"


# ----------------------------------------------------------------------
# cache keying (satellite 6)
# ----------------------------------------------------------------------
def test_arena_cache_extra_droptail_omits_discipline():
    def task(discipline):
        return GridTask(baseline="arena:cbr", trace=const_trace(),
                        config=SessionConfig(),
                        arena={"flows": parse_mix("cbr"),
                               "discipline": discipline})
    droptail = task("droptail").cache_extra()["arena"]
    codel = task("codel").cache_extra()["arena"]
    assert "discipline" not in json.loads(droptail)
    assert json.loads(codel)["discipline"] == "codel"
    assert droptail != codel


def test_non_arena_cache_extra_is_build_kwargs():
    task = GridTask(baseline="ace", trace=const_trace(),
                    config=SessionConfig(), build_kwargs={"discipline": "codel"})
    assert task.cache_extra() == {"discipline": "codel"}
    assert GridTask(baseline="ace", trace=const_trace(),
                    config=SessionConfig()).cache_extra() == {}


def test_single_flow_cache_key_distinguishes_discipline(tmp_path):
    cache = ResultCache(cache_dir=tmp_path, enabled=True)
    cfg = SessionConfig(duration=4.0, seed=3)
    trace = const_trace()
    default = cache.make_key("ace", cfg, trace, "gaming", {})
    codel = cache.make_key("ace", cfg, trace, "gaming",
                           {"discipline": "codel"})
    assert default != codel


# ----------------------------------------------------------------------
# ArenaMetrics serialization roundtrip
# ----------------------------------------------------------------------
def test_arena_metrics_roundtrip():
    cfg = SessionConfig(duration=3.0, seed=3, initial_bwe_bps=6e6)
    session = ArenaSession([ArenaFlowSpec("cbr", flow_id=1),
                            ArenaFlowSpec("cbr", flow_id=2, start=1.0)],
                           const_trace(), cfg, discipline="codel")
    metrics = session.run()
    d = metrics_to_dict(metrics)
    assert d["kind"] == "arena" and d["discipline"] == "codel"
    restored = metrics_from_dict(d)
    assert sorted(restored.flows) == [1, 2]
    assert restored.specs[2]["start"] == 1.0
    assert restored.discipline == "codel"
    for fid in (1, 2):
        assert restored[fid].packets_sent == metrics[fid].packets_sent
        assert len(restored[fid].frames) == len(metrics[fid].frames)
    # fairness works on the restored object (no live session needed)
    assert 0.0 < restored.fairness(window_s=2.0).jain_throughput <= 1.0


# ----------------------------------------------------------------------
# run_arena_grid end-to-end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def grid_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("arena-run")
    out = run_arena_grid(
        mixes=["cbr*2"], traces=[const_trace()],
        disciplines=("droptail", "codel"), seeds=(3,),
        duration=4.0, run_dir=str(run_dir), window_s=2.0)
    return run_dir, out


def test_grid_returns_cell_per_coordinate(grid_run):
    _, out = grid_run
    assert set(out) == {("cbr*2", "droptail", "const20", 3),
                        ("cbr*2", "codel", "const20", 3)}
    for metrics in out.values():
        assert sorted(metrics.flows) == [1, 2]


def test_grid_manifest_and_results(grid_run):
    run_dir, _ = grid_run
    manifest, results, summary = load_run(run_dir)
    assert manifest["arena"] is True
    assert manifest["disciplines"] == ["droptail", "codel"]
    assert manifest["mixes"] == ["cbr*2"]
    labels = {r.baseline for r in results}
    assert labels == {"cbr#1@droptail", "cbr#2@droptail",
                      "cbr#1@codel", "cbr#2@codel"}
    assert all(r.extra["mix"] == "cbr*2" for r in results)


def test_grid_summary_fairness_block(grid_run):
    run_dir, _ = grid_run
    _, _, summary = load_run(run_dir)
    cells = summary["fairness"]
    assert set(cells) == {"arena:cbr*2|const20|s3",
                          "arena:cbr*2@codel|const20|s3"}
    for cell in cells.values():
        assert 0.0 < cell["jain"] <= 1.0
        assert cell["worst_p95_ms"] > 0.0
        assert set(cell["convergence_s"]) == {"1", "2"}


def test_grid_report_and_self_diff(grid_run):
    run_dir, _ = grid_run
    text = report_run(run_dir)
    assert "fairness" in text
    report, regressions = diff_runs(run_dir, run_dir)
    assert regressions == []
    assert "0 regression(s)" in report


def test_grid_rejects_unknown_discipline():
    with pytest.raises(ValueError):
        run_arena_grid(["cbr"], [const_trace()], disciplines=("red",))


def test_grid_rejects_duplicate_cells():
    with pytest.raises(ValueError):
        run_arena_grid(["cbr"], [const_trace(), const_trace()],
                       duration=2.0)


def test_grid_cache_hit_on_rerun(tmp_path):
    cache = ResultCache(cache_dir=tmp_path / "cache", enabled=True)
    kwargs = dict(mixes=["cbr"], traces=[const_trace()],
                  disciplines=("droptail",), seeds=(3,), duration=3.0)

    runner = ParallelRunner(jobs=1, cache=cache)
    first = run_arena_grid(runner=runner, **kwargs)
    assert cache.misses == 1 and cache.stores == 1

    runner = ParallelRunner(jobs=1, cache=cache)
    second = run_arena_grid(runner=runner, **kwargs)
    assert cache.hits == 1

    key = ("cbr", "droptail", "const20", 3)
    assert first[key][1].packets_sent == second[key][1].packets_sent
    assert len(first[key][1].frames) == len(second[key][1].frames)


def test_grid_cache_discipline_never_crosses(tmp_path):
    cache = ResultCache(cache_dir=tmp_path / "cache", enabled=True)
    kwargs = dict(mixes=["cbr"], traces=[const_trace()], seeds=(3,),
                  duration=3.0)
    run_arena_grid(runner=ParallelRunner(jobs=1, cache=cache),
                   disciplines=("droptail",), **kwargs)
    run_arena_grid(runner=ParallelRunner(jobs=1, cache=cache),
                   disciplines=("codel",), **kwargs)
    # second run must be a miss: codel never reads the drop-tail slot
    assert cache.hits == 0 and cache.misses == 2 and cache.stores == 2

def test_grid_series_writes_sanitized_arena_shards(tmp_path):
    """``--arena --series``: per-cell shards land under the run dir with
    the arena label's ``*+@:`` characters sanitized, and render-ready
    per-flow columns inside."""
    from repro.obs.timeseries import load_shard

    run_dir = tmp_path / "run"
    run_arena_grid(
        mixes=["ace+cbr"], traces=[const_trace()],
        disciplines=("codel",), seeds=(3,), duration=2.5,
        run_dir=str(run_dir), observe=Observe(series=True))
    shards = sorted((run_dir / "series").glob("*.json"))
    assert [p.stem for p in shards] == \
        ["arena-ace-cbr-codel__const20__s3__gaming"]
    frame = load_shard(shards[0])
    assert frame.meta["mode"] == "arena"
    assert frame.t
    assert "arena.flow1.sent_bytes" in frame.series
    assert "arena.flow2.sent_bytes" in frame.series
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["series"] is True

"""Tests for the named scenario presets."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.scenarios import SCENARIOS, get_scenario, list_scenarios, run_scenario

#: ``run_scenario(name, duration=3)`` as ``RunResult.to_dict()`` rows,
#: recorded at 92b9b19 — the serial per-scenario loops, before scenario
#: cells became grid tasks on the shared executor.
PARENT_ROWS = json.loads((Path(__file__).parent / "data"
                          / "scenario_rows_92b9b19.json").read_text())


def test_registry_lists_paper_sections():
    names = list_scenarios()
    for expected in ("main-tradeoff", "ablation", "production", "campus"):
        assert expected in names


def test_unknown_scenario_raises():
    with pytest.raises(KeyError):
        get_scenario("moon-streaming")


def test_every_scenario_well_formed():
    from repro.arena import parse_mix
    from repro.net.aqm import list_disciplines

    for name, scenario in SCENARIOS.items():
        if scenario.arena_mix is not None:
            assert parse_mix(scenario.arena_mix), name
            assert set(scenario.disciplines) <= set(list_disciplines()), name
        else:
            assert scenario.baselines, name
        assert scenario.traces, name
        assert scenario.duration > 0
        assert scenario.description


def test_run_scenario_produces_full_matrix():
    results = run_scenario("ablation", seed=2, duration=3.0)
    scenario = get_scenario("ablation")
    assert len(results) == len(scenario.baselines) * len(scenario.traces)
    baselines = {r.baseline for r in results}
    assert baselines == set(scenario.baselines)
    for r in results:
        assert r.frames > 60
        assert r.extra.get("scenario") == "ablation"


def test_run_arena_scenario_emits_per_flow_results():
    results = run_scenario("arena-rtc-rtc", seed=2, duration=4.0)
    scenario = get_scenario("arena-rtc-rtc")
    assert len(results) == 4                 # ace*2+webrtc-star*2, one trace
    assert {r.baseline for r in results} == \
        {"ace#1@droptail", "ace#2@droptail",
         "webrtc-star#3@droptail", "webrtc-star#4@droptail"}
    for r in results:
        assert r.extra["mix"] == scenario.arena_mix
        assert 0.0 < r.extra["jain"] <= 1.0
        assert r.extra["discipline"] == "droptail"


@pytest.mark.parametrize("name", sorted(PARENT_ROWS))
def test_executor_reproduces_the_rows_of_the_serial_loops(name):
    """Every field equal; the extras may only have grown (an arena row
    now carries the union of the grid's and the scenario's)."""
    rows = [r.to_dict() for r in run_scenario(name, duration=3)]
    assert len(rows) == len(PARENT_ROWS[name])
    for now, was in zip(rows, PARENT_ROWS[name]):
        assert was["extra"].items() <= now["extra"].items()
        assert {**now, "extra": None} == {**was, "extra": None}


def test_scenario_cells_run_on_the_shared_executor(monkeypatch):
    import repro.bench.parallel as parallel
    ran = []
    real = parallel.ParallelRunner.run

    def spy(self, tasks, observer=None):
        ran.append([task.key() for task in tasks])
        return real(self, tasks, observer=observer)

    monkeypatch.setattr(parallel.ParallelRunner, "run", spy)
    run_scenario("arena-aqm", seed=2, duration=2.0)
    assert ran == [[(f"arena:ace+webrtc-star{suffix}", "wifi-0", 2, "gaming")
                    for suffix in ("", "@codel", "@pie", "@confucius")]]


def test_category_override():
    results = run_scenario("categories", seed=2, duration=3.0,
                           category="lecture")
    assert all(r.category == "lecture" for r in results)


def test_cli_lists_scenarios(capsys):
    assert main(["scenario"]) == 0
    out = capsys.readouterr().out
    assert "main-tradeoff" in out and "production" in out


def test_cli_runs_scenario_and_writes_json(tmp_path, capsys):
    out_file = tmp_path / "scenario.json"
    rc = main(["scenario", "lossy-link", "--duration", "3",
               "--out", str(out_file)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ace-fec" in out
    assert out_file.exists()

"""One observation plan: the options are declared, attached and
harvested once, on sim, arena and live sessions alike."""

import ast
import asyncio
import math
from dataclasses import asdict, fields, replace
from pathlib import Path

import pytest

from repro.arena import ArenaFlowSpec, ArenaSession
from repro.arena.grid import arena_task
from repro.bench.parallel import open_task, run_opened
from repro.live.server import LoadConfig, build_load_specs
from repro.live.session import LiveConfig, build_live_session
from repro.net.trace import BandwidthTrace
from repro.observe import Observe, attach, harvest
from repro.rtc.baselines import build_session
from repro.rtc.session import SessionConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
OPTIONS = ("telemetry", "audit", "series", "slo_p99_s", "stall")
HARVESTED = ("slo_alerts", "series_frame", "audit")
#: what every session type can carry.
WATCH = Observe(telemetry=True, series=True)


def trace(mbps=20.0):
    return BandwidthTrace.constant(mbps * 1e6, duration=20.0)


def sim_session(engine):
    return build_session("ace", trace(), SessionConfig(
        duration=1.5, seed=3, initial_bwe_bps=8e6), engine=engine)


def arena_cell(**options):
    return arena_task("ace+webrtc-star", "droptail", trace(10.0), "gaming",
                      config=SessionConfig(duration=1.0, seed=3,
                                           initial_bwe_bps=6e6),
                      **options)


def run_live(options, duration=1.5):
    session = build_live_session(
        "ace", LiveConfig(duration=duration, drain=0.2, seed=3,
                          **asdict(options)), trace=trace())
    return session, harvest(session, asyncio.run(session.run()))


def assert_watched(session, result, mode):
    assert all(hasattr(result, name) for name in HARVESTED)
    assert session.telemetry is not None and session.observed is not None
    assert result.series_frame.t
    assert result.series_frame.meta["mode"] == mode
    assert result.slo_alerts is None and result.audit is None


@pytest.mark.parametrize("engine", ["reference", "batch"])
def test_one_value_on_a_sim_session(engine):
    session = attach(sim_session(engine), WATCH)
    result = harvest(session, session.run())
    assert_watched(session, result, "sim")
    assert session.engine.fallback_reason is None


def test_one_value_on_an_arena_session():
    task = arena_cell(**asdict(WATCH))
    session = open_task(task)
    result = run_opened(task, session)
    assert_watched(session, result, "arena")
    assert "arena.flow1.sent_bytes" in result.series_frame.series


def test_harvest_on_an_unattached_arena_reads_no_observer():
    """``harvest`` works on a session nothing was attached to, arenas
    included: every harvested field is ``None`` — except a series the
    caller recorded through ``enable_telemetry`` directly."""
    def arena():
        return ArenaSession([ArenaFlowSpec("cbr", flow_id=1)], trace(10.0),
                            SessionConfig(duration=1.0, seed=3))

    session = arena()
    result = harvest(session, session.run())
    assert all(getattr(result, name) is None for name in HARVESTED)
    session = arena()
    session.enable_telemetry().attach_series()
    result = harvest(session, session.run())
    assert result.series_frame.meta["mode"] == "arena"
    assert "stall" not in result.series_frame.meta


def test_one_value_on_a_live_session():
    session, result = run_live(WATCH)
    assert_watched(session, result, "live")


def test_single_flow_options_on_sim_and_live():
    """The watchdog, the stall and the auditor: one value, two clocks —
    per-event auditing on the loop, the wall clock's loop included."""
    full = Observe(audit=True, slo_p99_s=0.05, stall=(0.3, 0.6))
    session = attach(sim_session("reference"), full, strict=False)
    sim = harvest(session, session.run())
    live_session, live = run_live(full)
    for result in (sim, live):
        assert result.slo_alerts["rules"] == 2
        assert result.audit["violations"] == 0
        assert result.audit["report"].startswith("audit clean")
        assert result.series_frame is None
    assert session.auditor.fine_grained
    assert not live_session.auditor.fine_grained
    # dropped at teardown
    assert live_session.clock.loop.next_time() == math.inf


@pytest.mark.parametrize("option,value", [
    ("telemetry", True), ("audit", True), ("series", True),
    ("slo_p99_s", 0.25), ("stall", (0.5, 0.5))])
def test_an_arena_cell_drops_no_option(option, value):
    """Each option is honoured on an arena cell or refused when the cell
    is opened — never accepted and silently dropped."""
    task = arena_cell(**{option: value})
    assert task.instrumented
    if option in ("telemetry", "series"):
        session = open_task(task)
        result = run_opened(task, session)
        assert session.telemetry is not None
        assert (result.series_frame is not None) == (option == "series")
    else:
        with pytest.raises(ValueError, match=option):
            open_task(task)


def test_a_replaced_load_config_can_drop_telemetry():
    """perfbench's ``live_fleet`` replaces ``telemetry`` on the configs
    the load generator builds: the field stays a LiveConfig field."""
    [spec] = build_load_specs(LoadConfig(sessions=1, duration=0.3,
                                         drain=0.1, seed=3))
    assert spec.config.telemetry
    session = build_live_session(
        spec.baseline, replace(spec.config, telemetry=False),
        trace=spec.trace)
    asyncio.run(session.run())
    assert session.telemetry is None and session.sender is not None


def test_load_config_keeps_only_the_fleet_options():
    names = {f.name for f in fields(LoadConfig)}
    assert {"series", "slo_p99_s", "stall"} <= names
    assert not names & {"telemetry", "audit", "slo", "slo_pacing_p99_s",
                        "inject_stall_at", "inject_stall_duration"}


def test_each_run_field_is_declared_once():
    """One run config: the live and load configs *are* SessionConfigs,
    a fuzz case and a grid cell carry one, and none of the four restates
    a SessionConfig field — bar ``duration``, re-declared only to change
    its default."""
    run_fields = {f.name: f for f in fields(SessionConfig)}
    owners = {"LiveConfig": "live/session.py", "LoadConfig": "live/server.py",
              "FuzzCase": "audit/fuzz.py", "GridTask": "bench/parallel.py"}
    for owner, rel in owners.items():
        tree = ast.parse((SRC / rel).read_text())
        [cls] = [node for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) and node.name == owner]
        declared = {item.target.id: item for item in cls.body
                    if isinstance(item, ast.AnnAssign)}
        if owner in ("LiveConfig", "LoadConfig"):
            assert "SessionConfig" in map(ast.unparse, cls.bases), owner
        else:
            assert ast.unparse(declared["config"].annotation) == \
                "SessionConfig", owner
        for name in declared.keys() & run_fields.keys():
            item, field = declared[name], run_fields[name]
            assert name == "duration", f"{owner} restates {name}"
            assert ast.unparse(item.annotation) == field.type, owner
            assert ast.literal_eval(item.value) != field.default, owner


def _dataclass_fields(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            for item in node.body:
                if isinstance(item, ast.AnnAssign):
                    yield node.name, item.target.id


def test_each_option_is_declared_once_and_wired_in_one_module():
    # LoadConfig's three are fleet-scoped; SeriesFrame.series is the
    # recorded columns, not an option.
    others = {"LoadConfig", "SeriesFrame"}
    declared = {name: [] for name in OPTIONS}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for owner, name in _dataclass_fields(tree):
            if name in declared and owner not in others:
                declared[name].append(f"{path.relative_to(SRC)}:{owner}")
    assert declared == {name: ["observe.py:Observe"] for name in OPTIONS}

    wiring = {"attach_watchdog", "attach_series", "PacingStall",
              "attach_audit"}
    for rel in ("bench/parallel.py", "live/session.py", "rtc/session.py"):
        tree = ast.parse((SRC / rel).read_text())
        named = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
                if getattr(node.value, "id", None) == "os":
                    named.add(f"os.{node.attr}")
            elif isinstance(node, ast.alias):
                named.add(node.name)
        assert not named & (wiring | {"os.environ"}), rel

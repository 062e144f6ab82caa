"""Structural guard: the sender pipeline is assembled in one place.

Three session assemblers used to hand-build the same ``Sender`` →
``TransportReceiver`` stack, and the 50 ms pacing-stall clamp existed
three times. These ``ast`` checks fail the moment a second construction
site, a second stall clamp, or a second args→``SessionConfig`` mapping
reappears under ``src/repro`` — and, one level up, a second place that
turns metrics into result rows, opens a run directory, runs a scenario
cell, or defines a CLI flag another command already has; and, one level
down, a second statement of a pacer's release policy, the token refill
or the bottleneck's service law. Sim, arena and live sessions share one
set of transport callbacks and one lifecycle, and build each flow from
its baseline spec in one place.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from functools import partial
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _name(func: ast.expr) -> str:
    return func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", "")


def _modules_calling(name: str) -> set:
    found = set()
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        if any(isinstance(node, ast.Call) and _name(node.func) == name
               for node in ast.walk(tree)):
            found.add(str(path.relative_to(SRC)))
    return found


def _functions_containing(tree: ast.AST, predicate) -> list:
    """Innermost functions whose own body (nested defs excluded) has a
    node matching ``predicate``."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if predicate(child) and owner not in found:
                found.append(owner)
            visit(child, inner)

    visit(tree, "<module>")
    return found


def _functions_calling(predicate) -> list:
    """``(module, function)`` for every function under ``src/repro``
    whose own body has a node matching ``predicate``."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        sites += [(str(path.relative_to(SRC)), fn)
                  for fn in _functions_containing(tree, predicate)]
    return sites


def test_one_module_constructs_sender_and_receiver():
    assert _modules_calling("Sender") == {"rtc/session.py"}
    assert _modules_calling("TransportReceiver") == {"rtc/session.py"}


#: the flow components a baseline spec names, by defining package.
COMPONENTS = {
    "transport/pacer/": ("LeakyBucketPacer", "BurstPacer",
                         "TokenBucketPacer"),
    "transport/cc/": ("GccController", "BbrController", "CopaController",
                      "DeliveryRateController"),
    "video/codec/": ("CodecModel", "AbrVbvRateControl", "CbrRateControl"),
    "transport/": ("FecEncoder", "AudioSource"),
}


def test_one_module_maps_a_spec_to_its_components():
    """``FlowStack`` is the one statement of spec → components: outside
    its own package, no module but ``rtc/session.py`` constructs a pacer,
    a congestion controller, a codec model, a rate control, an FEC
    encoder or an audio source, and no
    ``*_factory`` helper or parameter for one exists."""
    def builds(node, cls):              # ``cls`` is in the callee expression
        return isinstance(node, ast.Call) and any(
            _name(sub) == cls for sub in ast.walk(node.func))

    for package, classes in COMPONENTS.items():
        for cls in classes:
            builders = {module for module, _ in _functions_calling(
                partial(builds, cls=cls)) if not module.startswith(package)}
            assert builders == {"rtc/session.py"}, cls
    kinds = ("pacer", "cc", "codec", "rate_control")
    factories = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            name = (node.name if isinstance(node, ast.FunctionDef)
                    else node.arg if isinstance(node, ast.arg) else "")
            if name.lstrip("_") in {f"{k}_factory" for k in kinds}:
                factories.append((str(path.relative_to(SRC)), name))
    assert factories == []


def test_a_flow_is_its_spec_on_every_clock():
    """A custom pacer rides on the spec through ``build_session``, and
    the sender's reverse delay is the config's one-way delay on a
    single-flow session, an arena flow and a live stack alike."""
    import asyncio
    from dataclasses import replace

    from repro.arena.session import ArenaFlowSpec, ArenaSession
    from repro.live.session import LiveConfig, build_live_session
    from repro.net.trace import BandwidthTrace
    from repro.rtc.baselines import build_session, get_spec
    from repro.rtc.session import SessionConfig
    from repro.transport.pacer import BurstPacer

    class CustomPacer(BurstPacer):
        """A policy no spec names: it rides on the spec as a class."""

    trace = BandwidthTrace.constant(8e6, duration=10.0)
    config = SessionConfig(duration=1.0, base_rtt=0.05)
    session = build_session(
        replace(get_spec("webrtc-star"), pacer=CustomPacer), trace, config)
    assert type(session.sender.pacer) is CustomPacer
    assert session.run().packets_sent > 50
    assert session.sender.reverse_delay == config.base_rtt / 2

    arena = ArenaSession([ArenaFlowSpec("ace", flow_id=3)], trace, config)
    assert arena.senders[3].reverse_delay == config.base_rtt / 2

    live_config = LiveConfig(duration=0.2, base_rtt=0.05)
    live = build_live_session("ace", live_config)
    asyncio.run(live.run())
    assert live.sender.reverse_delay == live_config.base_rtt / 2


def test_one_function_holds_the_stall_clamp():
    def is_clamp(node):
        return (isinstance(node, ast.Call)
                and _name(node.func) == "set_pacing_rate"
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == 0.0)

    assert _functions_calling(is_clamp) == [("transport/pacer/stall.py",
                                             "_clamp")]


def test_cli_constructs_session_config_in_one_function():
    tree = ast.parse((SRC / "cli.py").read_text())

    def is_config(node):
        return (isinstance(node, ast.Call)
                and _name(node.func) == "SessionConfig")

    assert _functions_containing(tree, is_config) == ["session_config"]


def test_one_function_makes_result_rows_and_one_opens_a_run_directory():
    def makes_row(node):
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "from_metrics")

    def opens_run_dir(node):
        return (isinstance(node, ast.Call)
                and _name(node.func) == "FleetObserver")

    assert _functions_calling(makes_row) == [("bench/parallel.py", "results")]
    assert _functions_calling(opens_run_dir) == [("bench/parallel.py",
                                                  "run_cells")]


def _defs(predicate) -> list:
    """``(module, class or function)`` of every definition under
    ``src/repro`` matching ``predicate``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(str(path.relative_to(SRC)), node.name)
                  for node in ast.walk(tree) if predicate(node)]
    return found


def test_one_session_lifecycle_on_either_clock():
    """A single-flow run is an arena of one, and a live run is the same
    session on a wall clock: one class holds the transport callbacks,
    the loss counter, ``enable_telemetry`` and the run-once guard; each
    ``run`` only advances its clock between the shared phases."""
    from repro.arena.session import ArenaSession
    from repro.live.session import LiveSession
    from repro.rtc.session import RtcSession, Session

    callbacks = {"_on_arrival", "_on_feedback", "_on_drop"}
    owners = _defs(lambda node: isinstance(node, ast.ClassDef) and callbacks & {
        item.name for item in node.body if isinstance(item, ast.FunctionDef)})
    assert owners == [("rtc/session.py", "Session")]
    assert all(issubclass(cls, Session)
               for cls in (RtcSession, ArenaSession, LiveSession))
    assert _defs(lambda node: isinstance(node, ast.FunctionDef)
                 and node.name == "enable_telemetry") == [
        ("rtc/session.py", "enable_telemetry")]
    assert _functions_calling(
        lambda node: isinstance(node, ast.Raise) and node.exc is not None
        and "already ran" in ast.unparse(node.exc)) == [
        ("rtc/session.py", "_claim")]

    # Losses are counted once, by ``_on_drop``: neither the live endpoint
    # nor the path keeps a per-drop list (a live soak runs the path), and
    # the live session reads no transport's count.
    for rel in ("live/transport.py", "live/session.py", "net/path.py"):
        tree = ast.parse((SRC / rel).read_text())
        assert not [node for node in ast.walk(tree)
                    if getattr(node, "attr", None) == "dropped_packets"], rel
        assert not [node for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and _name(node.func) == "append"
                    and "packet" in ast.unparse(node.args)], rel
    assert _functions_calling(
        lambda node: isinstance(node, ast.Attribute)
        and node.attr == "_flow_losses") == [
        ("rtc/session.py", "__init__"), ("rtc/session.py", "_add_flow"),
        ("rtc/session.py", "_on_drop"), ("rtc/session.py", "_finish")]

    # Each run claims the session, starts, advances its clock (an engine
    # or an await), stops, drains the same way and finishes; a teardown
    # (``finally``) does not count as the phases.
    phases = ("_claim", "_start", "_stop", "_finish")

    def is_phase(node, names=phases):
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and getattr(node.func.value, "id", None) == "self"
                and node.func.attr in names)

    runs = _functions_calling(partial(is_phase, names=("_claim",)))
    assert runs == [("live/session.py", "run"), ("rtc/session.py", "run")]
    for rel, _ in runs:
        tree = ast.parse((SRC / rel).read_text())
        [run] = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and node.name == "run"
                 and any(is_phase(n, ("_claim",)) for n in ast.walk(node))]
        teardown = {id(n) for t in ast.walk(run) if isinstance(t, ast.Try)
                    for stmt in t.finalbody for n in ast.walk(stmt)}
        steps = []
        for node in ast.walk(run):
            if id(node) in teardown:
                continue
            if is_phase(node) or (isinstance(node, ast.Call)
                                  and _name(node.func) == "advance"):
                steps.append((node.lineno, _name(node.func)))
            elif isinstance(node, ast.Await):
                steps.append((node.lineno, "advance"))
        order = [name for _, name in sorted(steps)]
        claim, start, stop, finish = (order.index(p) for p in phases)
        assert claim < start < stop < finish, (rel, order)
        assert "advance" in order[start:stop], (rel, order)
        assert "advance" in order[stop:finish], (rel, order)


def test_a_live_session_runs_the_simulators_path():
    """One path under both clocks: the one ``NetworkPath`` construction
    is ``Session``'s single-flow step in ``rtc/session.py``, which a live
    session calls too; no module under ``live/`` wires a path callback
    or hands a flow its own ends, and none — bar the kept
    ``impairment.py``, which nothing calls — draws loss, builds a
    drop-tail server or delays a send on a clock."""
    constructions = Counter()
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        constructions[str(path.relative_to(SRC))] += sum(
            isinstance(node, ast.Call) and _name(node.func) == "NetworkPath"
            for node in ast.walk(tree))
    assert +constructions == {"rtc/session.py": 1}
    assert _functions_calling(
        lambda node: isinstance(node, ast.Call)
        and _name(node.func) == "_add_flow"
        and any(k.arg == "ends" for k in node.keywords)) == []
    for path in sorted((SRC / "live").glob("*.py")):
        tree = ast.parse(path.read_text())
        assert not [node for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and node.attr in ("on_arrival", "on_feedback", "on_drop")
                    and getattr(node.value, "id", None) != "self"], path.name
        if path.name == "impairment.py":
            continue
        called = {_name(node.func) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)}
        assert not called & {"DropTailServer", "LoopbackImpairment",
                             "random", "admit"}, path.name
        assert not {getattr(node, "attr", None) for node in ast.walk(tree)} & {
            "random_loss_rate", "one_way_delay", "feedback_delay"}, path.name
    transport = ast.parse((SRC / "live" / "transport.py").read_text())
    assert not {_name(node.func) for node in ast.walk(transport)
                if isinstance(node, ast.Call)} & {
        "call_at", "call_later", "post"}
    assert _modules_calling("LoopbackImpairment") == set()


def test_scenarios_build_tasks_and_run_nothing_themselves():
    tree = ast.parse((SRC / "scenarios.py").read_text())
    called = {_name(node.func) for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    assert not called & {"build_session", "run", "ArenaSession"}
    assert {"GridTask", "arena_task", "run_cells"} <= called


def test_each_pacing_and_link_law_is_stated_once():
    """The batch engine asks the pacer (``release_train``) and feeds the
    link's own drop-tail server; nothing outside the owners restates a
    law or keeps a second copy of the bottleneck's or the RTX state."""
    batch = ast.parse((SRC / "sim" / "batch.py").read_text())
    imported = {node.module for node in ast.walk(batch)
                if isinstance(node, ast.ImportFrom)}
    assert {m for m in imported if m.startswith("repro.transport.pacer")} \
        == {"repro.transport.pacer.base"}
    for node in ast.walk(batch):
        if isinstance(node, ast.Call) and _name(node.func) == "isinstance":
            assert "pacer" not in ast.unparse(node).lower()
        assert getattr(node, "attr", None) != "_pacer_kind"

    # Admission, retirement and the service law are the server's: its
    # feeders neither call ``serve`` nor hold link state of their own.
    for feeder in ("sim/batch.py", "live/impairment.py"):
        tree = ast.parse((SRC / feeder).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert "serve" not in {a.name for a in node.names}, feeder
            assert getattr(node, "attr", None) not in (
                "_busy_until", "_q_bytes", "_fin", "_in_queue"), \
                f"{feeder}:{node.lineno}"

    owners = ("core/token_bucket.py", "transport/pacer/")
    outlasts = []
    for path in sorted(SRC.rglob("*.py")):
        rel = str(path.relative_to(SRC))
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("_last_refill", "_next_send_time")):
                assert rel.startswith(owners), f"{rel}:{node.lineno}"
            # One RTX table, the sender's, keyed by frame: no per-packet
            # table, no burst index beside it.
            assert getattr(node, "attr", None) not in (
                "_sent_packets", "_frame_seqs", "_seq0s", "_burst_list"), \
                f"{rel}:{node.lineno}"
            if (isinstance(node, ast.Raise) and node.exc is not None
                    and "outlasts 1e5 s" in ast.unparse(node.exc)):
                outlasts.append(rel)
    assert outlasts == ["net/link.py"]


#: flags whose meaning genuinely is per command (an output path of four
#: different formats; how many worst frames vs. how many dashboard
#: frames) — each command defines its own.
PER_COMMAND_FLAGS = {"--out", "--frames"}


def test_each_cli_flag_is_defined_once():
    """A shared flag is a key of ``FLAGS``; a command's own default or
    help is data passed to ``command(...)``, not another definition."""
    tree = ast.parse((SRC / "cli.py").read_text())
    [table] = [node.value for node in ast.walk(tree)
               if isinstance(node, ast.AnnAssign)
               and getattr(node.target, "id", "") == "FLAGS"]
    defined = Counter(key.value for key in table.keys)
    from_table = 0
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and _name(node.func) == "add_argument"):
            continue
        flag = node.args[0]
        if not isinstance(flag, ast.Constant):
            from_table += 1             # the one loop over FLAGS
        elif flag.value.startswith("--"):
            defined[flag.value] += 1
    assert from_table == 1
    repeated = {flag: n for flag, n in defined.items()
                if n > 1 and flag not in PER_COMMAND_FLAGS}
    assert repeated == {}
    assert len(defined) > 50, "parsed the wrong thing?"


def test_importing_the_cli_loads_no_live_runtime_and_no_telemetry():
    """The path is the sim transport, the run log and the SLO line load
    on use: ``import repro.cli`` pulls in neither asyncio, the live
    runtime nor the observability stack."""
    code = ("import sys, repro.cli; "
            "print(sorted({'asyncio', 'repro.live', 'repro.obs'} "
            "& set(sys.modules)))")
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        timeout=120)
    assert out.stdout.strip() == "[]"

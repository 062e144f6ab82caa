"""Structural guard: the sender pipeline is assembled in one place.

Three session assemblers used to hand-build the same ``Sender`` →
``TransportReceiver`` stack, and the 50 ms pacing-stall clamp existed
three times. These ``ast`` checks fail the moment a second construction
site, a second stall clamp, or a second args→``SessionConfig`` mapping
reappears under ``src/repro`` — and, one level up, a second place that
turns metrics into result rows, opens a run directory, runs a scenario
cell, or defines a CLI flag another command already has; and, one level
down, a second statement of a pacer's release policy, the token refill
or the bottleneck's service law.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
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

"""Structural guard: the sender pipeline is assembled in one place.

Three session assemblers used to hand-build the same ``Sender`` →
``TransportReceiver`` stack, and the 50 ms pacing-stall clamp existed
three times. These ``ast`` checks fail the moment a second construction
site, a second stall clamp, or a second args→``SessionConfig`` mapping
reappears under ``src/repro``.
"""

import ast
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

    sites = []
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        sites += [(str(path.relative_to(SRC)), fn)
                  for fn in _functions_containing(tree, is_clamp)]
    assert sites == [("transport/pacer/stall.py", "_clamp")]


def test_cli_constructs_session_config_in_one_function():
    tree = ast.parse((SRC / "cli.py").read_text())

    def is_config(node):
        return (isinstance(node, ast.Call)
                and _name(node.func) == "SessionConfig")

    assert _functions_containing(tree, is_config) == ["session_config"]

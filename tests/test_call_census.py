"""The call census reports what its entry points never call.

``scripts/call_census.py`` runs entry points under a profile hook and
lists every function of a package that none of them called, and every
option that only ever took its default. Here the package is a planted
one in a temporary directory, and the entry point one interpreter that
calls one of its functions.
"""

from __future__ import annotations

import importlib.util
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "call_census", ROOT / "scripts" / "call_census.py")
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)

PLANTED = '''\
from dataclasses import dataclass


def called(scale=2, shift=0, spare_knob=1):
    config = Config()
    config.level = 3
    return (Box().open() * scale + shift + spare_knob + config.width
            + config.level)


def uncalled():
    return 2


def spare_uncalled():
    return 3


class Box:
    def open(self):
        return 1

    def never(self):
        return 4


@dataclass
class Config:
    width: int = 4
    level: int = 0
'''

ALLOW = (("planted.mod:spare_*", "kept on purpose"),)
OPTION_ALLOW = (("planted.mod:called.spare_*", "kept on purpose"),)


def run_census(tmp_path: Path) -> tuple:
    package = tmp_path / "src" / "planted"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(PLANTED)
    entry = ("probe", [[sys.executable, "-c",
                        "import planted.mod; planted.mod.called(shift=1)"]],
             True, None)
    dumps = tmp_path / "dumps"
    dumps.mkdir()
    failed = census.census([entry], package, tmp_path, dumps)
    assert failed == []
    seen, owners, off = census.read_dumps(dumps)
    out, options_out = io.StringIO(), io.StringIO()
    bad = census.report(census.definitions(package), seen, ALLOW,
                        checked=ALLOW, out=out)
    options_bad = census.option_report(
        census.options(package), owners, off, OPTION_ALLOW,
        checked=OPTION_ALLOW, out=options_out)
    return (bad, out.getvalue().splitlines(), options_bad,
            options_out.getvalue().splitlines())


def test_a_planted_uncalled_function_is_reported_and_an_allowed_one_is_not(
        tmp_path):
    bad, lines, _options_bad, _options = run_census(tmp_path)
    assert "X planted.mod:uncalled (2 lines)" in lines
    assert "X planted.mod:Box.never (2 lines)" in lines
    assert "  planted.mod:spare_uncalled (2 lines): kept on purpose" in lines
    assert not any("planted.mod:called" in line or "Box.open" in line
                   for line in lines)
    assert bad == 2
    assert lines[-1] == ("census: 5 definitions, 3 unreached (6 lines), "
                         "2 not allowed")


def test_an_option_that_only_took_its_default_is_reported(tmp_path):
    _bad, _lines, bad, lines = run_census(tmp_path)
    # never overridden: reported, on a function and a dataclass field
    assert "X option planted.mod:called.scale only ever took its default" \
        in lines
    assert "X option planted.mod:Config.width only ever took its default" \
        in lines
    # overridden by the entry point: in use
    assert not any("called.shift" in line for line in lines)
    # allowlisted: printed with its reason, not counted
    assert ("  option planted.mod:called.spare_knob only ever took its "
            "default: kept on purpose") in lines
    assert bad == 2
    assert lines[-1] == ("options: 4 defined, 4 of reached owners, 3 only "
                         "ever at their default, 2 not allowed")


def test_a_field_assigned_after_construction_is_not_an_option(tmp_path):
    package = tmp_path / "planted"
    package.mkdir()
    (package / "mod.py").write_text(PLANTED)
    opts = census.options(package)
    assert "planted.mod:Config.width" in opts
    assert "planted.mod:Config.level" not in opts


def test_an_allowlist_pattern_that_matches_nothing_fails(tmp_path):
    package = tmp_path / "planted"
    package.mkdir()
    (package / "mod.py").write_text(PLANTED)
    stale = (("planted.mod:gone", "deleted long ago"),)
    out = io.StringIO()
    bad = census.report(census.definitions(package), set(), stale,
                        checked=stale, out=out)
    assert "X allowlist pattern matches no definition: planted.mod:gone" \
        in out.getvalue()
    assert bad == 5 + 1     # every definition unreached, one stale pattern


def test_a_client_that_misses_its_server_fails_the_entry(tmp_path):
    # The background "server" only listens; the client reports a failed
    # poll the way `repro watch` does and still exits 0.
    port = census.free_port()
    serve = ("import socket, time; s = socket.socket(); "
             f"s.bind(('127.0.0.1', {port})); s.listen(); time.sleep(1)")
    miss = f"print('watch: http://127.0.0.1:{port}/ unreachable (refused)')"
    entry = ("pair", [[sys.executable, "-c", serve],
                      [sys.executable, "-c", miss]], True, port)
    dumps = tmp_path / "dumps"
    dumps.mkdir()
    assert census.census([entry], tmp_path / "planted", tmp_path,
                         dumps) == ["pair"]


def test_a_dump_directory_the_benches_did_not_fill_is_refused(tmp_path,
                                                              capsys):
    assert census.main([str(tmp_path)]) == 1
    assert "holds no dump" in capsys.readouterr().out


def test_every_allowlist_entry_states_a_reason():
    assert all(pattern and reason.strip()
               for pattern, reason in census.ALLOWLIST)

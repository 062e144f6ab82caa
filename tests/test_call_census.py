"""The call census reports what its entry points never call.

``scripts/call_census.py`` runs entry points under a profile hook and
lists every function of a package that none of them called. Here the
package is a planted one in a temporary directory, and the entry point
one interpreter that calls one of its functions.
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
def called():
    return Box().open()


def uncalled():
    return 2


def spare_uncalled():
    return 3


class Box:
    def open(self):
        return 1

    def never(self):
        return 4
'''

ALLOW = (("planted.mod:spare_*", "kept on purpose"),)


def run_census(tmp_path: Path) -> tuple:
    package = tmp_path / "src" / "planted"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(PLANTED)
    entry = ("probe", [[sys.executable, "-c",
                        "import planted.mod; planted.mod.called()"]], True,
             None)
    dumps = tmp_path / "dumps"
    dumps.mkdir()
    failed = census.census([entry], package, tmp_path, dumps)
    assert failed == []
    out = io.StringIO()
    bad = census.report(census.definitions(package), census.called(dumps),
                        ALLOW, checked=ALLOW, out=out)
    return bad, out.getvalue().splitlines()


def test_a_planted_uncalled_function_is_reported_and_an_allowed_one_is_not(
        tmp_path):
    bad, lines = run_census(tmp_path)
    assert "X planted.mod:uncalled (2 lines)" in lines
    assert "X planted.mod:Box.never (2 lines)" in lines
    assert "  planted.mod:spare_uncalled (2 lines): kept on purpose" in lines
    assert not any("planted.mod:called" in line or "Box.open" in line
                   for line in lines)
    assert bad == 2
    assert lines[-1] == ("census: 5 definitions, 3 unreached (6 lines), "
                         "2 not allowed")


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

"""Profile hook of the call census (``scripts/call_census.py``).

Put this directory first on ``PYTHONPATH`` and set ``REPRO_CENSUS_OUT``
to a directory: every Python process started that way records each
code object it runs and writes them, as ``[file, first line]`` rows, to
a file of its own there when it exits. Inert when ``REPRO_CENSUS_OUT``
is unset. Loaded with ``pytest -p sitecustomize`` it is also a plugin
that re-arms the hook before each test, since cProfile and
pytest-benchmark replace the profile function.
"""

import os
import sys
import threading

_OUT = os.environ.get("REPRO_CENSUS_OUT")
#: The interpreter's own trees (standard library, installed packages):
#: their code is not the repository's and is not written out.
_SKIP = tuple({sys.prefix, sys.base_prefix, sys.exec_prefix})
_SEEN = set()


def _hook(frame, event, arg):
    if event == "call":
        _SEEN.add(frame.f_code)


def arm():
    sys.setprofile(_hook)
    threading.setprofile(_hook)


def dump():
    import json
    import tempfile
    rows = sorted({(c.co_filename, c.co_firstlineno) for c in list(_SEEN)
                   if not c.co_filename.startswith(_SKIP + ("<",))})
    fd, _path = tempfile.mkstemp(suffix=".json", dir=_OUT)
    with os.fdopen(fd, "w") as f:
        json.dump(rows, f)


def pytest_runtest_setup(item):
    arm()


def pytest_runtest_call(item):
    arm()


if _OUT:
    import atexit
    import multiprocessing.util as _mp_util

    # Pool workers leave through this function and then os._exit, so
    # atexit never runs there.
    _exit_function = _mp_util._exit_function

    def _dump_then_exit(*args, **kwargs):
        dump()
        return _exit_function(*args, **kwargs)

    _mp_util._exit_function = _dump_then_exit
    atexit.register(dump)
    arm()

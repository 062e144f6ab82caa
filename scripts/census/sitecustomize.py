"""Profile hook of the call census (``scripts/call_census.py``).

Put this directory first on ``PYTHONPATH`` and set ``REPRO_CENSUS_OUT``
to a directory: every Python process started that way records each
code object it runs, and which of its options left their defaults, and
writes them to a file of its own there when it exits. Inert when
``REPRO_CENSUS_OUT`` is unset. Loaded with ``pytest -p sitecustomize``
it is also a plugin that re-arms the hook before each test, since
cProfile and pytest-benchmark replace the profile function.

An option is a parameter with a default, or a parameter of a
dataclass's generated ``__init__``, recorded as ``module:qualname.name``
(the dataclass's own qualname for a field). The first call of a code
object looks its function up to read the defaults; later calls compare
only the parameters not yet seen off their default, with ``==``, and a
code object none of whose parameters is left costs one dict lookup.
"""

import os
import sys
import threading

_OUT = os.environ.get("REPRO_CENSUS_OUT")
#: The interpreter's own trees (standard library, installed packages):
#: their code is not the repository's and is not written out.
_SKIP = tuple({sys.prefix, sys.base_prefix, sys.exec_prefix})
#: code object -> ``(option name, parameter, default)`` rows still at
#: their default; ``()`` once none is left or the code has none.
_WATCH = {}
#: Options seen off their default, and the owners (function or
#: dataclass) whose defaults were read.
_OFF = set()
_OWNERS = set()


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        rows = _WATCH.get(code)
        if rows is None:
            try:
                rows = _options(frame, code)
            except Exception:       # never let the census break its host
                rows = ()
            _WATCH[code] = rows
        if rows:
            _inspect(frame, code, rows)


def _inspect(frame, code, rows):
    values = frame.f_locals
    left = []
    for row in rows:
        name, param, default = row
        value = values.get(param, default)
        if value is not default:
            try:
                same = bool(value == default)
            except Exception:       # arrays, or a type that cannot compare
                same = False
            if not same:
                _OFF.add(name)
                continue
        left.append(row)
    if len(left) < len(rows):
        _WATCH[code] = tuple(left)


def _function(frame, code):
    """The function object running ``code`` and the names its options
    are recorded under -> (function, {parameter: option prefix}), or
    (None, None) for a nested function or one not found."""
    if code.co_filename == "<string>" and code.co_name == "__init__":
        # a dataclass's generated __init__: a field belongs to the class
        # that declares it
        self = frame.f_locals.get(code.co_varnames[0])
        mro = type(self).__mro__
        for cls in mro:
            fn = cls.__dict__.get("__init__")
            if getattr(fn, "__code__", None) is code:
                if "__dataclass_fields__" not in cls.__dict__:
                    return None, None
                return fn, {p: next(
                    f"{c.__module__}:{c.__qualname__}." for c in mro
                    if p in c.__dict__.get("__annotations__", ()))
                    for p in cls.__dataclass_fields__}
        return None, None
    parts = code.co_qualname.split(".")
    if "<locals>" in parts or code.co_filename.startswith(_SKIP + ("<",)):
        return None, None
    obj = frame.f_globals.get(parts[0])
    for part in parts[1:]:
        obj = getattr(obj, "__dict__", {}).get(part)
    for fn in (obj, getattr(obj, "__func__", None),
               getattr(obj, "fget", None), getattr(obj, "fset", None)):
        while fn is not None:
            if getattr(fn, "__code__", None) is code:
                prefix = f"{frame.f_globals.get('__name__')}:" \
                         f"{code.co_qualname}."
                return fn, {p: prefix for p in code.co_varnames}
            fn = getattr(fn, "__wrapped__", None)
    return None, None


def _options(frame, code):
    if not (code.co_argcount or code.co_kwonlyargcount):
        return ()
    fn, prefixes = _function(frame, code)
    if fn is None:
        return ()
    positional = fn.__defaults__ or ()
    defaults = dict(zip(code.co_varnames[code.co_argcount - len(positional):
                                         code.co_argcount], positional))
    defaults.update(fn.__kwdefaults__ or {})
    _OWNERS.update(prefixes[p][:-1] for p in defaults)
    return tuple((prefixes[p] + p, p, d) for p, d in defaults.items())


def arm():
    sys.setprofile(_hook)
    threading.setprofile(_hook)


def dump():
    import json
    import tempfile
    rows = sorted({(c.co_filename, c.co_firstlineno) for c in list(_WATCH)
                   if not c.co_filename.startswith(_SKIP + ("<",))})
    fd, _path = tempfile.mkstemp(suffix=".json", dir=_OUT)
    with os.fdopen(fd, "w") as f:
        json.dump({"called": rows, "owners": sorted(_OWNERS),
                   "off": sorted(_OFF)}, f)


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

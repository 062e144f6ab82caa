"""Call census: which ``src/repro`` definitions the entry points reach.

Runs the non-test entry points of the repository under a profile hook
and prints each function defined under ``src/repro`` that none of them
called, then each option (:func:`options`) that only ever took its
default. The entry points are the benches (``benchmarks/``), the
examples, the CLI invocations in :data:`CLI` and the perfbench
workloads. Tests are not entry points: a definition only a test calls
is reported.

The benches run first, as their own step, with the hook on; this
script then runs the rest into the same dump directory and reports on
all of it (CI's ``benches`` job runs these commands):

    mkdir dumps
    PYTHONPATH=scripts/census:src REPRO_CENSUS_OUT=$PWD/dumps \
        python -m pytest -q -p sitecustomize benchmarks --benchmark-disable \
        --ignore=benchmarks/test_perf_simulator.py
    python scripts/call_census.py dumps      # ≈ 4 min on 2 vCPUs

Exit status 1 when a reported definition is not on :data:`ALLOWLIST`,
or a reported option not on :data:`OPTION_ALLOWLIST` (or a pattern of
either matches nothing), when an entry point
fails, or when the dump directory holds no dump to start from; 0
otherwise.

Standard library only (the entry points themselves need what the
benches and perfbench need). How the hook reaches every process:

* ``scripts/census/sitecustomize.py`` on ``PYTHONPATH`` arms
  ``sys.setprofile``/``threading.setprofile`` at interpreter start and
  writes one dump per process at exit. Pool workers leave through
  ``multiprocessing.util._exit_function`` and then ``os._exit``, so
  ``atexit`` never runs there: the dump is hooked into that function.
* cProfile, and pytest-benchmark's ``pedantic``, replace the profile
  function. The same module is loaded as a pytest plugin that re-arms
  the hook before each test, and the benches run with
  ``--benchmark-disable`` (each runs once, same assertions).
* perfbench's children drop ``PYTHONPATH`` and ``REPRO_*``, so a hook
  on ``PYTHONPATH`` never reaches them: the workloads run in a census
  process instead, through perfbench's own child entry (traced pass
  included).
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import fnmatch
import io
import json
import os
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The hook: a ``sitecustomize.py`` that this directory, put first on
#: ``PYTHONPATH``, loads into every Python process an entry point starts.
HOOK_DIR = Path(__file__).resolve().parent / "census"

#: The CLI invocations the census runs, as ``repro`` argv. ``{tmp}`` is
#: a scratch directory, ``{port}`` a free loopback port; a leading ``!``
#: expects a non-zero exit. A coverage list, not a smoke test: each line
#: reaches a definition that no bench, example, perfbench workload or
#: other line reaches (measured per line when it was added), or writes
#: the run directory such a line reads. A flag-gated component that no
#: line reaches reads as unreached, so a new one fails the census until
#: a line here passes its flag.
CLI: tuple = (
    "list",
    "run --baseline ace --trace const:20 --duration 2 --cc copa",
    "run --baseline ace --trace const:10 --duration 3 --discipline codel",
    # the batch engine on the leaky and burst pacers' closed forms
    "grid --baselines ace,webrtc-star,always-burst --traces const:20 "
    "--seeds 3 --duration 3 --engine batch --run-dir {tmp}/batch",
    # a cold pool: workers pickle the send log (a warm cache hides it)
    "grid --baselines ace,cbr --traces const:15 --seeds 1,2 --duration 2 "
    "--jobs 2 --cache --run-dir {tmp}/grid",
    # an A/B pair of series runs, B stalled: the diff finds the window
    "grid --baselines ace --traces const:15 --seeds 3 --duration 3 "
    "--series --run-dir {tmp}/ab-a",
    "grid --baselines ace --traces const:15 --seeds 3 --duration 3 "
    "--series --slo --inject-stall 1:1 --run-dir {tmp}/ab-b",
    "report {tmp}/ab-b --diff {tmp}/ab-a --tolerance 100",
    "grid --arena ace*2+webrtc-star --discipline droptail,confucius "
    "--traces const:20 --seeds 1 --duration 3 --cache",
    "grid --arena ace+webrtc-star --traces const:20 --seeds 1 --duration 3 "
    "--series --run-dir {tmp}/arena-series",
    "plot {tmp}/arena-series --out {tmp}/arena.html",
    "sweep-rtt --baseline ace --rtts 20,40 --trace const:15 --duration 2",
    "trace --baseline ace --trace const:20 --duration 2 --worst --attrib "
    "--profile --out {tmp}/trace-out",
    "trace --baseline ace --trace const:20 --duration 2 "
    "--metric bucket.token_level_bytes",
    "trace --baseline ace --trace const:20 --duration 2 --kind event "
    "--name pacer --since 0.5 --until 1.5",
    "trace --baseline ace --trace const:20 --duration 2 --frame 10",
    "why --baseline ace --trace wifi --duration 4 --seed 1 --frames 2",
    "timeline --baseline ace --trace const:20 --duration 2 "
    "--out {tmp}/timeline.csv",
    "fuzz --cases 3 --seed 1",
    "fuzz --replay 1:0",
    "arena --flows ace+webrtc-star --duration 3 --discipline confucius "
    "--telemetry-out {tmp}/arena-tel",
    "arena --flows ace+always-burst --duration 3 --discipline codel "
    "--telemetry-out {tmp}/arena-codel",
    "arena --flows ace+webrtc-star --duration 3 --discipline pie",
    # a chain of two routers: the hop between them
    "arena --flows ace+webrtc-star --trace const:30,const:16 --duration 3",
    "scenario",
    "scenario arena-late-joiner --duration 10",
    "scenario lossy-link --duration 2 --out {tmp}/scenario.json",
    "scenario campus --duration 2",
    "scenario production --duration 2",
    "live --duration 3 --slo --inject-stall 1:0.5 --check "
    "--telemetry-out {tmp}/live-tel --loss 0.01 --stats-port 0",
    "load --sessions 2 --ramp 0.5 --mix ace,webrtc-star --duration 3 "
    "--run-dir {tmp}/load --series --snapshot-out {tmp}/snap.prom --dash "
    "--stats-port 0",
    "plot {tmp}/load",
    # a fleet SLO that fires
    "load --sessions 2 --duration 4 --slo --slo-p99-ms 100 "
    "--inject-stall 1:2 --run-dir {tmp}/slo-run --dash",
    "load --trace wifi --sessions 1 --duration 2",
    # a bound no fleet meets: the probe trips, bisects an empty bracket
    # and exits 1 on finding no ceiling
    "!load --autoscale --autoscale-start 1 --autoscale-max 2 --duration 1 "
    "--slo-p99-ms 0.001 --autoscale-out {tmp}/ceiling.json",
    # watch polls a fleet, then a lone session, serving stats on {port}
    ("load --sessions 2 --duration 6 --stats-port {port}",
     "watch --stats-port {port} --frames 2 --interval 1"),
    ("live --duration 6 --stats-port {port}",
     "watch --stats-port {port} --frames 2 --interval 1"),
)

#: ``(pattern, reason)``: unreached definitions that may stay. A pattern
#: is matched with :func:`fnmatch.fnmatchcase` against
#: ``module:qualname`` (``repro.net.aqm:QueueDiscipline.enqueue``).
ALLOWLIST: tuple = (
    # -- protocol and abstract-method stubs: the interface, never a body
    ("repro.live.clock:Clock.*", "protocol stub"),
    ("repro.net.aqm:QueueDiscipline.*", "protocol stub"),
    ("repro.sim.engine:SimulationEngine.*", "protocol stub"),
    ("repro.transport.cc.base:CongestionController.on_feedback",
     "abstract method"),
    ("repro.video.codec.rate_control:RateControl.*", "protocol stub"),
    ("repro.transport.pacer.base:Pacer._take", "abstract method"),
    ("repro.transport.pacer.base:Pacer.release_train",
     "protocol default: a pacer with no closed form (none ships one)"),
    # -- code that runs only when something fails
    ("repro.audit.auditor:*._fail*", "runs only on a violation"),
    ("repro.audit.auditor:InvariantViolation.*", "runs only on a violation"),
    ("repro.audit.auditor:Violation.__str__", "runs only on a violation"),
    ("repro.audit.fuzz:shrink*", "runs only on a failing fuzz case"),
    ("*.flight_window", "dumped only on a violation"),
    ("*.flight_dump", "dumped only on a violation"),
    ("repro.obs.recorder:Telemetry.emitted", "read only by the flight dump"),
    ("repro.obs.export:render_record", "renders only the flight dump"),
    ("repro.obs.export:_fmt_field", "renders only the flight dump"),
    ("*.request_stop", "runs only on an interrupt"),
    ("repro.transport.pacer.stall:PacingStall.cancel",
     "runs only on an interrupt (request_stop)"),
    ("repro.sim.events:EventLoop._reject", "runs only on a bad schedule"),
    ("repro.obs.registry:MetricRegistry.names",
     "read only by a failing lookup's message"),
    # -- code that runs only past a bound no short run reaches
    ("repro.obs.timeseries:SeriesRecorder._compact",
     "runs only past MAX_SAMPLES ticks, about 7 minutes of session"),
    # -- kept for perfbench: its tracer imports these classes by name
    ("repro.live.impairment:LoopbackImpairment.*",
     "perfbench's tracer imports the loopback shim by name"),
    ("repro.video.codec.rate_control:CqpRateControl.__init__",
     "perfbench's tracer wraps this class's methods by name"),
    # -- reachable only from the library API (ROADMAP item 22's next
    #    slices: wire each to an entry point or delete it)
    ("repro.net.aqm:ConfuciusDiscipline.is_sparse",
     "the oracle two tests check the lane choice against (ROADMAP item 8)"),
    ("repro.rtc.metrics:SendLog.__eq__",
     "value equality behind SessionMetrics' dataclass ==, which only "
     "tests compare"),
    # -- debugging output
    ("*.__repr__", "read only by a person at a prompt"),
)


#: ``(pattern, reason)``: options that may keep only their default,
#: matched like :data:`ALLOWLIST` against ``module:qualname.name``.
OPTION_ALLOWLIST: tuple = (
    # -- the protocol stack (core/, transport/, net/, video/)
    ("repro.core.ace_n:AceNConfig.empty_ratchet_decay",
     "an ACE-N departure ROADMAP item 7 switches off"),
    ("repro.core.ace_n:AceNConfig.min_halve_interval_s",
     "an ACE-N departure ROADMAP item 7 switches off"),
    ("repro.core.ace_c:AceCConfig.ewma_alpha",
     "the paper's ACE-C EWMA alpha (Eq. 5), one of its few free parameters"),
    ("repro.core.ace_n:AceNConfig.alpha",
     "the paper's ACE-N alpha (§4.1), one of its few free parameters"),
    ("repro.video.source:ContentProfile.max_relative_satd",
     "ROADMAP item 20 fits it per content profile"),
    ("repro.net.aqm:*.capacity_bytes",
     "carries PathConfig.queue_capacity_bytes, which entry points change "
     "only under drop-tail"),
    ("repro.transport.pacer.token_bucket_pacer:TokenBucketPacer.__init__."
     "initial_bucket_bytes", "carries AceNConfig.initial_bucket_bytes"),
    ("repro.core.ace_c:AceCController.__init__.num_levels",
     "FlowStack passes the codec preset's level count"),
    ("repro.net.cross_traffic:CrossTrafficFlow._pump._posted",
     "a default used as a local binding, not a setting"),
    ("repro.net.trace:*.name", "the label of a generated trace"),
    ("repro.net.trace:*.duration", "the length of a generated trace"),
    ("repro.video.*.is_keyframe",
     "the keyframe path: Sender.keyframe_on_pli is off at every entry "
     "point; it goes or stays with the PLI path"),
    ("repro.video.codec.model:CodecModel.natural_bits.reference_quality",
     "CqpRateControl, kept for perfbench's tracer, passes its own"),
    ("repro.video.codec.model:EncoderConfig.keyframe_cost",
     "the keyframe path (see is_keyframe)"),
    # one value at every entry point, but tests set it: a constant and
    # the rewritten tests are ROADMAP item 22's next slice
    ("repro.core.ace_n:AceNConfig.max_bucket_bytes", "tests set it"),
    ("repro.core.ace_n:AceNConfig.min_bucket_bytes", "tests set it"),
    ("repro.core.ace_n:AceNConfig.rate_factor_bucket_scale", "tests set it"),
    ("repro.core.ace_n:AceNController.__init__.queue_estimator",
     "tests set it"),
    ("repro.net.cross_traffic:CrossTrafficFlow.__init__.packet_size",
     "tests set it"),
    ("repro.net.trace:make_step_trace.recover_at", "tests set it"),
    ("repro.transport.cc.base:CongestionController.__init__.min_bwe_bps",
     "tests set it"),
    ("repro.transport.cc.copa:CopaController.__init__.*", "tests set it"),
    ("repro.transport.feedback:ReportBatch.__init__.frame_ids",
     "tests set it"),
    ("repro.transport.rtp:Packetizer.__init__.payload_bytes", "tests set it"),
    ("repro.video.source:MixedSource.__init__.*", "tests set it"),
    # -- outside the stack: not yet measured down (ROADMAP item 22)
    ("repro.analysis.*", "outside the protocol stack, not yet measured down"),
    ("repro.arena.*", "outside the protocol stack, not yet measured down"),
    ("repro.audit.*", "outside the protocol stack, not yet measured down"),
    ("repro.bench.*", "outside the protocol stack, not yet measured down"),
    ("repro.cli:*", "outside the protocol stack, not yet measured down"),
    ("repro.live.*", "outside the protocol stack, not yet measured down"),
    ("repro.obs.*", "outside the protocol stack, not yet measured down"),
    ("repro.rtc.*", "outside the protocol stack, not yet measured down"),
    ("repro.scenarios:*", "outside the protocol stack, not yet measured down"),
    ("repro.sim.*", "outside the protocol stack, not yet measured down"),
)


# ----------------------------------------------------------------------
# definitions and dumps


def definitions(package: Path) -> dict:
    """``(file, first line) -> (module:qualname, lines)`` for every
    function defined in ``package`` (the first line is the first
    decorator's, as in ``co_firstlineno``)."""
    out = {}
    for path in sorted(package.rglob("*.py")):
        module = ".".join(
            path.relative_to(package.parent).with_suffix("").parts)
        module = module.removesuffix(".__init__")

        def visit(node, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    qual = prefix + child.name
                    out[(str(path), first)] = (
                        f"{module}:{qual}", child.end_lineno - first + 1)
                    visit(child, qual + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), "")
    return out


def _name(node: ast.expr) -> Optional[str]:
    """The last name of ``f`` or ``a.b.f``, else None."""
    return getattr(node, "id", getattr(node, "attr", None))


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Whether ``@dataclass`` builds an ``__init__`` for ``node``."""
    for dec in node.decorator_list:
        call = dec if isinstance(dec, ast.Call) else None
        if _name(call.func if call else dec) == "dataclass":
            return not any(k.arg == "init" and isinstance(k.value, ast.Constant)
                           and k.value.value is False
                           for k in (call.keywords if call else ()))
    return False


def _field_default(value: ast.expr) -> bool:
    """Whether a field's right-hand side gives it a default and a place
    in ``__init__`` (``field()`` without one, or ``init=False``, not)."""
    if not (isinstance(value, ast.Call) and _name(value.func) == "field"):
        return True
    kws = {k.arg: k.value for k in value.keywords}
    init = kws.get("init")
    return (("default" in kws or "default_factory" in kws)
            and not (isinstance(init, ast.Constant) and init.value is False))


def options(package: Path) -> dict:
    """``module:qualname.name -> owner`` for every option defined in
    ``package``: a parameter with a default of a function not nested in
    another, and a defaulted field of a dataclass that no code in the
    package assigns after construction (an attribute store, or a
    ``setattr`` naming it). The owner is the function's or the class's
    ``module:qualname``, as the hook records it."""
    trees, assigned = {}, set()
    for path in sorted(package.rglob("*.py")):
        module = ".".join(
            path.relative_to(package.parent).with_suffix("").parts)
        tree = trees[module.removesuffix(".__init__")] = ast.parse(
            path.read_text(), str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)):
                assigned.add(node.attr)
            elif (isinstance(node, ast.Call) and len(node.args) > 1
                  and _name(node.func) in ("setattr", "__setattr__")
                  and isinstance(node.args[1], ast.Constant)):
                assigned.add(node.args[1].value)
    out = {}

    def visit(node, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = f"{module}:{prefix}{child.name}"
                args = child.args
                positional = args.posonlyargs + args.args
                named = positional[len(positional) - len(args.defaults):]
                named += [a for a, d in zip(args.kwonlyargs,
                                            args.kw_defaults) if d]
                out.update((f"{owner}.{a.arg}", owner) for a in named)
            elif isinstance(child, ast.ClassDef):
                owner = f"{module}:{prefix}{child.name}"
                if _is_dataclass(child):
                    out.update(
                        (f"{owner}.{f.target.id}", owner)
                        for f in child.body
                        if isinstance(f, ast.AnnAssign) and f.value
                        and isinstance(f.target, ast.Name)
                        and "ClassVar" not in ast.unparse(f.annotation)
                        and f.target.id not in assigned
                        and _field_default(f.value))
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for module, tree in trees.items():
        visit(tree, module, "")
    return out


def read_dumps(dump_dir: Path) -> tuple:
    """What every process recorded -> ``(called, owners, off)``: the
    ``(file, first line)`` of each code object run, the owners whose
    defaults the hook read, and the options seen off their default."""
    seen, owners, off = set(), set(), set()
    for dump in dump_dir.glob("*.json"):
        rows = json.loads(dump.read_text())
        seen.update((os.path.realpath(f), line) for f, line in rows["called"])
        owners.update(rows["owners"])
        off.update(rows["off"])
    return seen, owners, off


def allowed(name: str, allowlist: Iterable) -> Optional[str]:
    """The reason ``name`` may stay unreached, or None."""
    for pattern, reason in allowlist:
        if fnmatch.fnmatchcase(name, pattern):
            return reason
    return None


def perfbench_allowlist() -> tuple:
    """Every callable perfbench's tracer wraps by name: its traced pass
    raises a ``KeyError`` if one of them is missing, called or not."""
    sys.path.insert(0, str(ROOT))
    from perfbench.trace import TARGETS
    return tuple((f"{module}:{cls + '.' if cls else ''}{name}",
                  "wrapped by name by perfbench's tracer")
                 for rows in TARGETS.values()
                 for module, cls, names in rows for name in names)


def perfbench_keywords() -> tuple:
    """Every keyword perfbench passes, as ``(pattern, reason)`` against
    the option it names: it must stay a parameter whatever its value."""
    calls = set()
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                calls.update((_name(node.func), k.arg)
                             for k in node.keywords if k.arg)
    return tuple((f"*[:.]{callee}.{kw}", "passed by perfbench as a keyword")
                 for callee, kw in sorted(calls))


def option_report(opts: dict, owners: set, off: set, allowlist: Iterable,
                  checked: Iterable = (), out=sys.stdout) -> int:
    """Print each option of a reached owner that only ever took its
    default; the number not allowlisted, plus one for each pattern of
    ``checked`` that matches no option."""
    allowlist = tuple(allowlist)
    live = [name for name, owner in opts.items() if owner in owners]
    fixed = sorted(name for name in live if name not in off)
    bad = 0
    for name in fixed:
        reason = allowed(name, allowlist)
        bad += reason is None
        print(f"{'  ' if reason else 'X '}option {name} only ever took its "
              f"default{': ' + reason if reason else ''}", file=out)
    for pattern, _reason in checked:
        if not any(fnmatch.fnmatchcase(n, pattern) for n in opts):
            print(f"X option allowlist pattern matches no option: {pattern}",
                  file=out)
            bad += 1
    print(f"options: {len(opts)} defined, {len(live)} of reached owners, "
          f"{len(fixed)} only ever at their default, {bad} not allowed",
          file=out)
    return bad


def report(defs: dict, seen: set, allowlist: Iterable,
           checked: Iterable = (), out=sys.stdout) -> int:
    """Print the unreached definitions; the number not allowlisted, plus
    one for each pattern of ``checked`` that matches no definition."""
    allowlist = tuple(allowlist)
    seen = {(os.path.realpath(f), line) for f, line in seen}
    unreached = sorted(
        (name, lines) for key, (name, lines) in defs.items()
        if (os.path.realpath(key[0]), key[1]) not in seen)
    bad = 0
    for name, lines in unreached:
        reason = allowed(name, allowlist)
        bad += reason is None
        print(f"{'  ' if reason else 'X '}{name} ({lines} lines)"
              f"{': ' + reason if reason else ''}", file=out)
    names = [name for name, _lines in defs.values()]
    for pattern, _reason in checked:
        if not any(fnmatch.fnmatchcase(n, pattern) for n in names):
            print(f"X allowlist pattern matches no definition: {pattern}",
                  file=out)
            bad += 1
    print(f"census: {len(defs)} definitions, {len(unreached)} unreached "
          f"({sum(lines for _n, lines in unreached)} lines), {bad} not "
          "allowed", file=out)
    return bad


# ----------------------------------------------------------------------
# entry points


def hooked_env(dump_dir: Path, package: Path, tmp: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=os.pathsep.join([str(HOOK_DIR),
                                           str(package.parent)]),
               REPRO_CENSUS_OUT=str(dump_dir),
               REPRO_CACHE_DIR=str(tmp / "cache"))
    return env


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def entry_points(tmp: Path) -> list:
    """``(label, [argv, ...], expect_ok, port)`` for the examples, the
    :data:`CLI` list and the perfbench workloads. The argvs of one entry
    run side by side: the first serves stats on ``port`` in the
    background (``port`` is None for an entry of one argv)."""
    py = sys.executable
    out = [(f"examples/{p.name}", [[py, str(p)]], True, None)
           for p in sorted((ROOT / "examples").glob("*.py"))]
    for entry in CLI:
        cmds = (entry,) if isinstance(entry, str) else entry
        port = free_port() if len(cmds) > 1 else None
        argvs = [[py, "-m", "repro", *c.lstrip("!").format(
            tmp=tmp, port=port).split()] for c in cmds]
        out.append(("repro " + " & ".join(c.lstrip("!") for c in cmds),
                    argvs, not cmds[0].startswith("!"), port))
    here = (f"import runpy, sys; sys.exit(runpy.run_path("
            f"{str(Path(__file__).resolve())!r})['perfbench_here']("
            f"{str(tmp / 'perfbench')!r}))")
    out.append(("perfbench workloads", [[py, "-c", here]], True, None))
    return out


#: How long a background server may take to accept its first
#: connection: the hook slows an interpreter's start-up about threefold.
SERVER_START_S = 120.0


def wait_for_port(port: int) -> bool:
    """Whether ``port`` on loopback accepts a connection within
    :data:`SERVER_START_S`."""
    end = time.monotonic() + SERVER_START_S
    while time.monotonic() < end:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
            return True
        except OSError:
            time.sleep(0.2)
    return False


def run_entry(argvs: list, env: dict, port: Optional[int]) -> tuple:
    """Run ``argvs`` (all but the last in the background, serving on
    ``port``) -> (the worst exit status, the last one's output)."""
    background = [subprocess.Popen(a, cwd=ROOT, env=env,
                                   stdout=subprocess.DEVNULL,
                                   stderr=subprocess.DEVNULL)
                  for a in argvs[:-1]]
    if port is not None and not wait_for_port(port):
        for p in background:
            p.kill()
            p.wait()
        return 1, f"nothing served on port {port}"
    done = subprocess.run(argvs[-1], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    codes = [done.returncode] + [p.wait(timeout=120) for p in background]
    return max(codes, key=abs), done.stdout


def perfbench_here(out_dir: str) -> int:
    """Every perfbench workload, traced pass included, in this process."""
    sys.path.insert(0, str(ROOT))
    from perfbench.child import main as child_main
    from perfbench.harness import PREFIX
    from perfbench.workloads import QUICK_SCALE, WORKLOADS
    for name in WORKLOADS:
        args = {"workload": name, "seed": 3, "budget_s": 2.0, "trace": 1,
                "scale": QUICK_SCALE, "expected": None, "out": out_dir,
                "index": 0, "children": 1, "t0": time.time()}
        with contextlib.redirect_stdout(io.StringIO()) as text:
            child_main(["child", json.dumps(args)])
        line = [line for line in text.getvalue().splitlines()
                if line.startswith(PREFIX)][-1]
        result = json.loads(line[len(PREFIX):])
        failed = sum(r["failed"] for r in result["reps"])
        if failed:
            print(f"{name}: {failed} failed repetitions", file=sys.stderr)
            return 1
    return 0


def census(entries: list, package: Path, tmp: Path,
           dump_dir: Path) -> list:
    """Run ``entries`` under the hook, with ``package``'s parent on the
    path and one dump per process into ``dump_dir`` -> failed labels.
    An entry with a background server fails if its client printed an
    ``unreachable`` poll: a missed server would otherwise read as
    unreached definitions."""
    env = hooked_env(dump_dir, package, tmp)
    failed = []
    for label, argvs, expect_ok, port in entries:
        code, output = run_entry(argvs, env, port)
        ok = ((code == 0) == expect_ok
              and not (port and " unreachable (" in output))
        print(f"{'ok  ' if ok else 'FAIL'} {label} (exit {code})",
              flush=True)
        if not ok:
            print(output[-2000:])
            failed.append(label)
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dumps", type=Path,
                        help="dump directory the benches already wrote "
                             "into under the hook")
    args = parser.parse_args(argv)
    if not any(args.dumps.glob("*.json")):
        print(f"census: {args.dumps} holds no dump; run the benches under "
              "the hook first (see this script's docstring)")
        return 1
    with tempfile.TemporaryDirectory(prefix="census-") as name:
        tmp = Path(name)
        failed = census(entry_points(tmp), SRC / "repro", tmp,
                        args.dumps.resolve())
    seen, owners, off = read_dumps(args.dumps)
    bad = report(definitions(SRC / "repro"), seen,
                 ALLOWLIST + perfbench_allowlist(), checked=ALLOWLIST)
    bad += option_report(options(SRC / "repro"), owners, off,
                         OPTION_ALLOWLIST + perfbench_keywords(),
                         checked=OPTION_ALLOWLIST)
    if failed:
        print(f"census: {len(failed)} entry point(s) failed: "
              + "; ".join(failed))
    return 1 if bad or failed else 0


if __name__ == "__main__":
    sys.exit(main())

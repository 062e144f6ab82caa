"""The run protocol: fresh children, one at a time, medians over reps.

One *run* of a workload (what the driver's command line asks for) is
three child processes started one after another — never two at once —
each given a third of ``--seconds``. A child sets the workload up from
scratch, so a run sets up three times and ``setup_s`` is their median;
then it repeats the workload, every repetition bracketed by the
calibration kernel. Each end-to-end metric is the **median over all
repetitions of the run**, computed per repetition in calibrated seconds
(:mod:`perfbench.calibrate`), which is what makes two runs of the same
code agree on a host whose speed wanders.

Correctness: a run fails every operation if the same inputs ever hash
differently (the warm-up session every child runs, or a variant run
twice), and the operations of any repetition that misses its pin in
``expected.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from perfbench import calibrate
from perfbench.harness import PREFIX, ROOT
from perfbench.spec import END_TO_END, per_layer
from perfbench.workloads import QUICK_SCALE

CHILD = ROOT / "perfbench" / "child.py"

#: children (= set-ups) per untraced run.
CHILDREN = 3

#: a child that has printed nothing by then is killed (the driver allows
#: a run 180 s in all).
CHILD_TIMEOUT_S = 150


@dataclass
class RunResult:
    """One run of one workload, as the driver's last line wants it."""

    workload: str
    seed: int
    correct: bool
    attempted: int
    failed: int
    #: name -> value, units from :mod:`perfbench.spec`.
    metrics: dict
    notes: list = field(default_factory=list)
    #: everything the children reported (kept for e2e.json/layers.json).
    detail: dict = field(default_factory=dict)

    def last_line(self, traced: bool) -> str:
        units = per_layer() if traced else END_TO_END
        return json.dumps({
            "correct": self.correct, "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": self.metrics[name],
                               "unit": units[name][0]} for name in units}})


def spawn_child(workload: str, seed: int, budget_s: float, trace: bool,
                scale: float, expected: Optional[str] = None,
                out: Optional[str] = None, index: int = 0,
                children: int = 1) -> dict:
    """Start child ``index`` of ``children``, wait, return its output."""
    args = {"workload": workload, "seed": seed, "budget_s": budget_s,
            "trace": int(trace), "scale": scale, "expected": expected,
            "out": out, "index": index, "children": children,
            "t0": time.time()}
    # A fixed hash seed keeps dict/set order — and so the work done —
    # the same in every child; the cache and audit switches must not
    # leak in from the caller's shell.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    done = subprocess.run([sys.executable, str(CHILD), json.dumps(args)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env, cwd=str(ROOT),
                          timeout=CHILD_TIMEOUT_S)
    lines = [line for line in done.stdout.splitlines()
             if line.startswith(PREFIX)]
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"child for {workload} exited {done.returncode}:\n"
            + done.stderr[-2000:])
    return json.loads(lines[-1][len(PREFIX):])


def run_workload(name: str, seed: int, seconds: float, trace: bool = False,
                 quick: bool = False, expected: Optional[str] = None,
                 out: Optional[str] = None) -> RunResult:
    """One run: the untraced protocol, or the traced pass."""
    scale = QUICK_SCALE if quick else 1.0
    count = 1 if quick else CHILDREN
    if trace:
        # Same budget as an untraced child, so live sessions are as long
        # in both passes.
        child = spawn_child(name, seed, seconds / count, True, scale,
                            expected, out)
        return _traced_result(name, seed, child)
    children = [spawn_child(name, seed, seconds / count, False, scale,
                            expected, out, index, count)
                for index in range(count)]
    return _untraced_result(name, seed, children)


def _untraced_result(name: str, seed: int, children: list) -> RunResult:
    reps = [rep for child in children for rep in child["reps"]]
    setups = [calibrate.calibrated(
        child["setup_s"],
        statistics.median(r["kernel_s"] for r in child["reps"]))
        for child in children]
    metrics = {
        "setup_s": statistics.median(setups),
        "us_per_packet": statistics.median(
            1e6 * r["cal_cpu_s"] / max(r["packets"], 1) for r in reps),
        "peak_rss_mb": statistics.median(
            child["peak_rss_mb"] for child in children),
    }
    attempted, failed, notes = _verdict(reps, children)
    return RunResult(name, seed, failed == 0, attempted, failed, metrics,
                     notes, {"children": children})


def _traced_result(name: str, seed: int, child: dict) -> RunResult:
    from perfbench.traced import layer_metrics
    reps = child["reps"] + [child["traced"]]
    attempted, failed, notes = _verdict(reps, [child])
    notes += [n for n in child["notes"] if n not in notes]
    if notes and not failed:
        failed = attempted
    return RunResult(name, seed, failed == 0, attempted, failed,
                     layer_metrics(child), notes, {"child": child})


def _verdict(reps: list, children: list) -> tuple:
    """(attempted, failed, notes), with the determinism check applied:
    every child's warm-up session, and every variant run more than once,
    must hash the same each time."""
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    notes = [note for r in reps for note in r["notes"]]
    prints: dict = {"warm-up": {c["warm_fingerprint"] for c in children}}
    for r in reps:
        if r["fingerprint"] is not None:
            prints.setdefault(f"variant {r['variant']}", set()).add(
                r["fingerprint"])
    unstable = sorted(k for k, seen in prints.items() if len(seen) > 1)
    if unstable:
        notes.append("not deterministic: different fingerprints for the "
                     "same inputs (" + ", ".join(unstable) + ")")
        failed = attempted
    return attempted, failed, notes

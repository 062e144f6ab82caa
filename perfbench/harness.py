"""What the parent, the child and the traced pass share."""

from __future__ import annotations

import gc
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: marks the one line of a child's output that the parent parses.
PREFIX = "PERFBENCH_CHILD "


def bootstrap() -> None:
    """Put this checkout's ``src`` first on ``sys.path``, or exit.

    Only this checkout's sources count: an installed ``repro`` elsewhere
    must never be what gets measured, and a directory without the
    program has nothing to measure.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {src}/repro "
                         "is missing")
    if str(src) in sys.path:
        sys.path.remove(str(src))
    sys.path.insert(0, str(src))


def cpu_seconds() -> float:
    """CPU seconds of this process and the children it has reaped."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0      # Linux reports KiB


def timed_rep(workload, variants: list, index: int, kernel_before: float,
              pins, run=None) -> tuple:
    """One repetition between two kernel runs -> (record, kernel after).

    Runs variant ``index`` (modulo the number of variants). Only ``run``
    is timed; hashing the outputs and the checks are not. A workload
    with ``phases`` gets a ``pause`` callable to call between them: the
    kernel runs there too, so each phase is calibrated by the kernel
    runs right around it and not by two that are seconds apart.
    """
    from perfbench import calibrate
    from perfbench.checks import check_rep
    index %= len(variants)
    inputs = variants[index]
    pinned = pins[index] if pins is not None else None
    segments = []
    mark = {"kernel": kernel_before}

    def close_segment() -> None:
        cpu_s = cpu_seconds() - mark["cpu"]
        wall_s = time.perf_counter() - mark["wall"]
        kernel = calibrate.measure()
        segments.append({"cpu_s": cpu_s, "wall_s": wall_s,
                         "kernel_s": (mark["kernel"] + kernel) / 2.0})
        mark["kernel"] = kernel

    def open_segment() -> None:
        mark["wall"], mark["cpu"] = time.perf_counter(), cpu_seconds()

    def pause() -> None:
        close_segment()
        open_segment()

    gc.collect()
    run = run or workload.run
    open_segment()
    raw = run(inputs, pause) if workload.phases else run(inputs)
    close_segment()
    rep = workload.digest(raw, inputs)
    del raw
    notes = check_rep(workload, rep, pinned)
    record = {
        "variant": index,
        "cpu_s": sum(seg["cpu_s"] for seg in segments),
        "wall_s": sum(seg["wall_s"] for seg in segments),
        "cal_cpu_s": sum(calibrate.calibrated(seg["cpu_s"], seg["kernel_s"])
                         for seg in segments),
        "kernel_s": sum(seg["kernel_s"] for seg in segments) / len(segments),
        "segments": segments,
        "packets": rep.packets, "frames": rep.frames, "events": rep.events,
        "sim_seconds": rep.sim_seconds, "attempted": rep.attempted,
        "failed": rep.attempted if notes else rep.failed,
        "fingerprint": rep.fingerprint, "stats": rep.stats,
        "info": rep.info, "notes": notes + rep.info.get("notes", []),
        "pinned": "checked" if pinned is not None else "unpinned",
    }
    return record, mark["kernel"]

"""Fleet observability for experiment grids: manifests, heartbeats, reports.

A single session has spans and metrics (:mod:`repro.obs.recorder`); a
*sweep* of hundreds of cells needs run-level observability — what grid
ran, how far along it is, which workers are dragging, and how the
results compare to the last run. This module gives a grid run a **run
directory** with three artifacts:

* ``manifest.json`` — the full grid spec (baselines, traces with
  content fingerprints, seeds, categories), worker count, cache
  configuration, and the source hash
  (:func:`~repro.analysis.cache.code_version`) so a run directory is
  self-describing and reproducible.
* ``cells.jsonl`` — a streaming log: one record per completed cell
  (task key, worker pid, wall seconds, cache hit or fresh run) plus
  periodic heartbeat records carrying per-worker completed/total, an
  ETA, running cache hit/miss counters, and flagged stragglers.
* ``results.json`` / ``summary.json`` — per-cell
  :class:`~repro.analysis.results.RunResult` records and the final
  rollup (wall time, per-worker stats, cache counters, stragglers).

``repro report <run-dir>`` turns a run directory into aggregate tables
(reusing :func:`repro.analysis.aggregate.aggregate` /
:func:`~repro.analysis.aggregate.paired_compare`) and diffs two run
directories for regressions.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.analysis.aggregate import (METRICS, aggregate, paired_compare,
                                      render_aggregate)
from repro.analysis.results import RunResult, load_results, save_results
from repro.obs.atomicio import atomic_write_text

if TYPE_CHECKING:
    from repro.bench.parallel import GridTask

#: metrics where a *larger* value is the better one (diff direction).
HIGHER_IS_BETTER = {"mean_vmaf", "received_fps"}

#: default relative worsening that counts as a regression in diffs.
DEFAULT_DIFF_TOLERANCE = 0.05

#: a completed cell this many times slower than the median is a straggler.
STRAGGLER_FACTOR = 3.0

#: cells completed between two heartbeat records of a grid run.
HEARTBEAT_EVERY = 5


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------
def build_manifest(tasks: Sequence["GridTask"], *, jobs: int,
                   cache_enabled: bool = False,
                   cache_dir: Optional[str] = None,
                   extra: Optional[dict] = None) -> dict:
    """Self-describing spec of a grid run (JSON-safe)."""
    from repro.analysis.cache import code_version, trace_fingerprint

    traces: dict[str, str] = {}
    baselines: list[str] = []
    seeds: list[int] = []
    categories: list[str] = []
    durations: list[float] = []
    for task in tasks:
        if task.trace.name not in traces:
            traces[task.trace.name] = trace_fingerprint(task.trace)
        cfg = task.config
        for value, pool in ((task.baseline, baselines), (cfg.seed, seeds),
                            (task.category, categories),
                            (cfg.duration, durations)):
            if value not in pool:
                pool.append(value)
    return {
        "kind": "repro-grid-run",
        "created_unix": time.time(),
        "cells": len(tasks),
        "baselines": baselines,
        "traces": traces,
        "seeds": seeds,
        "categories": categories,
        "durations": durations,
        "jobs": jobs,
        "cache": {"enabled": cache_enabled, "dir": cache_dir},
        "code_version": code_version(),
        "keys": [list(task.key()) for task in tasks],
        **(extra or {}),
    }


class RunLog:
    """What every run directory contains, written one way.

    ``<run_dir>/<log_name>`` is a streaming JSONL log — one record per
    event, ``kind`` discriminates, truncated at start (one run, one
    log) — and ``summary.json`` is written atomically at the end.
    ``echo`` gets the interactive lines (``print`` in the CLI);
    ``run_dir=None`` keeps everything in memory (echo only). The grid's
    :class:`FleetObserver` and the live supervisor's
    :class:`LiveFleetLog` differ in what a unit of progress is — a
    completed cell, a wall-clock heartbeat — not in these conventions.
    """

    #: the streaming log's file name under ``run_dir``.
    log_name: str

    def __init__(self, run_dir: Optional[str | Path],
                 echo: Optional[Callable[[str], None]] = None) -> None:
        self.echo = echo
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self._started = time.monotonic()
        self._log_path: Optional[Path] = None
        if self.run_dir is not None:
            self.run_dir.mkdir(parents=True, exist_ok=True)
            self._log_path = self.run_dir / self.log_name
            self._log_path.write_text("")

    @property
    def elapsed_s(self) -> float:
        return time.monotonic() - self._started

    def append(self, record: dict) -> None:
        if self._log_path is not None:
            with self._log_path.open("a") as fh:
                fh.write(json.dumps(record, separators=(",", ":"),
                                    sort_keys=True) + "\n")

    def say(self, line: str) -> None:
        if self.echo is not None:
            self.echo(line)

    def write_summary(self, summary: dict) -> dict:
        if self.run_dir is not None:
            atomic_write_text(self.run_dir / "summary.json",
                              json.dumps(summary, indent=2, sort_keys=True)
                              + "\n")
        return summary


class FleetObserver(RunLog):
    """Streams grid progress into a run directory.

    The :class:`~repro.bench.parallel.ParallelRunner` calls
    :meth:`cell_done` as cells finish (in completion order, not task
    order); the observer appends one JSONL record per cell, emits a
    heartbeat record every :data:`HEARTBEAT_EVERY` completions, tracks
    per-worker (pid) statistics, and flags stragglers.
    """

    log_name = "cells.jsonl"

    def __init__(self, run_dir: str | Path, total: int, *, jobs: int = 1,
                 echo: Optional[Callable[[str], None]] = None) -> None:
        super().__init__(run_dir, echo)
        self.total = total
        self.jobs = max(1, jobs)
        self.done = 0
        self.cache_hits = 0
        self.cache_misses = 0
        #: pid -> {"cells": n, "wall_s": total}
        self.workers: dict[int, dict] = {}
        self.stragglers: list[dict] = []
        #: engine that actually ran -> fresh cells; fallback reason ->
        #: cells that asked for the batch engine and did not get it.
        self.engines: dict[str, int] = {}
        self.fallbacks: dict[str, int] = {}
        self._worker_walls: list[float] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def write_manifest(self, manifest: dict) -> Path:
        return atomic_write_text(
            self.run_dir / "manifest.json",
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    def cell_done(self, index: int, key: tuple, *, source: str,
                  wall_s: float = 0.0, pid: Optional[int] = None,
                  engine: Optional[str] = None,
                  fallback_reason: Optional[str] = None) -> None:
        """One grid cell finished. ``source``: ``cache`` (a hit),
        ``worker``/``inline`` (a miss, run in a pool worker or in the
        parent) or ``bypass`` (run without asking a cache: there is
        none, or the cell is instrumented) — neither a hit nor a miss.

        ``engine`` is the engine that actually ran the cell (``None``
        when unknown: cache hits, arena cells) and ``fallback_reason``
        why a requested batch run used the reference loop instead.
        """
        self.done += 1
        if engine is not None:
            self.engines[engine] = self.engines.get(engine, 0) + 1
        if fallback_reason is not None:
            self.fallbacks[fallback_reason] = (
                self.fallbacks.get(fallback_reason, 0) + 1)
        if source == "cache":
            self.cache_hits += 1
        else:
            if source != "bypass":
                self.cache_misses += 1
            self._worker_walls.append(wall_s)
            wid = pid if pid is not None else os.getpid()
            stats = self.workers.setdefault(wid, {"cells": 0, "wall_s": 0.0})
            stats["cells"] += 1
            stats["wall_s"] += wall_s
        record = {"kind": "cell", "index": index, "key": list(key),
                  "source": source, "wall_s": round(wall_s, 6), "pid": pid,
                  "engine": engine, "fallback_reason": fallback_reason,
                  "done": self.done, "total": self.total,
                  "elapsed_s": round(self.elapsed_s, 6)}
        straggler = self._check_straggler(index, key, source, wall_s)
        if straggler:
            record["straggler"] = True
        self.append(record)
        if self.done % HEARTBEAT_EVERY == 0 or self.done == self.total:
            self.heartbeat()

    def _check_straggler(self, index: int, key: tuple, source: str,
                         wall_s: float) -> bool:
        """Flag cells far slower than the median completed cell."""
        if source == "cache" or len(self._worker_walls) < 4:
            return False
        median = statistics.median(self._worker_walls)
        if median <= 0 or wall_s <= STRAGGLER_FACTOR * median:
            return False
        self.stragglers.append({"index": index, "key": list(key),
                                "wall_s": round(wall_s, 6),
                                "median_s": round(median, 6)})
        return True

    # ------------------------------------------------------------------
    # heartbeats
    # ------------------------------------------------------------------
    def eta_s(self) -> Optional[float]:
        """Projected seconds to completion from mean fresh-cell wall time."""
        remaining = self.total - self.done
        if remaining <= 0:
            return 0.0
        if not self._worker_walls:
            return None
        mean = sum(self._worker_walls) / len(self._worker_walls)
        return remaining * mean / self.jobs

    def heartbeat(self) -> dict:
        """Emit (and return) one heartbeat record."""
        eta = self.eta_s()
        record = {
            "kind": "heartbeat", "done": self.done, "total": self.total,
            "elapsed_s": round(self.elapsed_s, 6),
            "eta_s": None if eta is None else round(eta, 6),
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
            "workers": {str(pid): dict(stats)
                        for pid, stats in sorted(self.workers.items())},
            "stragglers": len(self.stragglers),
        }
        self.append(record)
        eta_txt = "?" if eta is None else f"{eta:.1f}s"
        self.say(f"grid: {self.done}/{self.total} cells "
                 f"({self.cache_hits} cached) in {self.elapsed_s:.1f}s, "
                 f"eta {eta_txt}, {len(self.workers)} worker(s)"
                 + (f", {len(self.stragglers)} straggler(s)"
                    if self.stragglers else ""))
        return record

    # ------------------------------------------------------------------
    # finalization
    # ------------------------------------------------------------------
    def finalize(self, cache_counters: Optional[dict] = None,
                 extra: Optional[dict] = None) -> dict:
        """Write ``summary.json``; returns the summary dict.

        ``extra`` merges additional run-level blocks into the summary —
        the arena grid uses it to attach per-cell fairness results.
        """
        summary = {
            "cells": self.total,
            "completed": self.done,
            "wall_s": round(self.elapsed_s, 6),
            "jobs": self.jobs,
            "cache": dict(cache_counters
                          or {"hits": self.cache_hits,
                              "misses": self.cache_misses, "stores": None}),
            "workers": {str(pid): dict(stats)
                        for pid, stats in sorted(self.workers.items())},
            "stragglers": self.stragglers,
            "engines": dict(sorted(self.engines.items())),
            "fallbacks": dict(sorted(self.fallbacks.items())),
        }
        if extra:
            summary.update(extra)
        return self.write_summary(summary)

    def write_results(self, results: Sequence[RunResult]) -> Path:
        path = self.run_dir / "results.json"
        save_results(results, path)
        return path


class LiveFleetLog(RunLog):
    """Streaming observability for a *live* multi-session run.

    The grid :class:`FleetObserver` streams one record per completed
    cell; a live supervisor's unit of progress is the heartbeat —
    per-session liveness and pacing-latency percentiles sampled on a
    wall-clock interval, streamed into ``live.jsonl``.
    """

    log_name = "live.jsonl"

    def __init__(self, run_dir: Optional[str | Path] = None, *,
                 echo: Optional[Callable[[str], None]] = None) -> None:
        super().__init__(run_dir, echo)
        self.heartbeats = 0
        #: wall-clock (epoch) start stamp, for the summary — elapsed_s
        #: stays on the monotonic clock.
        self.started_unix = time.time()

    def heartbeat(self, record: dict,
                  line: Optional[str] = None) -> dict:
        """Append one heartbeat record; echo ``line`` when interactive."""
        self.heartbeats += 1
        record = {"kind": "heartbeat",
                  "elapsed_s": round(self.elapsed_s, 6), **record}
        self.append(record)
        if line is not None:
            self.say(line)
        return record

    def finalize(self, summary: dict) -> dict:
        """Write ``summary.json`` (when a run dir exists); returns it."""
        return self.write_summary({
            "kind": "live-run",
            "wall_s": round(self.elapsed_s, 6),
            "started_unix": round(self.started_unix, 3),
            "ended_unix": round(self.started_unix + self.elapsed_s, 3),
            "heartbeats": self.heartbeats, **summary})


# ----------------------------------------------------------------------
# loading and reporting run directories
# ----------------------------------------------------------------------
def load_run(run_dir: str | Path) -> tuple[dict, list[RunResult], dict]:
    """Load ``(manifest, results, summary)`` from a run directory."""
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    results_path = run_dir / "results.json"
    if not manifest_path.is_file() or not results_path.is_file():
        raise FileNotFoundError(
            f"{run_dir} is not a grid run directory "
            "(missing manifest.json/results.json — produce one with "
            "`repro grid --run-dir` or run_grid(run_dir=...))")
    manifest = json.loads(manifest_path.read_text())
    results = load_results(results_path)
    summary_path = run_dir / "summary.json"
    summary = (json.loads(summary_path.read_text())
               if summary_path.is_file() else {})
    return manifest, results, summary


def report_run(run_dir: str | Path) -> str:
    """Aggregate tables + paired comparisons for one run directory."""
    manifest, results, summary = load_run(run_dir)
    lines = [
        f"run {Path(run_dir)}: {manifest['cells']} cells, "
        f"baselines {', '.join(manifest['baselines'])} x "
        f"traces {', '.join(manifest['traces'])} x "
        f"seeds {manifest['seeds']} (code {manifest['code_version']})",
    ]
    if summary:
        cache = summary.get("cache", {})
        workers = summary.get("workers", {})
        lines.append(
            f"ran in {summary.get('wall_s', 0.0):.1f}s on "
            f"{len(workers) or summary.get('jobs', 1)} worker(s); "
            f"cache hits={cache.get('hits')} misses={cache.get('misses')} "
            f"stores={cache.get('stores')}")
        for reason, n in summary.get("fallbacks", {}).items():
            lines.append(f"fallback: {n} batch cell(s) ran on the "
                         f"reference loop ({reason})")
        for straggler in summary.get("stragglers", []):
            lines.append(f"straggler: cell {straggler['key']} took "
                         f"{straggler['wall_s']:.2f}s "
                         f"(median {straggler['median_s']:.2f}s)")
    lines.append("")
    lines.append(render_aggregate(aggregate(results)))
    fairness = summary.get("fairness") if summary else None
    if fairness:
        lines.append("")
        lines.append("fairness (trailing-window Jain / worst-flow p95):")
        for cell, stats in sorted(fairness.items()):
            conv = stats.get("convergence_s")
            conv_txt = ""
            if conv:
                pretty = ", ".join(
                    f"{fid}:{'-' if v is None else f'{v:.0f}s'}"
                    for fid, v in sorted(conv.items()))
                conv_txt = f"  conv[{pretty}]"
            lines.append(
                f"  {cell:<44} jain {stats['jain']:.3f}  "
                f"worst p95 {stats['worst_p95_ms']:.1f} ms{conv_txt}")
    if manifest.get("arena"):
        return "\n".join(lines)
    reference = manifest["baselines"][0]
    others = [b for b in manifest["baselines"] if b != reference]
    if others:
        lines.append("")
        lines.append(f"paired comparisons vs {reference}:")
        for baseline in others:
            for metric in ("p95_latency", "mean_vmaf"):
                cmp = paired_compare(results, baseline, reference,
                                     metric=metric)
                if cmp.n == 0:
                    lines.append(f"  {baseline:<14} {metric:<12} "
                                 "no paired workloads")
                    continue
                # diffs are (row - reference); flip the win direction
                # for metrics where larger is better.
                if metric in HIGHER_IS_BETTER:
                    wins = sum(1 for d in cmp.diffs if d > 0)
                else:
                    wins = cmp.wins
                lines.append(
                    f"  {baseline:<14} {metric:<12} mean diff "
                    f"{cmp.mean_diff:+.4f} over {cmp.n} workloads, "
                    f"wins {wins}/{cmp.n}"
                    + ("  [consistent]" if wins == cmp.n else ""))
    return "\n".join(lines)


def diff_runs(candidate_dir: str | Path, reference_dir: str | Path,
              tolerance: float = DEFAULT_DIFF_TOLERANCE,
              metrics: Sequence[str] = METRICS,
              ) -> tuple[str, list[dict]]:
    """Regression diff of two run directories.

    Compares per-baseline aggregate means of ``candidate`` against
    ``reference``; a metric that worsened by more than ``tolerance``
    (relative, direction-aware: latency/loss down is good, VMAF/fps up
    is good) is a regression. Returns ``(report text, regressions)``.
    """
    _, cand_results, cand_summary = load_run(candidate_dir)
    _, ref_results, ref_summary = load_run(reference_dir)
    cand = aggregate(cand_results, metrics=metrics)
    ref = aggregate(ref_results, metrics=metrics)
    lines = [f"diff: {Path(candidate_dir)} vs {Path(reference_dir)} "
             f"(tolerance {tolerance:.0%})"]
    regressions: list[dict] = []

    def judge(label: str, metric: str, old, new, higher_better: bool) -> None:
        if new is None or old is None or new != new or old != old:
            return  # missing or NaN on either side
        if old == 0.0:
            rel = 0.0 if new == 0.0 else float("inf")
        else:
            rel = (new - old) / abs(old)
        worsened = -rel if higher_better else rel
        flag = "~"
        if worsened > tolerance:
            flag = "REGRESSED"
            regressions.append({"baseline": label, "metric": metric,
                                "old": old, "new": new, "rel": rel})
        elif worsened < -tolerance:
            flag = "improved"
        lines.append(f"  {label:<14} {metric:<14} "
                     f"{old:>12.6g} -> {new:>12.6g} ({rel:+.1%})  {flag}")

    for baseline in sorted(set(cand) & set(ref)):
        for metric in metrics:
            judge(baseline, metric, ref[baseline][metric].mean,
                  cand[baseline][metric].mean, metric in HIGHER_IS_BETTER)
    for baseline in sorted(set(cand) ^ set(ref)):
        side = "candidate" if baseline in cand else "reference"
        lines.append(f"  {baseline:<14} only in {side} run")
    # Arena fairness cells: Jain index (higher is better) and worst-flow
    # p95 (lower is better) per arena cell, from the run summaries.
    cand_fair = (cand_summary or {}).get("fairness", {})
    ref_fair = (ref_summary or {}).get("fairness", {})
    for cell in sorted(set(cand_fair) & set(ref_fair)):
        for metric, higher_better in (("jain", True), ("worst_p95_ms", False)):
            judge(cell, metric, ref_fair[cell].get(metric),
                  cand_fair[cell].get(metric), higher_better)
    # Time-series shards (recorded with --series) pinpoint *when* the
    # runs diverged, not just whether; informational, never a
    # regression by itself.
    from repro.analysis.report import series_divergence_lines
    lines.extend(series_divergence_lines(candidate_dir, reference_dir))
    lines.append(f"{len(regressions)} regression(s)")
    return "\n".join(lines), regressions

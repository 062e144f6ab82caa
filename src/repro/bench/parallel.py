"""Parallel experiment runner: fan session grids across worker processes.

Experiment sweeps are embarrassingly parallel — every (baseline, trace,
seed, category) cell is an independent deterministic simulation — but
the bench suite historically ran them one after another on one core.
This module fans a grid of :class:`GridTask` cells across a
``ProcessPoolExecutor`` and merges the results back in task order.

Determinism contract: each task carries its own seed and builds its own
session, so a worker computes *exactly* the float sequence the serial
path computes — parallel results are byte-identical to ``jobs=1``
(tested via :func:`~repro.analysis.results.canonical_metrics_json`).
Part of that contract is **environment isolation**: every cell attaches
its own :class:`~repro.observe.Observe` options, so the parent's
``REPRO_TELEMETRY``/``REPRO_AUDIT`` never instrument a 500-cell sweep.

The runner composes with the on-disk result cache
(:class:`~repro.analysis.cache.ResultCache`): cached cells are answered
without spawning a worker, and fresh results are stored for the next
sweep. ``REPRO_CACHE=off`` disables that layer entirely; instrumented
cells bypass it (:attr:`~repro.observe.Observe.instrumented`).

One executor: :func:`run_cells` is how every set of cells runs — the
library grids (:func:`run_grid`, :func:`repro.arena.grid.run_arena_grid`),
the named scenarios and the CLI build :class:`GridTask` lists and hand
them over. With ``run_dir=`` it streams per-cell completion records,
worker heartbeats and a final summary into a run directory that
``repro report`` can roll up later (:mod:`repro.obs.fleet`).
"""

from __future__ import annotations

import os
import re
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass, field
from itertools import product
from time import perf_counter
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.analysis.cache import ResultCache
from repro.analysis.results import RunResult
from repro.net.aqm import DEFAULT_DISCIPLINE
from repro.net.trace import BandwidthTrace
from repro.observe import Observe, attach, harvest, write_series_shards
from repro.rtc.baselines import build_session
from repro.rtc.metrics import SessionMetrics
from repro.rtc.session import SessionConfig

if TYPE_CHECKING:
    from repro.obs.fleet import FleetObserver

#: default per-session simulated duration (matches bench workloads).
DEFAULT_DURATION = 25.0


def resolve_jobs(jobs: Optional[int]) -> int:
    """Worker count: ``None``/``0`` means one per CPU, else ``jobs``."""
    if not jobs:
        return os.cpu_count() or 1
    return max(1, jobs)


def build_overrides(engine: str = "reference",
                    discipline: str = DEFAULT_DISCIPLINE,
                    **overrides) -> dict:
    """The ``build_kwargs`` a cell's stack choices amount to.

    Only a choice that differs from the default enters (an unset
    ``cc_override=None`` is dropped like ``engine="reference"``), and
    ``build_kwargs`` is part of the result-cache key: default cells keep
    their historical cache identity whichever command built them, while
    a batch-engine, AQM or overridden-CC result can never be served from
    (or stored into) a default cell's slot.
    """
    chosen = {key: value for key, value in overrides.items()
              if value is not None}
    if engine != "reference":
        chosen["engine"] = engine
    if discipline != DEFAULT_DISCIPLINE:
        chosen["discipline"] = discipline
    return chosen


@dataclass
class GridTask(Observe):
    """One cell of an experiment grid: a single session to run.

    ``config`` is the cell's whole :class:`SessionConfig` — required:
    the builders (:func:`make_grid`, the arena grid, the CLI, the
    scenarios) state every field, so no default can silently change a
    cell. ``build_kwargs`` forwards overrides to :func:`build_session`
    (``cc_override``, ``ace_n_config``, ...). The inherited
    :class:`~repro.observe.Observe` options are what the cell watches —
    the only way to instrument it.
    """

    baseline: str
    trace: BandwidthTrace
    config: SessionConfig
    category: str = "gaming"
    build_kwargs: dict = field(default_factory=dict)
    #: multi-flow arena cell: ``{"flows": [ArenaFlowSpec kwargs, ...],
    #: "discipline": name}``. When set,
    #: ``baseline`` is a display label (the mix string) and the cell
    #: runs an :class:`~repro.arena.session.ArenaSession` instead of
    #: :func:`build_session`; the result is an ``ArenaMetrics``.
    arena: Optional[dict] = None

    def key(self) -> tuple:
        """Grid coordinates: (baseline, trace name, seed, category)."""
        return (self.baseline, self.trace.name, self.config.seed,
                self.category)

    def cache_extra(self) -> dict:
        """Extra payload folded into the result-cache key.

        Arena cells add a canonical encoding of the flow mix; the queue
        discipline enters the key only when non-default, so historical
        drop-tail cache entries keep their identity while CoDel/PIE/
        Confucius runs can never be served from a drop-tail slot.
        """
        if self.arena is None:
            return self.build_kwargs
        import json
        extra = dict(self.build_kwargs)
        spec = dict(self.arena)
        if spec.get("discipline", "droptail") == "droptail":
            spec.pop("discipline", None)
        extra["arena"] = json.dumps(spec, sort_keys=True)
        return extra

    def results(self, metrics, window_s: float = 10.0,
                **labels) -> list[RunResult]:
        """This cell's result rows — the one place a row is made.

        One row for a single flow. An arena cell gives one row per flow
        (``"<baseline>#<flow id>@<discipline>"``) tagged with the cell's
        fairness over the trailing ``window_s`` — Jain index, worst-flow
        p95 — and the flow's convergence time. ``labels`` override
        ``trace`` (the trace's name by default) or ride along as extras
        (``scenario=``, ``mix=``).
        """
        labels = {"trace": self.trace.name, **labels}
        rows = [(metrics, self.baseline, {})]
        if self.arena is not None:
            report = metrics.fairness(window_s=window_s)
            discipline = self.arena.get("discipline", DEFAULT_DISCIPLINE)
            rows = []
            for fid, flow in metrics.items():
                spec = metrics.specs[fid]
                rows.append((flow, f"{spec['baseline']}#{fid}@{discipline}", {
                    "flow_id": fid, "discipline": discipline,
                    "start": spec.get("start", 0.0),
                    "jain": report.jain_throughput,
                    "worst_p95_ms": report.worst_p95_latency_s * 1e3,
                    "convergence_s": report.convergence_s.get(fid)}))
        seed = self.config.seed
        return [RunResult.from_metrics(flow, baseline=baseline, seed=seed,
                                       category=self.category,
                                       **extra, **labels)
                for flow, baseline, extra in rows]


def open_task(task: GridTask, strict_audit: bool = True):
    """Build the session ``task`` describes with the cell's observers
    attached (:func:`repro.observe.attach`), not yet run.

    A per-event auditor raises at the first violation when
    ``strict_audit`` — what a grid wants — and collects them for a
    report otherwise (``repro run --check``).
    """
    if task.arena is not None:
        from repro.arena.session import ArenaFlowSpec, ArenaSession
        spec = task.arena
        session = ArenaSession(
            [ArenaFlowSpec(**f) for f in spec["flows"]],
            task.trace, task.config,
            discipline=spec.get("discipline", "droptail"))
    else:
        session = build_session(task.baseline, task.trace, task.config,
                                category=task.category, **task.build_kwargs)
    return attach(session, task, strict=strict_audit)


def run_opened(task: GridTask, session) -> SessionMetrics:
    """Run a session from :func:`open_task` and harvest what its
    observers saw (:func:`repro.observe.harvest`), a recorded series
    headed by the cell's coordinates."""
    baseline, trace_name, seed, category = task.key()
    return harvest(session, session.run(), baseline=baseline,
                   trace=trace_name, seed=seed, category=category)


def _run_cell(index: int, task: GridTask) -> tuple[int, SessionMetrics, int, float]:
    """Run one cell, inline or in a pool worker: ``(index, metrics,
    pid, wall seconds)``.

    ``bandwidth_fn`` (a live bound method of the trace) is stripped
    before crossing the process boundary; the parent reattaches its own
    trace's ``rate_at`` so results look identical to an in-process run.
    """
    t0 = perf_counter()
    metrics = run_opened(task, open_task(task))
    metrics.bandwidth_fn = None
    return index, metrics, os.getpid(), perf_counter() - t0


class ParallelRunner:
    """Run grid tasks across processes, short-circuiting through a cache.

    ``jobs=1`` executes inline (no executor, no pickling) — the code
    path benches and tests compare the parallel path against.
    ``jobs=None``/``0`` means one worker per CPU. ``cache=None`` runs
    everything fresh.
    """

    def __init__(self, jobs: Optional[int] = 1,
                 cache: Optional[ResultCache] = None) -> None:
        self.jobs = resolve_jobs(jobs)
        self.cache = cache

    def run(self, tasks: Iterable[GridTask],
            observer: Optional["FleetObserver"] = None,
            ) -> list[SessionMetrics]:
        """Execute ``tasks``; results come back in task order.

        With an ``observer``, every completed cell (cache hit or fresh)
        is streamed to it in completion order as it lands.
        """
        tasks = list(tasks)
        results: list[Optional[SessionMetrics]] = [None] * len(tasks)
        keys: list[Optional[str]] = [None] * len(tasks)
        todo: list[int] = []

        cache = self.cache
        if cache is not None:
            for i, task in enumerate(tasks):
                if task.instrumented:
                    todo.append(i)      # bypass: no lookup, no store
                    continue
                key = cache.make_key(task.baseline, task.config,
                                     task.trace, task.category,
                                     task.cache_extra())
                keys[i] = key
                cached = cache.get(key)
                if cached is not None:
                    cached.bandwidth_fn = task.trace.rate_at
                    results[i] = cached
                    if observer is not None:
                        observer.cell_done(i, task.key(), source="cache")
                else:
                    todo.append(i)
        else:
            todo = list(range(len(tasks)))

        def _finish(i: int, metrics: SessionMetrics, pid: int,
                    wall_s: float, ran: str) -> None:
            metrics.bandwidth_fn = tasks[i].trace.rate_at
            missed = keys[i] is not None     # else it never asked a cache
            if missed:
                cache.put(keys[i], metrics)
            results[i] = metrics
            if observer is not None:
                observer.cell_done(
                    i, tasks[i].key(), source=ran if missed else "bypass",
                    wall_s=wall_s, pid=pid,
                    engine=getattr(metrics, "engine", None),
                    fallback_reason=getattr(metrics, "fallback_reason", None))

        if todo:
            if self.jobs <= 1 or len(todo) <= 1:
                for i in todo:
                    _finish(*_run_cell(i, tasks[i]), "inline")
            else:
                workers = min(self.jobs, len(todo))
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = {pool.submit(_run_cell, i, tasks[i])
                               for i in todo}
                    while futures:
                        done, futures = wait(futures,
                                             return_when=FIRST_COMPLETED)
                        for future in done:
                            _finish(*future.result(), "worker")
        return results  # type: ignore[return-value]

    def counters(self) -> str:
        """One-line cache summary for bench output."""
        if self.cache is None:
            return "cache[none]"
        return self.cache.counters()


def series_shard_name(key: tuple) -> str:
    """Filesystem-safe shard label from a grid key, e.g.
    ``('ace', 'const:20', 3, 'gaming')`` -> ``ace__const-20__s3__gaming``.
    Arena cell labels (``arena:ace*2+webrtc-star@codel``) sanitize the
    same way: anything outside ``[A-Za-z0-9._-]`` becomes ``-``."""
    baseline, trace_name, seed, category = key
    parts = [str(baseline), str(trace_name), f"s{seed}", str(category)]
    return "__".join(re.sub(r"[^A-Za-z0-9._-]", "-", p) for p in parts)


def cell_keys(tasks: Sequence[GridTask]) -> list[tuple]:
    """The cells' keys, checked unique — for whoever names things by
    them: result rows and series shards in a run directory, the entries
    of the grids' return dicts, the CLI's table rows."""
    keys = [task.key() for task in tasks]
    if len(set(keys)) != len(keys):
        clash = next(key for key in keys if keys.count(key) > 1)
        raise ValueError(f"duplicate grid cell {clash!r} "
                         "(trace names must be unique)")
    return keys


def run_cells(tasks: Sequence[GridTask],
              labels: Optional[Sequence[dict]] = None, *,
              runner: Optional[ParallelRunner] = None,
              jobs: Optional[int] = 1, cache: Optional[ResultCache] = None,
              use_cache: bool = False, run_dir: Optional[str] = None,
              verbose: bool = False, manifest_extra: Optional[dict] = None,
              window_s: float = 10.0) -> list:
    """Run a set of cells; metrics come back in task order.

    The one executor behind :func:`run_grid`, the arena grid, the named
    scenarios and the CLI. Pass ``jobs=N`` to fan across N processes
    (``None``/``0`` = per-CPU), ``use_cache=True`` (or an explicit
    ``cache``) to memoize results on disk, and ``runner=`` to reuse a
    runner and accumulate its counters across calls.

    ``run_dir=`` turns on fleet observability: ``manifest.json`` up
    front (with ``manifest_extra`` merged in), ``cells.jsonl``
    (completions + heartbeats) while running, then the recorded
    ``series/`` shards, ``results.json`` (:meth:`GridTask.results` per
    cell, with ``labels[i]`` for ``tasks[i]``) and ``summary.json`` —
    which, for arena cells, gains a ``fairness`` block (the rows'
    per-cell Jain index and worst-flow p95 and per-flow convergence over
    the trailing ``window_s``) that ``repro report --diff`` gates on.
    ``verbose=True`` echoes heartbeats and the cache-counter line.
    """
    if runner is None:
        if cache is None and use_cache:
            cache = ResultCache()
        runner = ParallelRunner(jobs=jobs, cache=cache)
    cache = runner.cache
    observer = None
    if run_dir is not None:
        from repro.obs.fleet import FleetObserver, build_manifest
        cell_keys(tasks)
        observer = FleetObserver(run_dir, total=len(tasks), jobs=runner.jobs,
                                 echo=print if verbose else None)
        observer.write_manifest(build_manifest(
            tasks, jobs=runner.jobs,
            cache_enabled=cache is not None and cache.enabled,
            cache_dir=str(cache.cache_dir) if cache is not None else None,
            extra=manifest_extra))

    metrics = runner.run(tasks, observer=observer)

    if observer is not None:
        write_series_shards(
            run_dir, [series_shard_name(task.key()) for task in tasks],
            metrics)
        results: list[RunResult] = []
        fairness: dict[str, dict] = {}
        for task, m, label in zip(tasks, metrics,
                                  labels or [{}] * len(tasks)):
            rows = task.results(m, window_s=window_s, **label)
            results += rows
            if task.arena is not None:
                baseline, trace_name, seed, _ = task.key()
                fairness[f"{baseline}|{trace_name}|s{seed}"] = {
                    "jain": rows[0].extra["jain"],
                    "worst_p95_ms": rows[0].extra["worst_p95_ms"],
                    "convergence_s": {str(row.extra["flow_id"]):
                                      row.extra["convergence_s"]
                                      for row in rows}}
        observer.write_results(results)
        observer.finalize(cache.counter_dict() if cache is not None else None,
                          extra={"fairness": fairness} if fairness else None)
    if verbose:
        print(runner.counters())
    return metrics


def make_grid(baselines: Sequence[str], traces: Sequence[BandwidthTrace],
              seeds: Sequence[int] = (3,),
              categories: Sequence[str] = ("gaming",),
              duration: float = DEFAULT_DURATION, fps: float = 30.0,
              initial_bwe_bps: float = 6_000_000.0,
              build_kwargs: Optional[dict] = None,
              observe: Optional[Observe] = None) -> list[GridTask]:
    """Cartesian product of the grid axes, in deterministic order; every
    cell watches what ``observe`` asks for."""
    options = asdict(observe or Observe())
    return [
        GridTask(baseline=baseline, trace=trace, category=category,
                 config=SessionConfig(duration=duration, seed=seed, fps=fps,
                                      initial_bwe_bps=initial_bwe_bps),
                 build_kwargs=dict(build_kwargs or {}), **options)
        for baseline, trace, seed, category
        in product(baselines, traces, seeds, categories)
    ]


def run_grid(baselines: Sequence[str], traces: Sequence[BandwidthTrace],
             seeds: Sequence[int] = (3,),
             categories: Sequence[str] = ("gaming",),
             duration: float = DEFAULT_DURATION, fps: float = 30.0,
             initial_bwe_bps: float = 6_000_000.0,
             jobs: Optional[int] = 1, cache: Optional[ResultCache] = None,
             use_cache: bool = False,
             build_kwargs: Optional[dict] = None,
             runner: Optional[ParallelRunner] = None,
             run_dir: Optional[str] = None,
             verbose: bool = False,
             engine: str = "reference",
             discipline: str = "droptail",
             observe: Optional[Observe] = None,
             ) -> dict[tuple, SessionMetrics]:
    """Run a (baseline x trace x seed x category) grid.

    Returns ``{(baseline, trace.name, seed, category): SessionMetrics}``
    — trace names must therefore be unique within ``traces``.
    ``jobs``/``cache``/``use_cache``/``runner``/``run_dir``/``verbose``
    are :func:`run_cells`'s.

    ``engine=`` and ``discipline=`` select the simulation engine and the
    bottleneck queue discipline for every cell; the manifest records
    both, the cache key only a non-default one (:func:`build_overrides`).

    ``observe`` (:class:`~repro.observe.Observe`) is what every cell
    watches, harvested onto each result; with ``run_dir`` a recorded
    series also lands under ``<run_dir>/series/`` for ``repro plot`` and
    the ``repro report --diff`` divergence window (a ``stall`` cell is
    the stalled side of such an A/B pair).
    """
    observe = observe or Observe()
    tasks = make_grid(baselines, traces, seeds=seeds, categories=categories,
                      duration=duration, fps=fps,
                      initial_bwe_bps=initial_bwe_bps,
                      build_kwargs={**(build_kwargs or {}),
                                    **build_overrides(engine, discipline)},
                      observe=observe)
    keys = cell_keys(tasks)
    metrics = run_cells(
        tasks, runner=runner, jobs=jobs, cache=cache, use_cache=use_cache,
        run_dir=run_dir, verbose=verbose,
        manifest_extra={"engine": engine, "discipline": discipline,
                        "series": observe.series})
    return dict(zip(keys, metrics))

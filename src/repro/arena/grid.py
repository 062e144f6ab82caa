"""Arena sweeps: (mix x discipline x trace x seed) grids with fairness.

Runs on the shared executor (:func:`~repro.bench.parallel.run_cells`:
worker pool, on-disk result cache, fleet observability): each arena cell
is one :class:`~repro.bench.parallel.GridTask` whose ``arena`` payload
makes the worker run an :class:`~repro.arena.session.ArenaSession`
instead of a single-flow session. Cache-key convention mirrors the
engine seam: the queue discipline enters the key only when non-default,
so cached drop-tail cells are never served for CoDel/PIE/Confucius runs
and historical entries stay valid.
"""

from __future__ import annotations

from itertools import product
from typing import Optional, Sequence

from repro.arena.session import ArenaMetrics
from repro.bench.parallel import GridTask, cell_keys, run_cells
from repro.net.aqm import DEFAULT_DISCIPLINE, list_disciplines
from repro.net.trace import BandwidthTrace

#: matches the single-flow grid defaults (bench workloads).
DEFAULT_DURATION = 25.0


def parse_mix(mix: str) -> list[dict]:
    """Parse a flow-mix string into ``ArenaFlowSpec`` kwargs dicts.

    Grammar: ``base[*count][@start[:stop]]`` groups joined by ``+``,
    e.g. ``"ace*2+webrtc-star*2"`` or ``"ace*2+webrtc-star@5"`` (one
    webrtc-star flow joining at t=5s). Flow ids are assigned 1..N in
    listed order.
    """
    flows: list[dict] = []
    fid = 1
    for group in mix.split("+"):
        group = group.strip()
        if not group:
            raise ValueError(f"empty flow group in mix {mix!r}")
        start, stop = 0.0, None
        if "@" in group:
            group, _, when = group.partition("@")
            if ":" in when:
                s0, _, s1 = when.partition(":")
                start, stop = float(s0), float(s1)
            else:
                start = float(when)
        count = 1
        if "*" in group:
            group, _, n = group.partition("*")
            count = int(n)
            if count < 1:
                raise ValueError(f"flow count must be >= 1 in mix {mix!r}")
        baseline = group.strip()
        if not baseline:
            raise ValueError(f"missing baseline name in mix {mix!r}")
        for _ in range(count):
            flows.append({"baseline": baseline, "flow_id": fid,
                          "start": start, "stop": stop})
            fid += 1
    if not flows:
        raise ValueError(f"mix {mix!r} has no flows")
    return flows


def cell_label(mix: str, discipline: str) -> str:
    """Display label for one arena cell (mix plus non-default AQM)."""
    if discipline == DEFAULT_DISCIPLINE:
        return f"arena:{mix}"
    return f"arena:{mix}@{discipline}"


def arena_task(mix: str, discipline: str, trace: BandwidthTrace,
               category: str, discipline_params: Optional[dict] = None,
               **task_fields) -> GridTask:
    """One arena cell as a :class:`~repro.bench.parallel.GridTask`: the
    mix's flows in ``category`` behind ``discipline``, labelled
    :func:`cell_label`. ``task_fields`` are the task's own (``config=``
    or the scalar knobs, ``series=``)."""
    flows = [{**flow, "category": category} for flow in parse_mix(mix)]
    return GridTask(
        baseline=cell_label(mix, discipline), trace=trace, category=category,
        arena={"flows": flows, "discipline": discipline,
               "discipline_params": dict(discipline_params or {})},
        **task_fields)


def run_arena_grid(mixes: Sequence[str], traces: Sequence[BandwidthTrace],
                   disciplines: Sequence[str] = (DEFAULT_DISCIPLINE,),
                   seeds: Sequence[int] = (3,),
                   category: str = "gaming",
                   duration: float = DEFAULT_DURATION, fps: float = 30.0,
                   initial_bwe_bps: float = 6_000_000.0,
                   jobs: Optional[int] = 1,
                   cache=None, use_cache: bool = False,
                   runner=None,
                   run_dir: Optional[str] = None,
                   verbose: bool = False,
                   window_s: float = 10.0,
                   discipline_params: Optional[dict] = None,
                   series: bool = False,
                   ) -> dict[tuple, ArenaMetrics]:
    """Sweep a (mix x discipline x trace x seed) cube of arena cells.

    Returns ``{(mix, discipline, trace.name, seed): ArenaMetrics}``.
    With ``run_dir=``, writes fleet artifacts
    (:func:`~repro.bench.parallel.run_cells`): the manifest records the
    disciplines swept, ``results.json`` holds one per-flow
    :class:`~repro.analysis.results.RunResult` per cell (baseline
    labels like ``"ace#1@droptail"``), and ``summary.json`` gains the
    ``fairness`` block over the trailing ``window_s``.
    ``series=True`` records per-cell time series (arena gauges: per-flow
    sent bytes, queue shares, router occupancy) and — with ``run_dir=``
    — writes them as ``series/*.json`` shards; series cells bypass the
    result cache like any other instrumented task.
    """
    known = list_disciplines()
    for name in disciplines:
        if name not in known:
            raise ValueError(f"unknown discipline {name!r} "
                             f"(have {', '.join(known)})")
    coords = list(product(mixes, disciplines, traces, seeds))
    tasks = [arena_task(mix, discipline, trace, category, discipline_params,
                        seed=seed, duration=duration, fps=fps,
                        initial_bwe_bps=initial_bwe_bps, series=series)
             for mix, discipline, trace, seed in coords]
    cell_keys(tasks)
    metrics = run_cells(
        tasks, [{"mix": mix} for mix, _, _, _ in coords],
        runner=runner, jobs=jobs, cache=cache, use_cache=use_cache,
        run_dir=run_dir, verbose=verbose, window_s=window_s,
        manifest_extra={"arena": True, "mixes": list(mixes),
                        "disciplines": list(disciplines),
                        "window_s": window_s, "series": series})
    return {(mix, discipline, trace.name, seed): m
            for (mix, discipline, trace, seed), m in zip(coords, metrics)}

"""Arena sweeps: (mix x discipline x trace x seed) grids with fairness.

Reuses the shared :class:`~repro.bench.parallel.ParallelRunner` (worker
pool, on-disk result cache, fleet observability): each arena cell is one
:class:`~repro.bench.parallel.GridTask` whose ``arena`` payload makes
the worker run an :class:`~repro.arena.session.ArenaSession` instead of
a single-flow session. Cache-key convention mirrors the engine seam:
the queue discipline enters the key only when non-default, so cached
drop-tail cells are never served for CoDel/PIE/Confucius runs and
historical entries stay valid.
"""

from __future__ import annotations

from itertools import product
from typing import Optional, Sequence

from repro.arena.session import ArenaMetrics
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
    With ``run_dir=``, writes fleet artifacts: the manifest records the
    disciplines swept, ``results.json`` holds one per-flow
    :class:`~repro.analysis.results.RunResult` per cell (baseline
    labels like ``"ace#1@droptail"``), and ``summary.json`` gains a
    ``fairness`` block (per-cell Jain index, worst-flow p95, per-flow
    convergence times) that ``repro report --diff`` gates on.
    ``series=True`` records per-cell time series (arena gauges: per-flow
    sent bytes, queue shares, router occupancy) and — with ``run_dir=``
    — writes them as ``series/*.json`` shards; series cells bypass the
    result cache like any other instrumented task.
    """
    from repro.bench.parallel import GridTask, open_fleet

    known = list_disciplines()
    for name in disciplines:
        if name not in known:
            raise ValueError(f"unknown discipline {name!r} "
                             f"(have {', '.join(known)})")

    tasks: list[GridTask] = []
    coords: list[tuple] = []
    for mix, discipline, trace, seed in product(mixes, disciplines,
                                                traces, seeds):
        flows = parse_mix(mix)
        for f in flows:
            f["category"] = category
        tasks.append(GridTask(
            baseline=cell_label(mix, discipline),
            trace=trace, seed=seed, duration=duration,
            category=category, fps=fps, initial_bwe_bps=initial_bwe_bps,
            arena={"flows": flows, "discipline": discipline,
                   "discipline_params": dict(discipline_params or {})},
            series=series,
        ))
        coords.append((mix, discipline, trace.name, seed))
    if len(set(coords)) != len(coords):
        raise ValueError("duplicate arena cells (trace names must be "
                         "unique and mixes/disciplines distinct)")

    runner, observer = open_fleet(
        tasks, runner=runner, jobs=jobs, cache=cache, use_cache=use_cache,
        run_dir=run_dir, verbose=verbose,
        manifest_extra={"arena": True, "mixes": list(mixes),
                        "disciplines": list(disciplines),
                        "window_s": window_s, "series": series})

    metrics = runner.run(tasks, observer=observer)
    out: dict[tuple, ArenaMetrics] = dict(zip(coords, metrics))

    if observer is not None:
        from repro.analysis.results import RunResult
        if series:
            from repro.bench.parallel import write_series_shards
            write_series_shards(observer.run_dir, tasks, metrics)
        results = []
        fairness_block: dict[str, dict] = {}
        for (mix, discipline, trace_name, seed), m in zip(coords, metrics):
            report = m.fairness(window_s=window_s)
            cell = f"{cell_label(mix, discipline)}|{trace_name}|s{seed}"
            fairness_block[cell] = {
                "jain": report.jain_throughput,
                "worst_p95_ms": report.worst_p95_latency_s * 1e3,
                "convergence_s": {str(fid): conv for fid, conv
                                  in sorted(report.convergence_s.items())},
            }
            for fid, fm in m.items():
                spec = m.specs[fid]
                results.append(RunResult.from_metrics(
                    fm, baseline=f"{spec['baseline']}#{fid}@{discipline}",
                    trace=trace_name, seed=seed, category=category,
                    mix=mix, flow_id=fid, discipline=discipline,
                    start=spec.get("start", 0.0),
                    jain=report.jain_throughput))
        observer.write_results(results)
        observer.finalize(runner.cache.counter_dict()
                          if runner.cache is not None else None,
                          extra={"fairness": fairness_block})
    if verbose:
        print(runner.counters())
    return out

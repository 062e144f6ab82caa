"""Named experiment scenarios mapping to the paper's evaluation sections.

Each scenario bundles the baselines, traces, and session knobs of one
paper experiment into a reproducible preset, runnable programmatically
(:func:`run_scenario`) or from the CLI (``python -m repro scenario``).
The benchmark suite remains the authoritative reproduction; scenarios
are the quick interactive entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.analysis.results import RunResult
from repro.arena.grid import arena_task
from repro.net.trace import (
    BandwidthTrace,
    make_campus_wifi_trace,
    make_weak_network_trace,
)
from repro.bench.parallel import GridTask, run_cells
from repro.bench.workloads import trace_library
from repro.rtc.session import SessionConfig
from repro.sim.rng import RngStream


@dataclass(frozen=True)
class Scenario:
    """A reproducible preset of one paper experiment."""

    name: str
    description: str
    baselines: tuple[str, ...]
    #: (trace label, factory) pairs; factories take a seed.
    traces: tuple[tuple[str, Callable[[int], BandwidthTrace]], ...]
    duration: float = 25.0
    fps: float = 30.0
    category: str = "gaming"
    config_overrides: dict = field(default_factory=dict)
    #: arena scenario: a flow-mix string (see repro.arena.parse_mix)
    #: run once per discipline; ``baselines`` is then ignored.
    arena_mix: Optional[str] = None
    disciplines: tuple[str, ...] = ("droptail",)


def _library_trace(cls: str, index: int = 0) -> Callable[[int], BandwidthTrace]:
    def factory(seed: int) -> BandwidthTrace:
        return trace_library(seed=1).by_class(cls)[index]
    return factory


def _campus(hour: float) -> Callable[[int], BandwidthTrace]:
    def factory(seed: int) -> BandwidthTrace:
        return make_campus_wifi_trace(RngStream(seed, f"campus.{hour}"),
                                      duration=120.0, hour_of_day=hour)
    return factory


def _const(mbps: float) -> Callable[[int], BandwidthTrace]:
    def factory(seed: int) -> BandwidthTrace:
        return BandwidthTrace.constant(mbps * 1e6, duration=300.0,
                                       name=f"const{mbps:g}")
    return factory


def _weak(venue: str) -> Callable[[int], BandwidthTrace]:
    def factory(seed: int) -> BandwidthTrace:
        return make_weak_network_trace(RngStream(seed, f"weak.{venue}"),
                                       duration=120.0, venue=venue)
    return factory


SCENARIOS: dict[str, Scenario] = {
    "main-tradeoff": Scenario(
        name="main-tradeoff",
        description="Fig. 12: the headline latency/quality frontier over "
                    "Wi-Fi/4G/5G traces.",
        baselines=("ace", "webrtc-star", "webrtc", "webrtc-b", "cbr",
                   "salsify"),
        traces=(("wifi", _library_trace("wifi")),
                ("4g", _library_trace("4g")),
                ("5g", _library_trace("5g"))),
        duration=30.0,
    ),
    "ablation": Scenario(
        name="ablation",
        description="Fig. 15: ACE-N-only and ACE-C-only against full ACE.",
        baselines=("ace", "ace-n", "ace-c", "webrtc-star", "cbr"),
        traces=(("wifi", _library_trace("wifi")),),
        duration=30.0,
    ),
    "categories": Scenario(
        name="categories",
        description="Fig. 13: per-content-category comparison (run once "
                    "per category via the category override).",
        baselines=("ace", "webrtc-star", "cbr"),
        traces=(("wifi", _library_trace("wifi")),),
        duration=25.0,
    ),
    "campus": Scenario(
        name="campus",
        description="Fig. 26: the campus Wi-Fi real-world substitution "
                    "(peak-hour sample).",
        baselines=("ace", "webrtc-star", "cbr", "salsify", "google-meet"),
        traces=(("campus-16h", _campus(16.0)),),
        duration=25.0,
    ),
    "production": Scenario(
        name="production",
        description="Table 3: weak-network production engines at 60 fps.",
        baselines=("ace-n-prod", "always-pace", "always-burst"),
        traces=(("canteen", _weak("canteen")),
                ("coffee_shop", _weak("coffee_shop")),
                ("airport", _weak("airport"))),
        duration=25.0,
        fps=60.0,
        config_overrides={"contention_loss_rate": 0.05,
                          "queue_capacity_bytes": 500_000},
    ),
    "arena-rtc-rtc": Scenario(
        name="arena-rtc-rtc",
        description="Arena: two ACE vs two GCC (webrtc-star) flows on a "
                    "shared 20 Mbps drop-tail bottleneck.",
        baselines=(),
        traces=(("const20", _const(20.0)),),
        duration=25.0,
        arena_mix="ace*2+webrtc-star*2",
    ),
    "arena-aqm": Scenario(
        name="arena-aqm",
        description="Arena: ACE vs GCC under every queue discipline "
                    "(drop-tail, CoDel, PIE, Confucius-style).",
        baselines=(),
        traces=(("wifi", _library_trace("wifi")),),
        duration=25.0,
        arena_mix="ace+webrtc-star",
        disciplines=("droptail", "codel", "pie", "confucius"),
    ),
    "arena-late-joiner": Scenario(
        name="arena-late-joiner",
        description="Arena: a GCC flow joins two established ACE flows "
                    "at t=8s (convergence measurement).",
        baselines=(),
        traces=(("const20", _const(20.0)),),
        duration=25.0,
        arena_mix="ace*2+webrtc-star@8",
    ),
    "lossy-link": Scenario(
        name="lossy-link",
        description="Extension: ACE vs ACE+FEC on a 2% random-loss link.",
        baselines=("ace", "ace-fec"),
        traces=(("wifi", _library_trace("wifi")),),
        duration=25.0,
        config_overrides={"random_loss_rate": 0.02},
    ),
}


def list_scenarios() -> list[str]:
    return sorted(SCENARIOS)


def get_scenario(name: str) -> Scenario:
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; choose from "
                       f"{list_scenarios()}")
    return SCENARIOS[name]


def scenario_tasks(name: str, seed: int = 3,
                   duration: Optional[float] = None,
                   category: Optional[str] = None,
                   ) -> tuple[list[GridTask], list[dict]]:
    """The cells of a scenario as grid tasks, and each cell's row labels.

    One cell per (trace x baseline) — or, for an arena scenario, per
    (trace x discipline). The labels are what a cell's result rows carry
    beyond the task's own coordinates: the scenario's name, its label
    for the trace (not the trace object's library name) and, for arena
    cells, the mix string.
    """
    scenario = get_scenario(name)
    category = category or scenario.category
    config = SessionConfig(duration=duration or scenario.duration, seed=seed,
                           fps=scenario.fps, initial_bwe_bps=6e6,
                           **scenario.config_overrides)
    tasks: list[GridTask] = []
    labels: list[dict] = []
    for trace_label, factory in scenario.traces:
        trace = factory(seed)
        label = {"scenario": scenario.name, "trace": trace_label}
        if scenario.arena_mix is None:
            cells = [GridTask(baseline, trace, category=category,
                              config=config)
                     for baseline in scenario.baselines]
        else:
            label["mix"] = scenario.arena_mix
            cells = [arena_task(scenario.arena_mix, discipline, trace,
                                category, config=config)
                     for discipline in scenario.disciplines]
        tasks += cells
        labels += [label] * len(cells)
    return tasks, labels


def run_scenario(name: str, seed: int = 3,
                 duration: Optional[float] = None,
                 category: Optional[str] = None) -> list[RunResult]:
    """Run every cell of a scenario; returns one result row per flow
    (an arena cell's rows carry its Jain index and convergence times)."""
    tasks, labels = scenario_tasks(name, seed, duration, category)
    return [row for task, metrics, label
            in zip(tasks, run_cells(tasks), labels)
            for row in task.results(metrics, **label)]

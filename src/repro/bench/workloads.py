"""Workload builders and session runners for the benchmarks.

Benchmark sessions are shorter than the paper's 1200-second corpus (so
the full suite finishes in minutes), but use the same trace classes,
content categories and baseline configurations; EXPERIMENTS.md records
paper-vs-measured for every experiment.
"""

from __future__ import annotations

from typing import Optional

from repro.bench.parallel import run_grid
from repro.net.trace import BandwidthTrace, TraceLibrary
from repro.rtc.baselines import build_session
from repro.rtc.metrics import SessionMetrics
from repro.rtc.session import RtcSession, SessionConfig

#: default per-session simulated duration for benches (seconds).
STANDARD_DURATION = 25.0

#: shared trace corpus, cached per (seed, duration) — keying by seed
#: alone would hand back a library of the wrong length when two callers
#: ask for the same seed with different durations.
_LIBRARIES: dict[tuple[int, float], TraceLibrary] = {}


def trace_library(seed: int = 1, duration: float = 120.0) -> TraceLibrary:
    key = (seed, duration)
    if key not in _LIBRARIES:
        _LIBRARIES[key] = TraceLibrary(seed=seed, duration=duration)
    return _LIBRARIES[key]


def run_baseline(name: str, trace: BandwidthTrace,
                 duration: float = STANDARD_DURATION, seed: int = 3,
                 category: str = "gaming", fps: float = 30.0,
                 config: Optional[SessionConfig] = None,
                 return_session: bool = False, **kwargs):
    """Run one baseline over one trace and return its SessionMetrics.

    Pass ``return_session=True`` to also get the session object (for
    deep-dive benches that read controller internals).
    """
    cfg = config or SessionConfig(duration=duration, seed=seed, fps=fps,
                                  initial_bwe_bps=6_000_000.0)
    session = build_session(name, trace, cfg, category=category, **kwargs)
    metrics = session.run()
    if return_session:
        return metrics, session
    return metrics


def run_baselines(names: list[str], trace: BandwidthTrace,
                  duration: float = STANDARD_DURATION, seed: int = 3,
                  category: str = "gaming", fps: float = 30.0,
                  jobs: Optional[int] = 1, use_cache: bool = False,
                  **kwargs) -> dict[str, SessionMetrics]:
    """Run several baselines over the same trace/seed (same workload).

    Routed through :func:`repro.bench.parallel.run_grid`: pass ``jobs=N``
    to fan the baselines across worker processes (results are identical
    to serial) and ``use_cache=True`` to memoize on disk. Remaining
    ``kwargs`` forward to ``build_session`` as before.
    """
    grid = run_grid(list(names), [trace], seeds=(seed,),
                    categories=(category,), duration=duration, fps=fps,
                    jobs=jobs, use_cache=use_cache, build_kwargs=kwargs)
    return {name: grid[(name, trace.name, seed, category)] for name in names}


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its result.

    The experiments are deterministic simulations — their wall time is
    the benchmark measurement, and a single round keeps the suite fast.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)

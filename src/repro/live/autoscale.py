"""Autoscale ceiling probe: find the machine's sessions/core limit.

``check_perf.py --live-load`` asks a binary question — can this box
run N sessions under the pacing-p99 bound? This module asks the open
one ROADMAP left: what is the *largest* N? The probe runs short
supervisor rounds (:func:`repro.live.server.run_load`), growing the
fleet geometrically until the SLO trips (fleet pacing p99 over the
bound, or any session failing), then bisects between the last passing
and first failing sizes. The discovered ceiling, normalised to
sessions/core, is written as a bench artifact so perf history records
what the hardware could actually sustain — not just that it cleared a
fixed bar.

Determinism caveat, stated upfront: this measures a *real machine
under real load*, so the ceiling is reproducible only to scheduler
noise. The bisection therefore stops at a relative resolution
(``ceil(lo/8)``, minimum 1 session) instead of chasing an exact
boundary that does not exist.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from repro.live.server import LoadConfig, run_load

__all__ = ["AutoscaleConfig", "run_autoscale", "probe_round"]


@dataclass
class AutoscaleConfig:
    """Knobs of one autoscale probe (``repro load --autoscale``)."""

    #: first fleet size tried; defaults (0) to the core count.
    start: int = 0
    #: hard cap on fleet size — the probe reports "ceiling at cap"
    #: rather than growing unboundedly on a big machine.
    max_sessions: int = 64
    #: geometric growth factor during the ascent phase.
    growth: float = 2.0
    #: media seconds per round (short: each round is a fresh fleet).
    duration: float = 1.5
    drain: float = 0.3
    seed: int = 1
    mix: Sequence[str] = ("ace",)
    bottleneck_mbps: float = 20.0
    #: the SLO: fleet pacing p99 must stay under this, and no session
    #: may fail. Matches the check_perf --live-load bound by default.
    p99_limit_ms: float = 250.0


def probe_round(sessions: int, cfg: AutoscaleConfig,
                echo: Optional[Callable[[str], None]] = None) -> dict:
    """Run one fleet of ``sessions`` and judge it against the SLO."""
    t0 = time.monotonic()
    supervisor = run_load(LoadConfig(
        sessions=sessions, mix=tuple(cfg.mix), ramp=0.0,
        duration=cfg.duration, drain=cfg.drain, seed=cfg.seed,
        bottleneck_mbps=cfg.bottleneck_mbps,
        heartbeat_interval=0.5))
    summary = supervisor.summary
    p99 = summary["pacing_p99_ms"]
    failed = summary["failed"]
    ok = failed == 0 and p99 is not None and p99 <= cfg.p99_limit_ms
    result = {
        "sessions": sessions,
        "ok": ok,
        "failed": failed,
        "completed": summary["completed"],
        "pacing_p99_ms": p99,
        "cpu_total_s": summary.get("cpu_total_s"),
        "rss_mb": summary.get("rss_mb"),
        "wall_s": round(time.monotonic() - t0, 3),
    }
    if echo is not None:
        p99_txt = "-" if p99 is None else f"{p99:.1f} ms"
        echo(f"autoscale: {sessions:>4} sessions -> "
             f"{'ok  ' if ok else 'TRIP'} (p99 {p99_txt}, "
             f"{failed} failed, {result['wall_s']:.1f}s wall)")
    return result


def _resolution(lo: int) -> int:
    """Bisection stop width: ~12% of the ceiling, at least 1."""
    return max(1, lo // 8)


def run_autoscale(cfg: Optional[AutoscaleConfig] = None, *,
                  echo: Optional[Callable[[str], None]] = None,
                  artifact_path: Optional[str] = None,
                  prober: Optional[Callable[[int, AutoscaleConfig], dict]]
                  = None) -> dict:
    """Probe the sessions/core ceiling; optionally write the artifact.

    ``prober`` exists for tests (a synthetic capacity model instead of
    real fleets). Returns the result dict; ``converged`` is True when
    an actual SLO trip bounded the ceiling (False means the probe hit
    ``max_sessions`` or even the first round failed).
    """
    cfg = cfg or AutoscaleConfig()
    probe = prober or (lambda n, c: probe_round(n, c, echo))
    cores = os.cpu_count() or 1
    start = cfg.start if cfg.start > 0 else min(cores, cfg.max_sessions)
    rounds: List[dict] = []

    # Ascent: grow geometrically until the SLO trips or the cap holds.
    n = max(1, start)
    last_good = 0
    first_bad: Optional[int] = None
    while True:
        result = probe(n, cfg)
        rounds.append(result)
        if result["ok"]:
            last_good = n
            if n >= cfg.max_sessions:
                break
            n = min(cfg.max_sessions, max(n + 1, int(n * cfg.growth)))
        else:
            first_bad = n
            break

    # Bisect the (last_good, first_bad) bracket to the stop width.
    if first_bad is not None:
        lo, hi = last_good, first_bad
        while hi - lo > _resolution(lo):
            mid = (lo + hi) // 2
            if mid <= lo or mid >= hi:
                break
            result = probe(mid, cfg)
            rounds.append(result)
            if result["ok"]:
                lo = mid
            else:
                hi = mid
        last_good = lo

    result = {
        "kind": "live-autoscale",
        "ceiling_sessions": last_good,
        "sessions_per_core": round(last_good / cores, 3),
        "cores": cores,
        "converged": first_bad is not None and last_good > 0,
        "at_cap": first_bad is None,
        "p99_limit_ms": cfg.p99_limit_ms,
        "round_duration_s": cfg.duration,
        "mix": list(cfg.mix),
        "rounds": rounds,
        "created_unix": round(time.time(), 3),
        "config": asdict(cfg),
    }
    if artifact_path is not None:
        path = Path(artifact_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        result["artifact"] = str(path)
    return result

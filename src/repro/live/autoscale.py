"""Autoscale ceiling probe: find the machine's sessions/core limit.

``check_perf.py --live-load`` asks a binary question — can this box
run N sessions under the pacing-p99 bound? This module asks for the
*largest* N. The probe runs short rounds of the fleet a
:class:`~repro.live.server.LoadConfig` describes, growing it
geometrically until the SLO trips (fleet pacing p99 over the template's
``slo_p99_s``, or any session failing), then bisects between the last
passing and first failing sizes. The ceiling, normalised to
sessions/core, is written as a bench artifact.

This measures a *real machine under real load*, so the ceiling is
reproducible only to scheduler noise: the bisection stops at a relative
resolution (``lo // 8``, minimum 1 session).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable, List, Optional

from repro.live.server import LoadConfig, run_load

__all__ = ["run_autoscale", "probe_round", "ROUND_DURATION_S"]

#: media seconds per round unless the caller states one (``repro load
#: --autoscale`` without ``--duration``): each round is a fresh fleet.
ROUND_DURATION_S = 1.5
#: geometric growth factor during the ascent phase.
GROWTH = 2.0


def probe_round(sessions: int, template: LoadConfig,
                echo: Optional[Callable[[str], None]] = None,
                trace_factory: Optional[Callable] = None) -> dict:
    """Run ``template``'s fleet at ``sessions`` (drain ≤ 0.3 s, 0.5 s
    heartbeat) and judge it: no session fails and the fleet pacing p99
    stays within ``slo_p99_s``."""
    t0 = time.monotonic()
    summary = run_load(replace(template, sessions=sessions,
                               drain=min(template.drain, 0.3),
                               heartbeat_interval=0.5),
                       trace_factory=trace_factory).summary
    p99 = summary["pacing_p99_ms"]
    failed = summary["failed"]
    ok = (failed == 0 and p99 is not None
          and p99 <= template.slo_p99_s * 1e3)
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


def run_autoscale(template: LoadConfig, *, start: int = 0,
                  max_sessions: int = 64,
                  trace_factory: Optional[Callable] = None,
                  echo: Optional[Callable[[str], None]] = None,
                  artifact_path: Optional[str] = None,
                  prober: Optional[Callable[[int, LoadConfig], dict]]
                  = None) -> dict:
    """Probe the sessions/core ceiling of ``template``'s fleet from
    ``start`` sessions (0: the core count) up to ``max_sessions``;
    optionally write the artifact.

    ``prober`` exists for tests (a synthetic capacity model instead of
    real fleets). Returns the result dict; ``converged`` is True when
    an actual SLO trip bounded the ceiling (False means the probe hit
    ``max_sessions`` or even the first round failed).
    """
    if template.slo_p99_s is None:
        raise ValueError("the probe judges rounds against the template's "
                         "slo_p99_s; set it")
    probe = prober or (lambda n, t: probe_round(n, t, echo, trace_factory))
    cores = os.cpu_count() or 1
    rounds: List[dict] = []

    # Ascent: grow geometrically until the SLO trips or the cap holds.
    n = max(1, start if start > 0 else min(cores, max_sessions))
    last_good, first_bad = 0, None
    while True:
        rounds.append(probe(n, template))
        if not rounds[-1]["ok"]:
            first_bad = n
            break
        last_good = n
        if n >= max_sessions:
            break
        n = min(max_sessions, max(n + 1, int(n * GROWTH)))

    # Bisect the (last_good, first_bad) bracket to the stop width; the
    # bracket is then at least 2 wide, so ``mid`` lies strictly inside.
    if first_bad is not None:
        lo, hi = last_good, first_bad
        while hi - lo > _resolution(lo):
            mid = (lo + hi) // 2
            rounds.append(probe(mid, template))
            lo, hi = (mid, hi) if rounds[-1]["ok"] else (lo, mid)
        last_good = lo

    result = {
        "kind": "live-autoscale",
        "ceiling_sessions": last_good,
        "sessions_per_core": round(last_good / cores, 3),
        "cores": cores,
        "converged": first_bad is not None and last_good > 0,
        "at_cap": first_bad is None,
        "p99_limit_ms": template.slo_p99_s * 1e3,
        "round_duration_s": template.duration,
        "mix": list(template.mix),
        "rounds": rounds,
        "created_unix": round(time.time(), 3),
        "config": asdict(template),
    }
    if artifact_path is not None:
        path = Path(artifact_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        result["artifact"] = str(path)
    return result

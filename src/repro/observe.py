"""What a run watches: declared once, attached once, harvested once.

:class:`Observe` declares the five options — telemetry, the invariant
auditor, the time-series recorder, the pacing-p99 SLO watchdog and the
pacing-stall drill; a grid cell and a live run's config *are* one.
:func:`attach` wires them onto any session type, :func:`harvest` puts
what they saw on the run's result, :func:`write_series_shards` writes
recorded series. The simulator and the live runtime are observed by the
same code, since what a run shows is a property of the code that
observes it (QUIC Steps, PAPERS.md). Observers are pure; the stall is
the one fault injection among the options.

This module stays light — ``import repro.cli`` must not load
:mod:`repro.obs` or the auditor — so both are imported on attach.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from repro.transport.pacer.stall import PacingStall

#: the options that watch (or clamp) one sender; an arena session has N.
SINGLE_FLOW = ("audit", "slo_p99_s", "stall")


@dataclass(kw_only=True)
class Observe:
    """Which observers a run carries; everything is off by default."""

    #: frame spans, metric registry, flight recorder, burst analyzer.
    telemetry: bool = False
    #: the invariant auditor — after every event of the session's loop
    #: (a wall clock's own ``clock.loop`` included).
    audit: bool = False
    #: bounded time series of every instrument on the telemetry tick
    #: (implies telemetry); harvested as ``series_frame``.
    series: bool = False
    #: pacing-delay p99 bound (seconds) of the SLO watchdog (implies
    #: telemetry; ``None`` = no watchdog); harvested as ``slo_alerts``.
    slo_p99_s: Optional[float] = None
    #: ``(at_s, duration_s)``: pin the pacer at its rate floor for that
    #: window — the watchdog drill; the run's result changes.
    stall: Optional[tuple[float, float]] = None

    @property
    def instrumented(self) -> bool:
        """Anything asked for: such a grid cell bypasses the result cache
        both ways (a hit would observe nothing; its result is not the
        artifact other sweeps expect)."""
        return (self.telemetry or self.audit or self.series
                or self.slo_p99_s is not None or self.stall is not None)

    @classmethod
    def from_env(cls) -> "Observe":
        """``REPRO_TELEMETRY``/``REPRO_AUDIT``: what a directly-run sim
        session carries when nothing was attached to it."""
        def on(name: str) -> bool:
            return os.environ.get(name, "") not in ("", "0")
        return cls(telemetry=on("REPRO_TELEMETRY"), audit=on("REPRO_AUDIT"))


def attach(session, options: Observe, *, strict: bool = True):
    """Wire ``options``' observers onto a not-yet-run ``session``, which
    keeps ``observed``, ``stall`` and ``auditor`` (its ``run()``
    finalizes the auditor); returns the session.

    An ``RtcSession`` is audited per event; an ``ArenaSession`` takes
    telemetry and series only (the :data:`SINGLE_FLOW` options raise
    ``ValueError``); a ``LiveSession`` attaches from inside its ``run()``,
    once the wall clock and the stack exist, and its auditor collects.
    ``strict`` makes a simulated session's auditor raise at the first
    violation.
    """
    if session.mode == "arena":
        for name in SINGLE_FLOW:
            if getattr(options, name) not in (False, None):
                raise ValueError(f"{name!r} watches a single flow; an arena "
                                 "session cannot take it")
    session.observed = options
    session.stall = session.auditor = None
    if options.telemetry or options.series or options.slo_p99_s is not None:
        telemetry = session.enable_telemetry()
        if options.slo_p99_s is not None:
            telemetry.attach_watchdog(pacing_p99_s=options.slo_p99_s)
        if options.series:
            telemetry.attach_series()
    if options.stall is not None:
        pacer = session.sender.pacer
        session.stall = PacingStall(pacer.loop, pacer, *options.stall)
    if options.audit:
        from repro.audit.auditor import attach_audit
        session.auditor = attach_audit(session, strict=strict)
    return session


def harvest(session, result, **meta):
    """Put what ``session``'s observers saw on ``result``, the metrics
    its run returned, and return it: ``slo_alerts`` (the watchdog's
    summary), ``series_frame`` (headed by ``meta``, the session's mode
    and any stall window) and ``audit`` (``{"violations", "report"}``),
    each ``None`` without its observer. Plain attributes outside the
    result schema: cache entries and canonical JSON never carry them,
    and they survive a grid worker's pickle.
    """
    watchdog = getattr(session.telemetry, "watchdog", None)
    series = getattr(session.telemetry, "series", None)
    auditor = session.auditor
    result.slo_alerts = watchdog and watchdog.summary()
    result.series_frame = None
    if series is not None:
        meta["mode"] = session.mode
        stall = getattr(session.observed, "stall", None)   # None: unattached
        if stall is not None:
            meta["stall"] = list(stall)
        result.series_frame = series.frame(meta)
    result.audit = auditor and {"violations": len(auditor.violations),
                                "report": auditor.report()}
    return result


def write_series_shards(run_dir, names: Sequence[str], results) -> list:
    """Write each result's harvested ``series_frame`` (if any) to
    ``<run_dir>/series/<name>.json``, atomically; returns the paths."""
    written = []
    for name, result in zip(names, results):
        frame = getattr(result, "series_frame", None)
        if frame is None or not frame.t:
            continue
        path = Path(run_dir) / "series" / f"{name}.json"
        frame.write(path)
        written.append(path)
    return written

"""Pacing-stall fault injection — the one injector sim, grid and live use."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.transport.pacer.base import Pacer

if TYPE_CHECKING:
    from repro.live.clock import Clock
    from repro.sim.events import Event


class PacingStall:
    """Pin ``pacer`` at its rate floor from ``at`` for ``duration``
    seconds of ``clock`` time, counted from construction.

    ``set_pacing_rate`` floors at 10 kbps, so clamping to 0 holds the
    pacer at the floor while frames keep arriving at the full target
    bitrate — backlog and pacing delay blow up within a few frames,
    which is exactly the signal the SLO watchdog exists to catch. The
    clamp re-arms every 50 ms to out-shout congestion-controller rate
    updates for the stall window, then stops; recovery is the
    controller's problem (and is itself worth watching).

    The object is the cancellable handle: :meth:`cancel` drops the
    pending timer (live teardown and ``request_stop``; a sim loop simply
    ends with the run).
    """

    REARM_S = 0.05

    def __init__(self, clock: "Clock", pacer: Pacer, at: float,
                 duration: float) -> None:
        self._clock = clock
        self._pacer = pacer
        self._end = at + duration
        self._handle: Optional["Event"] = clock.call_later(
            at, self._clamp, "slo.stall")

    def _clamp(self) -> None:
        self._handle = None
        self._pacer.set_pacing_rate(0.0)
        if self._clock.now < self._end:
            self._handle = self._clock.call_later(
                self.REARM_S, self._clamp, "slo.stall")

    def cancel(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

"""Lateness probe for live mode: how late does each clock callback fire?

ACE's claim is about when packets leave, and in live mode every packet
leaves from a callback a :class:`~repro.live.clock.WallClock` scheduled.
The probe belongs to the load generator: it wraps ``call_at`` and
``call_later`` on the class so each callback, on entry, appends
``clock.now - when`` — the open-loop "how late did the generator run"
number — before doing its work. It is on in both the untraced and the
traced pass, so the two stay comparable; what it costs is measured by
:func:`overhead_s` and reported as ``live.clock.probe_share``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable


class LatenessProbe:
    """Install with :meth:`install`, read ``samples``, then ``remove``."""

    def __init__(self) -> None:
        #: ``(id(clock), seconds late)`` per fired callback.
        self.samples: list = []
        self._originals: dict = {}

    def install(self) -> "LatenessProbe":
        from repro.live.clock import WallClock
        call_at = self._originals["call_at"] = WallClock.__dict__["call_at"]
        call_later = self._originals["call_later"] = \
            WallClock.__dict__["call_later"]
        timed = self.timed

        def probed_call_at(clock, when, callback, name=""):
            return call_at(clock, when, timed(clock, when, callback), name)

        def probed_call_later(clock, delay, callback, name=""):
            when = clock.now + (delay if delay > 0 else 0.0)
            return call_later(clock, delay, timed(clock, when, callback),
                              name)

        WallClock.call_at = probed_call_at
        WallClock.call_later = probed_call_later
        return self

    def timed(self, clock, when: float, callback: Callable) -> Callable:
        samples = self.samples
        key = id(clock)

        def fire():
            samples.append((key, clock.now - when))
            callback()

        return fire

    def remove(self) -> None:
        from repro.live.clock import WallClock
        for name, original in self._originals.items():
            setattr(WallClock, name, original)
        self._originals.clear()

    def lateness_ms(self, clock=None) -> list:
        """Sorted lateness samples in milliseconds (one clock or all)."""
        key = None if clock is None else id(clock)
        return sorted(late * 1e3 for k, late in self.samples
                      if key is None or k == key)


def overhead_s(callbacks: int) -> float:
    """Seconds the probe spends on ``callbacks`` fired callbacks.

    Measured, not assumed: the same closure the probe installs is run
    around a no-op against a stand-in clock, and the no-op alone is
    subtracted.
    """
    class _Clock:
        now = 0.0

    n = 50_000
    probe = LatenessProbe()
    clock = _Clock()
    noop = lambda: None  # noqa: E731
    t0 = perf_counter()
    for fire in [probe.timed(clock, 0.0, noop) for _ in range(n)]:
        fire()
    probed = perf_counter() - t0
    t0 = perf_counter()
    for fire in [noop for _ in range(n)]:
        fire()
    bare = perf_counter() - t0
    return max(0.0, probed - bare) / n * callbacks


def percentile(sorted_values: list, pct: float) -> float:
    """Nearest-rank percentile of an already sorted list (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(pct / 100.0 * (len(sorted_values) - 1)))))
    return sorted_values[rank]

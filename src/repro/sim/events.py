"""Priority-queue discrete-event loop.

All timing-sensitive behaviour in the reproduction (pacing, link
serialization, feedback, encoder completion) is expressed as events on a
single :class:`EventLoop`. Events fire in non-decreasing time order;
ties break by insertion order, which keeps runs deterministic.

Hot-path layout: the heap stores plain ``(time, seq, event)`` tuples so
heap sifting compares C-level floats/ints instead of calling a Python
``__lt__``; :class:`Event` is a slim ``__slots__`` handle that exists
only so callers can cancel a scheduled callback. Cancellation is a flag
checked at pop time — O(1), no heap surgery.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:
    from repro.obs.profiler import LoopProfiler


class SimulationError(RuntimeError):
    """Raised on invalid use of the event loop (e.g. scheduling in the past)."""


class Event:
    """Handle for a scheduled callback.

    Events are ordered by ``(time, seq)``; ``seq`` is a monotonically
    increasing insertion counter so that two events at the same time fire
    in the order they were scheduled.
    """

    __slots__ = ("time", "seq", "callback", "name", "cancelled")

    def __init__(self, time: float, seq: int,
                 callback: Callable[[], None], name: str = "") -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.name = name
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the loop skips it when popped."""
        self.cancelled = True

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:.6f}, seq={self.seq}, name={self.name!r}{state})"


class EventLoop:
    """Single-threaded deterministic discrete-event scheduler.

    Typical use::

        loop = EventLoop()
        loop.call_at(0.5, lambda: print("fired at t=0.5"))
        loop.run(until=1.0)

    ``now`` is a plain attribute (reading it is on the hot path); treat
    it as read-only outside this class.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        #: current simulation time in seconds (read-only for callers).
        self.now = start_time
        #: observability hook: called as ``on_event(event)`` after each
        #: executed callback (the seam :mod:`repro.audit.auditor` attaches to).
        #: ``None`` keeps the hot loop hook-free.
        self.on_event: Optional[Callable[[Event], None]] = None
        #: self-profiler (:class:`repro.obs.profiler.LoopProfiler`).
        #: ``None`` (the default) keeps dispatch on the unprofiled fast
        #: path — the check happens once per run()/drain(), not per event.
        self.profiler: Optional["LoopProfiler"] = None
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._processed = 0

    def set_profiler(self,
                     profiler: Optional["LoopProfiler"]) -> Optional["LoopProfiler"]:
        """Attach (or, with ``None``, detach) a self-profiler.

        Detaching restores the exact unprofiled dispatch path —
        ``scripts/check_perf.py`` gates that the off state costs nothing.
        Returns the attached profiler for chaining.
        """
        self.profiler = profiler
        return profiler

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._heap)

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def call_at(self, when: float, callback: Callable[[], None], name: str = "") -> Event:
        """Schedule ``callback`` at absolute time ``when``.

        Scheduling strictly in the past raises :class:`SimulationError`;
        scheduling exactly at ``now`` is allowed and fires after events
        already queued for ``now``.
        """
        if not when >= self.now:        # single check catches past *and* NaN
            if math.isnan(when):
                raise SimulationError("cannot schedule an event at NaN time")
            raise SimulationError(
                f"cannot schedule event {name!r} at {when:.9f} < now {self.now:.9f}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(when, seq, callback, name)
        heappush(self._heap, (when, seq, event))
        return event

    def call_later(self, delay: float, callback: Callable[[], None], name: str = "") -> Event:
        """Schedule ``callback`` after ``delay`` seconds (delay >= 0)."""
        if not delay >= 0:              # single check catches negative *and* NaN
            raise SimulationError(f"negative delay {delay} for event {name!r}")
        # call_at inlined (this is the hottest scheduling entry point);
        # now + delay with delay >= 0 can never be < now, so the
        # past-check is unnecessary here.
        when = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(when, seq, callback, name)
        heappush(self._heap, (when, seq, event))
        return event

    def step(self) -> bool:
        """Execute the next non-cancelled event. Returns False if none remain."""
        heap = self._heap
        profiler = self.profiler
        while heap:
            when, _seq, event = heappop(heap)
            if event.cancelled:
                continue
            self.now = when
            self._processed += 1
            if profiler is None:
                event.callback()
            else:
                t0 = perf_counter()
                event.callback()
                profiler.record(event.name, perf_counter() - t0)
            if self.on_event is not None:
                self.on_event(event)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` passes, or the budget hits.

        ``until`` is inclusive: events scheduled exactly at ``until`` fire.
        When the loop stops because of ``until``, the clock is advanced to
        ``until`` even if no event fired there. ``max_events`` counts
        *executed callbacks* only — popping a cancelled event never burns
        budget.
        """
        heap = self._heap
        hook = self.on_event
        profiler = self.profiler
        limit = math.inf if until is None else until
        budget = math.inf if max_events is None else max_events
        executed = 0
        stopped_on_budget = False
        try:
            if profiler is None:
                while heap:
                    if executed >= budget:
                        stopped_on_budget = True
                        break
                    entry = heappop(heap)
                    when = entry[0]
                    if when > limit:
                        # Past the horizon: put it back for the next run().
                        heappush(heap, entry)
                        break
                    event = entry[2]
                    if event.cancelled:
                        continue
                    self.now = when
                    executed += 1
                    event.callback()
                    if hook is not None:
                        hook(event)
            else:
                # Profiled twin of the loop above: identical dispatch
                # semantics, each callback bracketed by perf_counter().
                record = profiler.record
                while heap:
                    if executed >= budget:
                        stopped_on_budget = True
                        break
                    entry = heappop(heap)
                    when = entry[0]
                    if when > limit:
                        heappush(heap, entry)
                        break
                    event = entry[2]
                    if event.cancelled:
                        continue
                    self.now = when
                    executed += 1
                    t0 = perf_counter()
                    event.callback()
                    record(event.name, perf_counter() - t0)
                    if hook is not None:
                        hook(event)
        finally:
            self._processed += executed
        if stopped_on_budget:
            return
        if until is not None and until > self.now:
            self.now = until

    def drain(self, max_events: int = 10_000_000) -> None:
        """Run until the queue is empty, with a runaway guard."""
        heap = self._heap
        hook = self.on_event
        profiler = self.profiler
        executed = 0
        try:
            if profiler is None:
                while heap:
                    when, _seq, event = heappop(heap)
                    if event.cancelled:
                        continue
                    self.now = when
                    executed += 1
                    event.callback()
                    if hook is not None:
                        hook(event)
                    if executed > max_events:
                        raise SimulationError(
                            f"event budget of {max_events} exhausted")
            else:
                record = profiler.record
                while heap:
                    when, _seq, event = heappop(heap)
                    if event.cancelled:
                        continue
                    self.now = when
                    executed += 1
                    t0 = perf_counter()
                    event.callback()
                    record(event.name, perf_counter() - t0)
                    if hook is not None:
                        hook(event)
                    if executed > max_events:
                        raise SimulationError(
                            f"event budget of {max_events} exhausted")
        finally:
            self._processed += executed

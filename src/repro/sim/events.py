"""Priority-queue discrete-event loop.

All timing-sensitive behaviour in the reproduction (pacing, link
serialization, feedback, encoder completion) is expressed as events on a
single :class:`EventLoop`. Events fire in non-decreasing time order;
ties break by insertion order, which keeps runs deterministic.

Hot-path layout: the heap stores plain tuples so heap sifting compares
C-level floats/ints instead of calling a Python ``__lt__``. A
cancellable callback is ``(time, seq, event)``: :class:`Event` is a slim
``__slots__`` handle that exists only so callers can cancel — a flag
checked at pop time, O(1), no heap surgery. A fire-and-forget hop
(:meth:`EventLoop.post`) is ``(time, seq, None, fn, arg, name)``: no
handle, no closure, the same ``seq`` counter — one order over both.
"""

from __future__ import annotations

import math
from functools import partial
from heapq import heappop, heappush
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Optional

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
        #: ``None`` (the default) keeps dispatch on the bare body — the
        #: check happens once per run()/drain()/step(), not per event.
        self.profiler: Optional["LoopProfiler"] = None
        self._heap: list[tuple] = []
        self._seq = 0
        self._processed = 0
        #: name of the event whose callback (or hook) last raised out of
        #: a dispatch — a wall clock reports it and goes on.
        self.failed = ""

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

    def _reject(self, when: float, name: str) -> None:
        if math.isnan(when):
            raise SimulationError("cannot schedule an event at NaN time")
        raise SimulationError(
            f"cannot schedule event {name!r} at {when:.9f} < now {self.now:.9f}")

    def call_at(self, when: float, callback: Callable[[], None], name: str = "") -> Event:
        """Schedule ``callback`` at absolute time ``when``.

        Scheduling strictly in the past raises :class:`SimulationError`;
        scheduling exactly at ``now`` is allowed and fires after events
        already queued for ``now``.
        """
        if not when >= self.now:        # single check catches past *and* NaN
            self._reject(when, name)
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

    def post(self, when: float, fn: Callable[[Any], None], arg: Any, name: str = "") -> None:
        """Fire-and-forget ``fn(arg)`` at absolute time ``when``.

        The per-packet entry point: no :class:`Event`, no closure,
        nothing returned — so only for a hop that is **never cancelled**
        (a caller that may cancel uses :meth:`call_at`/:meth:`call_later`).
        Same past/NaN guard and ``seq`` counter as :meth:`call_at`; hooks
        and the profiler still see the hop (:meth:`_dispatch_observed`).
        ``WallClock.post`` is the same hop on a wall clock.
        """
        if not when >= self.now:
            self._reject(when, name)
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (when, seq, None, fn, arg, name))

    def next_time(self) -> float:
        """Time of the earliest uncancelled event (``inf`` when none)."""
        return self._heap[0][0] if self._live() else math.inf

    def next_event(self) -> Optional[Event]:
        """Handle of the earliest uncancelled event (``None`` when none
        is queued, or when it is a handle-free :meth:`post` hop)."""
        return self._heap[0][2] if self._live() else None

    def clear(self) -> None:
        """Drop every queued event (a wall clock's teardown)."""
        self._heap.clear()

    def _live(self) -> bool:
        """Discard cancelled heads; True when uncancelled work is queued."""
        heap = self._heap
        while heap and heap[0][2] is not None and heap[0][2].cancelled:
            heappop(heap)
        return bool(heap)

    def _dispatch(self, limit: float, budget: float) -> bool:
        """Run events up to time ``limit`` (inclusive) or ``budget`` callbacks.

        Popping a cancelled event never burns budget. Returns True when
        the budget ran out with live work still queued. The body is
        chosen here, once per run()/drain()/step(): below is the bare
        one, which checks for no observer per event.
        """
        if self.on_event is not None or self.profiler is not None:
            return self._dispatch_observed(limit, budget)
        heap = self._heap
        executed = 0
        try:
            while heap:
                if executed >= budget:
                    return self._live()
                entry = heappop(heap)
                when = entry[0]
                if when > limit:
                    # Past the horizon: put it back for the next run().
                    heappush(heap, entry)
                    break
                event = entry[2]
                if event is None:
                    self.now = when
                    executed += 1
                    entry[3](entry[4])
                elif not event.cancelled:
                    self.now = when
                    executed += 1
                    event.callback()
        except Exception:
            self.failed = entry[5] if event is None else event.name
            raise
        finally:
            self._processed += executed
        return False

    def _dispatch_observed(self, limit: float, budget: float) -> bool:
        """The other body: an ``on_event`` hook and/or a profiler attached.

        Identical dispatch semantics; a profiled callback is bracketed
        by ``perf_counter()``, and a handle-free hop is wrapped in an
        :class:`Event` with its name/time/seq, so observers see one kind
        of event and every executed callback.
        """
        heap = self._heap
        hook = self.on_event
        record = self.profiler.record if self.profiler is not None else None
        executed = 0
        try:
            while heap:
                if executed >= budget:
                    return self._live()
                entry = heappop(heap)
                when = entry[0]
                if when > limit:
                    heappush(heap, entry)
                    break
                event = entry[2]
                if event is None:
                    event = Event(when, entry[1], partial(entry[3], entry[4]),
                                  entry[5])
                elif event.cancelled:
                    continue
                self.now = when
                executed += 1
                if record is None:
                    event.callback()
                else:
                    t0 = perf_counter()
                    event.callback()
                    record(event.name, perf_counter() - t0)
                if hook is not None:
                    hook(event)
        except Exception:
            self.failed = event.name
            raise
        finally:
            self._processed += executed
        return False

    def step(self) -> bool:
        """Execute the next non-cancelled event. Returns False if none remain."""
        before = self._processed
        self._dispatch(math.inf, 1)
        return self._processed > before

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` passes, or the budget hits.

        ``until`` is inclusive: events scheduled exactly at ``until`` fire.
        When the loop stops because of ``until``, the clock is advanced to
        ``until`` even if no event fired there. ``max_events`` counts
        *executed callbacks* only — popping a cancelled event never burns
        budget.
        """
        stopped = self._dispatch(math.inf if until is None else until,
                                 math.inf if max_events is None else max_events)
        if not stopped and until is not None and until > self.now:
            self.now = until

    def drain(self, max_events: int = 10_000_000) -> None:
        """Run until the queue is empty, with a runaway guard.

        The bounded run that raises: exactly ``max_events`` callbacks
        execute, and :class:`SimulationError` is raised only if live
        work is still queued after them.
        """
        if self._dispatch(math.inf, max_events):
            raise SimulationError(f"event budget of {max_events} exhausted")

"""Clock abstraction: one scheduling interface for sim and wall time.

The whole RTC stack (sender, receiver, pacers, audio) schedules work
through ``now``, ``call_at`` and ``call_later`` and cancels it through
the returned handle. :class:`Clock` is exactly that surface, so the
same component code runs in the simulator
(:class:`~repro.sim.events.EventLoop` satisfies it natively) and against
real time on asyncio (:class:`WallClock`, for ``repro live``).

Contract (shared by every implementation, see ``tests/test_live_clock.py``):

* ``now`` is monotonically non-decreasing, in seconds, starting near 0.
* ``call_later(d, fn)`` fires ``fn`` no earlier than ``now + d``; equal
  deadlines fire in scheduling order.
* handles are :class:`~repro.sim.events.Event`: ``cancel()`` and a
  ``cancelled`` flag; a cancelled callback never fires.

The one intentional divergence: ``EventLoop.call_at`` raises on times in
the past (a sim bug), while :class:`WallClock.call_at` clamps them to
its last wake (on a wall clock the deadline may have passed while
Python was scheduling — that is jitter, not a bug).

A :class:`WallClock` keeps the ``EventLoop``'s heap of ``(when, seq,
event)`` tuples under one asyncio timer for the earliest entry, re-armed
when the head moves earlier and after each wake. A wake runs, in
``(when, seq)`` order, every entry due by the wall time, read again once
the next entry looks early, so an entry made due during the wake runs
in it. Nothing fires before its deadline.
"""

from __future__ import annotations

import asyncio
from heapq import heappop, heappush
from math import inf
from time import process_time
from typing import Any, Callable, Optional, Protocol, runtime_checkable

from repro.sim.events import Event


@runtime_checkable
class ScheduledCall(Protocol):
    """Handle for a scheduled callback (an :class:`Event` on both clocks)."""

    cancelled: Any  # bool attribute or property

    def cancel(self) -> None: ...


@runtime_checkable
class Clock(Protocol):
    """What a component needs to schedule itself; see module docstring."""

    now: Any  # float attribute (EventLoop) or property (WallClock)

    def call_at(self, when: float, callback: Callable[[], None],
                name: str = "") -> ScheduledCall: ...

    def call_later(self, delay: float, callback: Callable[[], None],
                   name: str = "") -> ScheduledCall: ...


class WallClock:
    """Real-time :class:`Clock` on the running asyncio event loop.

    ``now`` is seconds since construction on the loop's monotonic clock.
    Callbacks run at whatever wall time the OS grants (the jitter live
    mode exists to exercise); one that raises goes to the loop's
    exception handler. ``cpu_s`` is the CPU spent in this clock's wakes,
    and a session owns one clock, so the fleet's CPU splits per session.
    """

    __slots__ = ("_aloop", "_origin", "cpu_s", "_heap", "_seq", "_timer",
                 "_armed_at", "_floor")

    def __init__(self, aloop: Optional[asyncio.AbstractEventLoop] = None
                 ) -> None:
        if aloop is None:
            # Not get_event_loop(): off-loop it hands back a loop that
            # never runs, so timers would never fire. Demand one, loudly.
            try:
                aloop = asyncio.get_running_loop()
            except RuntimeError:
                raise RuntimeError(
                    "WallClock needs a running asyncio event loop: construct"
                    " it in a coroutine or pass WallClock(aloop=...)") from None
        self._aloop = aloop
        self._origin = aloop.time()
        self.cpu_s = 0.0
        self._heap: list = []
        self._seq = 0
        #: the one asyncio timer and its deadline (-inf during a wake,
        #: which re-arms at its end); passed deadlines clamp to _floor.
        self._timer: Optional[asyncio.TimerHandle] = None
        self._armed_at = inf
        self._floor = 0.0           # the last wake's time

    @property
    def now(self) -> float:
        return self._aloop.time() - self._origin

    def call_at(self, when: float, callback: Callable[[], None],
                name: str = "") -> Event:
        return self._push(when if when > self._floor else self._floor,
                          callback, name)

    def call_later(self, delay: float, callback: Callable[[], None],
                   name: str = "") -> Event:
        # Not routed through call_at: wrappers of call_at (the lateness
        # probe, the tracer) would then see each callback twice.
        return self._push(self.now + (delay if delay > 0 else 0.0),
                          callback, name)

    def _push(self, when: float, callback: Callable, name: str) -> Event:
        seq = self._seq
        self._seq = seq + 1
        event = Event(when, seq, callback, name)
        heappush(self._heap, (when, seq, event))
        if when < self._armed_at:
            self._arm(when)
        return event

    def _arm(self, when: float) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self._aloop.call_at(self._origin + when, self._wake)
        self._armed_at = when

    def _wake(self) -> None:
        self._timer = None
        self._armed_at = -inf
        heap = self._heap
        aloop = self._aloop
        t0 = process_time()
        try:
            floor = self._floor = aloop.time() - self._origin
            while heap:
                when, _, event = heap[0]
                if when > floor:
                    floor = self._floor = aloop.time() - self._origin
                    if when > floor:
                        break
                heappop(heap)
                if event.cancelled:
                    continue
                try:
                    event.callback()
                except Exception as exc:
                    aloop.call_exception_handler({
                        "message": f"Exception in callback {event!r}",
                        "exception": exc, "handle": event})
        finally:
            self.cpu_s += process_time() - t0
            while heap and heap[0][2].cancelled:
                heappop(heap)
            self._armed_at = inf
            if heap:
                self._arm(heap[0][0])

    def close(self) -> None:
        """Drop every entry and the timer (session teardown)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._heap.clear()
        self._armed_at = inf

    async def sleep(self, delay: float) -> None:
        """Driver-side wait (components use call_later, never this) on
        the clock's own loop: awaited from another loop, it fails
        loudly rather than sleep against an unrelated timebase."""
        waiter = self._aloop.create_future()
        handle = self._aloop.call_later(
            delay if delay > 0 else 0.0, self._resolve, waiter)
        try:
            await waiter
        finally:
            handle.cancel()

    @staticmethod
    def _resolve(waiter: "asyncio.Future") -> None:
        if not waiter.done():
            waiter.set_result(None)

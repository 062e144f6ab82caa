"""Clock abstraction: one scheduling interface for sim and wall time.

The whole RTC stack (sender, receiver, pacers, audio) schedules work
through ``now``, ``call_at`` and ``call_later`` and cancels it through
the returned handle; the network path moves each packet with ``post``,
a hop that is never cancelled and returns no handle. :class:`Clock` is
exactly that surface, so the same component code runs in the simulator
(:class:`~repro.sim.events.EventLoop` satisfies it natively) and against
real time on asyncio (:class:`WallClock`, for ``repro live``).

Contract (shared by every implementation, see ``tests/test_live_clock.py``):

* ``now`` is monotonically non-decreasing, in seconds, starting near 0.
* ``call_later(d, fn)`` fires ``fn`` no earlier than ``now + d``; equal
  deadlines fire in scheduling order.
* handles are :class:`~repro.sim.events.Event`: ``cancel()`` and a
  ``cancelled`` flag; a cancelled callback never fires.

The one intentional divergence: ``EventLoop.call_at``/``post`` raise on
times in the past (a sim bug), while :class:`WallClock` clamps them to
its last wake (on a wall clock the deadline may have passed while
Python was scheduling — that is jitter, not a bug).

A :class:`WallClock` drives an :class:`~repro.sim.events.EventLoop` of
its own (``clock.loop``): its entries are that loop's events, under one
asyncio timer for the loop's earliest event, re-armed when the head
moves earlier and after each wake. A wake runs the loop up to the wall
time, read again while the next event looks due, so an entry made due
during the wake runs in it. Nothing fires before its deadline, and the
loop's hooks (``on_event``, the profiler) see a live run as they see a
simulated one.
"""

from __future__ import annotations

import asyncio
from math import inf
from time import process_time
from typing import Any, Callable, Optional, Protocol, runtime_checkable

from repro.sim.events import Event, EventLoop


@runtime_checkable
class Clock(Protocol):
    """What a component needs to schedule itself; see module docstring."""

    now: Any  # float attribute (EventLoop) or property (WallClock)

    def call_at(self, when: float, callback: Callable[[], None],
                name: str = "") -> Event: ...

    def call_later(self, delay: float, callback: Callable[[], None],
                   name: str = "") -> Event: ...

    def post(self, when: float, fn: Callable[[Any], None], arg: Any,
             name: str = "") -> None: ...


class WallClock:
    """Real-time :class:`Clock` on the running asyncio event loop.

    ``now`` is seconds since construction on the loop's monotonic clock.
    Callbacks run at whatever wall time the OS grants (the jitter live
    mode exists to exercise); one that raises goes to the loop's
    exception handler. ``cpu_s`` is the CPU spent in this clock's wakes,
    and a session owns one clock, so the fleet's CPU splits per session.
    """

    __slots__ = ("_aloop", "_origin", "cpu_s", "loop", "_timer",
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
        #: the scheduler; its ``now`` is the last wake's (or event's) time.
        self.loop = EventLoop()
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
        if not when > self._floor:      # passed (or NaN): the last wake
            when = self._floor
        event = self.loop.call_at(when, callback, name)
        if when < self._armed_at:
            self._arm(when)
        return event

    def call_later(self, delay: float, callback: Callable[[], None],
                   name: str = "") -> Event:
        # Not routed through call_at: wrappers of call_at (the lateness
        # probe, the tracer) would then see each callback twice.
        when = self._aloop.time() - self._origin
        if delay > 0:
            when += delay
        event = self.loop.call_at(when, callback, name)
        if when < self._armed_at:
            self._arm(when)
        return event

    def post(self, when: float, fn: Callable[[Any], None], arg: Any,
             name: str = "") -> None:
        # A hop posted outside a wake (from a socket read) arms the timer
        # like call_at; not routed through call_at, which wrappers of it
        # (the lateness probe, the tracer) would then count.
        if not when > self._floor:
            when = self._floor
        self.loop.post(when, fn, arg, name)
        if when < self._armed_at:
            self._arm(when)

    def _arm(self, when: float) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self._aloop.call_at(self._origin + when, self._wake)
        self._armed_at = when

    def _wake(self) -> None:
        self._timer = None
        self._armed_at = -inf
        loop = self.loop
        aloop = self._aloop
        t0 = process_time()
        try:
            floor = self._floor = aloop.time() - self._origin
            while True:
                try:
                    loop.run(floor)
                except Exception as exc:
                    aloop.call_exception_handler({
                        "message": f"Exception in callback {loop.failed!r}",
                        "exception": exc})
                    continue
                head = loop.next_time()
                if head > floor:
                    floor = self._floor = aloop.time() - self._origin
                    if head > floor:
                        break
        finally:
            self.cpu_s += process_time() - t0
            self._armed_at = inf
        if head < inf:
            self._arm(head)

    def close(self) -> None:
        """Drop every entry and the timer (session teardown)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self.loop.clear()
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

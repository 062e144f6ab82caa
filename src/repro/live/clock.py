"""Clock abstraction: one scheduling interface for sim and wall time.

The whole RTC stack (sender, receiver, pacers, audio) schedules work
through three operations — read ``now``, ``call_at``, ``call_later`` —
and cancels pending work through the returned handle. :class:`Clock`
captures exactly that surface, so the same component code runs

* inside the discrete-event simulator (:class:`~repro.sim.events.EventLoop`
  satisfies the protocol natively: the loop is the sim clock), and
* against real time on asyncio (:class:`WallClock`), where ``repro live``
  drives the stack over actual UDP sockets.

Contract (shared by every implementation, see ``tests/test_live_clock.py``):

* ``now`` is monotonically non-decreasing, in seconds, starting near 0.
* ``call_later(d, fn)`` fires ``fn`` no earlier than ``now + d``; equal
  deadlines fire in scheduling order on the sim clock (wall clocks make
  no ordering promise beyond asyncio's).
* handles expose ``cancel()`` and a ``cancelled`` attribute/property; a
  cancelled callback never fires.

The one intentional divergence: ``EventLoop.call_at`` raises on times in
the past (a sim bug), while :class:`WallClock.call_at` clamps them to
"now" (on a wall clock the deadline may have passed while Python was
scheduling — that is jitter, not a bug).
"""

from __future__ import annotations

import asyncio
from time import process_time
from typing import Any, Callable, Optional, Protocol, runtime_checkable


@runtime_checkable
class ScheduledCall(Protocol):
    """Handle for a scheduled callback (sim ``Event`` or wall timer)."""

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


class WallTimer:
    """Cancellable handle over an :class:`asyncio.TimerHandle`.

    Mirrors the sim :class:`~repro.sim.events.Event` surface the stack
    relies on (``cancel()`` + ``cancelled``) plus ``time``/``name`` for
    debugging.
    """

    __slots__ = ("time", "name", "_handle")

    def __init__(self, time: float, name: str,
                 handle: asyncio.TimerHandle) -> None:
        self.time = time
        self.name = name
        self._handle = handle

    def cancel(self) -> None:
        self._handle.cancel()

    @property
    def cancelled(self) -> bool:
        return self._handle.cancelled()

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"WallTimer(t={self.time:.6f}, name={self.name!r}{state})"


class WallClock:
    """Real-time :class:`Clock` on the running asyncio event loop.

    ``now`` is seconds since construction, measured on the asyncio
    loop's monotonic clock — using the *same* timebase asyncio schedules
    timers on keeps ``call_at(now + d)`` and ``call_later(d)`` perfectly
    consistent. Callbacks run on the asyncio loop (single-threaded, like
    the simulator), but at whatever wall time the OS scheduler grants —
    the scheduling jitter live mode exists to exercise.
    """

    __slots__ = ("_aloop", "_origin", "cpu_s", "callbacks", "_account")

    def __init__(self, aloop: Optional[asyncio.AbstractEventLoop] = None,
                 cpu_accounting: bool = False) -> None:
        if aloop is None:
            # get_event_loop() is deprecated off-loop since 3.10 and
            # would silently hand back the wrong loop (or a fresh,
            # never-run one) when constructed outside a coroutine —
            # timers scheduled on it would simply never fire. Demand a
            # running loop, loudly.
            try:
                aloop = asyncio.get_running_loop()
            except RuntimeError:
                raise RuntimeError(
                    "WallClock needs a running asyncio event loop: "
                    "construct it inside a coroutine (e.g. under "
                    "asyncio.run), or pass the target loop explicitly "
                    "as WallClock(aloop=...)") from None
        self._aloop = aloop
        self._origin = self._aloop.time()
        #: accumulated CPU seconds spent inside callbacks scheduled
        #: through this clock (only when ``cpu_accounting=True``).
        self.cpu_s = 0.0
        #: callbacks dispatched under accounting.
        self.callbacks = 0
        self._account = cpu_accounting

    @property
    def now(self) -> float:
        return self._aloop.time() - self._origin

    def _timed(self, callback: Callable[[], None]) -> Callable[[], None]:
        """Wrap a callback with ``process_time`` delta attribution.

        Every piece of session work in live mode — pacer pump, capture
        tick, feedback tick, telemetry tick — runs as a callback
        scheduled through the session's own WallClock, and each session
        owns exactly one clock. Summing process-CPU deltas at callback
        boundaries therefore attributes CPU *per session* even though
        the whole fleet shares one asyncio loop and one process; the
        loop is single-threaded, so deltas never interleave.
        """
        def timed() -> None:
            t0 = process_time()
            try:
                callback()
            finally:
                self.cpu_s += process_time() - t0
                self.callbacks += 1

        return timed

    def call_at(self, when: float, callback: Callable[[], None],
                name: str = "") -> WallTimer:
        # Deadlines in the past fire as soon as possible (see module
        # docstring); asyncio's call_at already behaves that way.
        if self._account:
            callback = self._timed(callback)
        handle = self._aloop.call_at(self._origin + when, callback)
        return WallTimer(when, name, handle)

    def call_later(self, delay: float, callback: Callable[[], None],
                   name: str = "") -> WallTimer:
        if delay < 0:
            delay = 0.0
        when = self.now + delay
        if self._account:
            callback = self._timed(callback)
        handle = self._aloop.call_later(delay, callback)
        return WallTimer(when, name, handle)

    async def sleep(self, delay: float) -> None:
        """Driver-side wait (components use call_later, never this).

        Waits on ``self._aloop``'s timebase — the loop the clock's
        timers run on — not whichever loop happens to be running. If
        the awaiting coroutine runs on a different loop than the clock,
        awaiting the foreign-loop future fails loudly instead of
        silently sleeping against an unrelated timebase.
        """
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

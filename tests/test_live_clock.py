"""Contract tests for the Clock abstraction (sim + wall implementations).

Every Clock implementation must present the same scheduling surface —
``now``, ``call_at``, ``call_later``, cancellable handles — with the
ordering/monotonicity guarantees documented in ``repro.live.clock``.
The sim implementations are tested deterministically; the WallClock
tests use generous real-time tolerances so they stay stable on loaded
CI machines.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.live.clock import Clock, WallClock
from repro.sim.events import Event, EventLoop, SimulationError


# ---------------------------------------------------------------------------
# protocol conformance
# ---------------------------------------------------------------------------
def test_event_loop_satisfies_clock_protocol():
    # The whole refactor rests on this: an EventLoop can be passed
    # anywhere a Clock is expected, with zero adaptation cost.
    assert isinstance(EventLoop(), Clock)


def test_wall_clock_satisfies_clock_protocol():
    async def check():
        assert isinstance(WallClock(asyncio.get_running_loop()), Clock)

    asyncio.run(check())


# ---------------------------------------------------------------------------
# sim clock semantics (the EventLoop is the sim clock)
# ---------------------------------------------------------------------------
def test_sim_clock_equivalent_to_direct_loop_scheduling():
    """The loop's own event objects are the clock's handles."""
    clock = EventLoop()
    fired = []
    handle = clock.call_later(0.5, lambda: fired.append(clock.now))
    assert isinstance(handle, Event)
    clock.call_at(0.25, lambda: fired.append(clock.now))
    clock.run(until=1.0)
    assert fired == [0.25, 0.5]
    assert clock.now == 1.0


def test_sim_clock_cancellation():
    clock = EventLoop()
    fired = []
    handle = clock.call_later(0.1, lambda: fired.append("a"))
    clock.call_later(0.2, lambda: fired.append("b"))
    handle.cancel()
    assert handle.cancelled
    clock.run(until=1.0)
    assert fired == ["b"]


def test_sim_clock_equal_deadlines_fire_in_scheduling_order():
    clock = EventLoop()
    fired = []
    for tag in range(5):
        clock.call_at(0.5, lambda t=tag: fired.append(t))
    clock.run(until=1.0)
    assert fired == [0, 1, 2, 3, 4]


# ---------------------------------------------------------------------------
# wall clock semantics
# ---------------------------------------------------------------------------
def run_wall(coro_fn):
    return asyncio.run(coro_fn())


def test_wall_clock_now_starts_near_zero_and_advances():
    async def check():
        clock = WallClock(asyncio.get_running_loop())
        t0 = clock.now
        assert 0.0 <= t0 < 0.1
        await clock.sleep(0.05)
        t1 = clock.now
        assert t1 >= t0 + 0.045  # asyncio never wakes early

    run_wall(check)


def test_wall_clock_call_later_fires_no_earlier_than_deadline():
    async def check():
        clock = WallClock(asyncio.get_running_loop())
        fired = []
        clock.call_later(0.05, lambda: fired.append(clock.now))
        scheduled_at = clock.now
        await clock.sleep(0.3)
        assert len(fired) == 1
        assert fired[0] >= scheduled_at + 0.045

    run_wall(check)


def test_wall_clock_call_at_consistent_with_now():
    async def check():
        clock = WallClock(asyncio.get_running_loop())
        fired = []
        deadline = clock.now + 0.05
        clock.call_at(deadline, lambda: fired.append(clock.now))
        await clock.sleep(0.3)
        assert len(fired) == 1
        assert fired[0] >= deadline - 1e-9

    run_wall(check)


def test_wall_clock_clamps_past_deadlines():
    """Divergence from EventLoop.call_at (which raises): wall clocks
    treat a passed deadline as jitter and fire as soon as possible."""

    async def check():
        clock = WallClock(asyncio.get_running_loop())
        fired = []
        clock.call_at(clock.now - 1.0, lambda: fired.append(True))
        clock.call_later(-1.0, lambda: fired.append(True))
        await clock.sleep(0.1)
        assert fired == [True, True]

    run_wall(check)


def test_wall_clock_cancellation():
    async def check():
        clock = WallClock(asyncio.get_running_loop())
        fired = []
        handle = clock.call_later(0.05, lambda: fired.append("a"))
        keep = clock.call_later(0.05, lambda: fired.append("b"))
        assert not handle.cancelled
        handle.cancel()
        assert handle.cancelled
        assert not keep.cancelled
        await clock.sleep(0.2)
        assert fired == ["b"]

    run_wall(check)


def test_wall_timer_repr_carries_name():
    async def check():
        clock = WallClock(asyncio.get_running_loop())
        handle = clock.call_later(1.0, lambda: None, "pacer.pump")
        text = repr(handle)
        handle.cancel()
        assert "pacer.pump" in text

    run_wall(check)


# ---------------------------------------------------------------------------
# wall clock loop acquisition (regression: the old implicit fallback
# went through deprecated asyncio.get_event_loop())
# ---------------------------------------------------------------------------
def test_wall_clock_default_loop_inside_coroutine():
    """WallClock() with no explicit loop binds the *running* loop."""

    async def check():
        clock = WallClock()
        fired = []
        clock.call_later(0.02, lambda: fired.append(clock.now))
        await clock.sleep(0.1)
        assert fired and fired[0] >= 0.015

    asyncio.run(check())


def test_wall_clock_off_loop_construction_raises_clearly():
    """Constructing a WallClock outside a running loop must fail with an
    actionable message, not fall back to a deprecated implicit loop."""
    with pytest.raises(RuntimeError, match="running asyncio event loop"):
        WallClock()


def test_wall_clock_sleep_uses_own_loop_timebase():
    """sleep() must schedule on the clock's bound loop, not whatever
    loop asyncio considers current at call time."""

    async def check():
        aloop = asyncio.get_running_loop()
        clock = WallClock(aloop)
        before = clock.now
        await clock.sleep(0.05)
        assert clock.now - before >= 0.045
        # Zero/negative delays complete promptly instead of hanging.
        await asyncio.wait_for(clock.sleep(0.0), timeout=1.0)
        await asyncio.wait_for(clock.sleep(-1.0), timeout=1.0)

    asyncio.run(check())


# ---------------------------------------------------------------------------
# sim clock call_at rejects the past (documented divergence)
# ---------------------------------------------------------------------------
def test_sim_clock_call_at_raises_on_past():
    clock = EventLoop()
    clock.call_later(1.0, lambda: None)
    clock.run(until=1.0)
    with pytest.raises(SimulationError):
        clock.call_at(0.5, lambda: None)


# ---------------------------------------------------------------------------
# one asyncio timer per wall clock
# ---------------------------------------------------------------------------
def test_wall_clock_equal_deadlines_fire_in_scheduling_order():
    async def check():
        clock = WallClock(asyncio.get_running_loop())
        fired = []
        deadline = clock.now + 0.02
        for tag in range(5):
            clock.call_at(deadline, lambda t=tag: fired.append(t))
        await clock.sleep(0.1)
        assert fired == [0, 1, 2, 3, 4]

    run_wall(check)


def test_wall_clock_entry_made_due_during_a_wake_runs_in_it(monkeypatch):
    """An entry scheduled for <= now by a callback runs in the same
    wake, after the entries that were already due."""
    wakes = []
    wake = WallClock._wake

    def counting_wake(clock):
        wakes.append(clock.now)
        wake(clock)

    monkeypatch.setattr(WallClock, "_wake", counting_wake)

    async def check():
        clock = WallClock(asyncio.get_running_loop())
        fired = []

        def first():
            fired.append("first")
            clock.call_at(clock.now - 1.0, lambda: fired.append("past"))
            clock.call_later(0.0, lambda: fired.append("now"))

        deadline = clock.now + 0.02
        clock.call_at(deadline, first)
        clock.call_at(deadline, lambda: fired.append("second"))
        await clock.sleep(0.1)
        assert fired == ["first", "second", "past", "now"]
        assert len(wakes) == 1

    run_wall(check)


def test_wall_clock_cancelled_head_rearms_for_the_next_live_entry(
        monkeypatch):
    armed = []
    arm = WallClock._arm

    def spying_arm(clock, when):
        armed.append(when)
        arm(clock, when)

    monkeypatch.setattr(WallClock, "_arm", spying_arm)

    async def check():
        clock = WallClock(asyncio.get_running_loop())
        fired = []
        head = clock.call_at(0.02, lambda: fired.append("head"))
        later = clock.call_at(0.06, lambda: fired.append("later"))
        assert armed == [0.02]          # a later entry does not re-arm
        head.cancel()
        await clock.sleep(0.04)
        # The wake at the cancelled head ran nothing and re-armed.
        assert fired == [] and armed == [0.02, 0.06]
        later.cancel()
        await clock.sleep(0.05)
        assert fired == [] and armed == [0.02, 0.06]
        assert clock._timer is None     # nothing left armed

    run_wall(check)


def test_wall_clock_callback_error_reaches_handler_and_wake_goes_on():
    async def check():
        aloop = asyncio.get_running_loop()
        errors = []
        aloop.set_exception_handler(lambda _loop, ctx: errors.append(ctx))
        clock = WallClock(aloop)
        fired = []

        def boom():
            raise ValueError("bad callback")

        deadline = clock.now + 0.02
        clock.call_at(deadline, boom, "boom")
        clock.call_at(deadline, lambda: fired.append("neighbour"))
        await clock.sleep(0.1)
        assert fired == ["neighbour"]
        assert len(errors) == 1
        assert isinstance(errors[0]["exception"], ValueError)
        assert "boom" in errors[0]["message"]

    run_wall(check)


# ---------------------------------------------------------------------------
# post: the handle-free hop the network path sends each packet with
# ---------------------------------------------------------------------------
def test_wall_clock_post_arms_when_earlier_than_the_armed_deadline(
        monkeypatch):
    """A hop posted outside a wake (a socket read) arms the one timer
    when it is the new head, and only then."""
    armed = []
    arm = WallClock._arm

    def spying_arm(clock, when):
        armed.append(when)
        arm(clock, when)

    monkeypatch.setattr(WallClock, "_arm", spying_arm)

    async def check():
        clock = WallClock(asyncio.get_running_loop())
        fired = []
        clock.call_at(0.06, lambda: fired.append("entry"))
        clock.post(0.02, fired.append, "hop", "path.to-receiver")
        clock.post(0.04, fired.append, "later hop", "path.feedback")
        assert armed == [0.06, 0.02]
        assert clock.loop.pending == 3
        await clock.sleep(0.1)
        assert fired == ["hop", "later hop", "entry"]

    run_wall(check)


def test_wall_clock_post_clamps_a_passed_deadline_to_the_last_wake():
    """As ``call_at``: a passed (or NaN) deadline runs at the last wake's
    time, which the loop accepts, instead of raising."""

    async def check():
        clock = WallClock(asyncio.get_running_loop())
        fired = []

        def first():
            floor = clock._floor
            clock.post(floor - 1.0, lambda when: fired.append(
                (when, clock.loop.now)), floor, "path.feedback")
            clock.post(float("nan"), fired.append, "nan", "path.feedback")

        clock.call_at(0.02, first)
        await clock.sleep(0.1)
        (when, ran_at), nan = fired
        assert ran_at == when and nan == "nan"

    run_wall(check)


def test_wall_clock_post_fires_in_time_then_scheduling_order_with_call_at():
    """Hops and cancellable entries share the loop's ``(when, seq)``
    order: equal deadlines fire in the order they were scheduled."""

    async def check():
        clock = WallClock(asyncio.get_running_loop())
        fired = []
        deadline = clock.now + 0.02
        clock.post(deadline, fired.append, "hop 1")
        clock.call_at(deadline, lambda: fired.append("entry"))
        clock.post(deadline, fired.append, "hop 2")
        clock.post(deadline - 0.01, fired.append, "earlier hop")
        await clock.sleep(0.1)
        assert fired == ["earlier hop", "hop 1", "entry", "hop 2"]

    run_wall(check)

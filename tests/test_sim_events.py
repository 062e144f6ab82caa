"""Tests for the discrete-event loop."""

import math

import pytest

from repro.sim.events import EventLoop, SimulationError


def test_events_fire_in_time_order():
    loop = EventLoop()
    order = []
    loop.call_at(0.3, lambda: order.append("c"))
    loop.call_at(0.1, lambda: order.append("a"))
    loop.call_at(0.2, lambda: order.append("b"))
    loop.drain()
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    loop = EventLoop()
    order = []
    for tag in "abc":
        loop.call_at(1.0, lambda t=tag: order.append(t))
    loop.drain()
    assert order == ["a", "b", "c"]


def test_clock_advances_to_event_time():
    loop = EventLoop()
    seen = []
    loop.call_at(2.5, lambda: seen.append(loop.now))
    loop.drain()
    assert seen == [2.5]
    assert loop.now == 2.5


def test_call_later_is_relative():
    loop = EventLoop()
    times = []
    loop.call_later(1.0, lambda: loop.call_later(0.5, lambda: times.append(loop.now)))
    loop.drain()
    assert times == [pytest.approx(1.5)]


def test_scheduling_in_past_raises():
    loop = EventLoop()
    loop.call_at(1.0, lambda: None)
    loop.drain()
    with pytest.raises(SimulationError):
        loop.call_at(0.5, lambda: None)


def test_negative_delay_raises():
    loop = EventLoop()
    with pytest.raises(SimulationError):
        loop.call_later(-0.1, lambda: None)


def test_nan_time_raises():
    loop = EventLoop()
    with pytest.raises(SimulationError):
        loop.call_at(float("nan"), lambda: None)


def test_cancelled_events_are_skipped():
    loop = EventLoop()
    fired = []
    event = loop.call_at(1.0, lambda: fired.append("cancelled"))
    loop.call_at(2.0, lambda: fired.append("kept"))
    event.cancel()
    loop.drain()
    assert fired == ["kept"]


def test_run_until_is_inclusive_and_advances_clock():
    loop = EventLoop()
    fired = []
    loop.call_at(1.0, lambda: fired.append(1.0))
    loop.call_at(2.0, lambda: fired.append(2.0))
    loop.run(until=1.0)
    assert fired == [1.0]
    loop.run(until=1.5)
    assert loop.now == 1.5          # clock advanced despite no event
    assert loop.next_time() == 2.0  # the 2.0 event still queued
    loop.run(until=2.0)
    assert fired == [1.0, 2.0]


def test_run_max_events_budget():
    loop = EventLoop()
    count = []

    def reschedule():
        count.append(1)
        loop.call_later(0.001, reschedule)

    loop.call_later(0.0, reschedule)
    loop.run(max_events=10)
    assert len(count) == 10


def test_max_events_counts_executed_callbacks_only():
    """Regression: cancelled events skipped off the heap must not eat
    the ``max_events`` budget — only callbacks that run count."""
    loop = EventLoop()
    fired = []
    stale = [loop.call_at(0.001 * i, lambda: fired.append("stale"))
             for i in range(5)]
    for event in stale:
        event.cancel()
    for i in range(3):
        loop.call_at(1.0 + i, lambda i=i: fired.append(i))
    loop.run(max_events=3)
    assert fired == [0, 1, 2]


def test_events_scheduled_at_now_fire_after_current():
    loop = EventLoop()
    order = []

    def first():
        order.append("first")
        loop.call_at(loop.now, lambda: order.append("second"))

    loop.call_at(1.0, first)
    loop.drain()
    assert order == ["first", "second"]


def test_drain_guard_raises_on_runaway():
    loop = EventLoop()

    def forever():
        loop.call_later(0.001, forever)

    loop.call_later(0.0, forever)
    with pytest.raises(SimulationError):
        loop.drain(max_events=100)


def test_processed_counter():
    loop = EventLoop()
    for i in range(5):
        loop.call_at(float(i), lambda: None)
    loop.drain()
    assert loop.processed == 5


# ----------------------------------------------------------------------
# drain(max_events=N): the budget is exact, and raising means work is left
# ----------------------------------------------------------------------
def _queue_ticks(loop, n):
    fired = []
    for i in range(n):
        loop.call_at(float(i), lambda i=i: fired.append(i))
    return fired


def test_drain_budget_of_n_runs_n_queued_events_without_raising():
    loop = EventLoop()
    fired = _queue_ticks(loop, 3)
    loop.drain(max_events=3)
    assert fired == [0, 1, 2]
    assert loop.next_time() == math.inf and loop.processed == 3


def test_drain_budget_stops_before_event_n_plus_one_and_raises():
    """Regression: the check ran after the callback, so four events with
    ``max_events=3`` all executed and *then* raised on an empty queue."""
    loop = EventLoop()
    fired = _queue_ticks(loop, 4)
    with pytest.raises(SimulationError, match="budget of 3 exhausted"):
        loop.drain(max_events=3)
    assert fired == [0, 1, 2]               # exactly N, like run(max_events=N)
    assert loop.next_time() == 3.0 and loop.processed == 3 \
        and loop.now == 2.0
    loop.drain()
    assert fired == [0, 1, 2, 3]


def test_drain_budget_ignores_a_trailing_cancelled_event():
    loop = EventLoop()
    fired = _queue_ticks(loop, 3)
    loop.call_at(9.0, lambda: fired.append("stale")).cancel()
    loop.call_at(0.5, lambda: fired.append("stale")).cancel()
    loop.drain(max_events=3)        # cancelled pops never burn budget
    assert fired == [0, 1, 2]
    assert loop.next_time() == math.inf


def test_run_budget_with_only_cancelled_work_left_reaches_until():
    loop = EventLoop()
    fired = _queue_ticks(loop, 2)
    loop.call_at(1.5, lambda: fired.append("stale")).cancel()
    loop.run(until=5.0, max_events=2)
    assert fired == [0, 1] and loop.now == 5.0


# ----------------------------------------------------------------------
# post(): handle-free hops share the (time, seq) order and the guards
# ----------------------------------------------------------------------
def test_post_interleaves_with_call_at_in_insertion_order():
    loop = EventLoop()
    order = []
    loop.call_at(1.0, lambda: order.append("a"))
    loop.post(1.0, order.append, "b")
    loop.call_at(1.0, lambda: order.append("c"))
    loop.post(0.5, order.append, "first")
    assert loop.post(2.0, order.append, "last") is None     # no handle
    loop.run(until=1.0)
    assert order == ["first", "a", "b", "c"]
    assert loop.next_time() == 2.0 and loop.processed == 4
    assert loop.step() and not loop.step()
    assert order[-1] == "last" and loop.now == 2.0


def test_post_guards_past_and_nan_like_call_at():
    loop = EventLoop()
    loop.run(until=1.0)
    with pytest.raises(SimulationError, match="at 0.5"):
        loop.post(0.5, print, None, "late.hop")
    with pytest.raises(SimulationError, match="NaN"):
        loop.post(float("nan"), print, None)
    assert loop.next_time() == math.inf
    loop.post(1.0, lambda _: None, None)        # exactly now is allowed
    loop.drain()
    assert loop.processed == 1


def test_on_event_hook_sees_posted_hops_as_events():
    loop = EventLoop()
    seen = []
    loop.on_event = lambda e: seen.append((e.name, e.time, e.seq, loop.now))
    loop.call_at(0.25, lambda: None, name="timer")
    got = []
    loop.post(0.5, got.append, "payload", "hop.one")
    loop.post(0.5, got.append, "again", "hop.two")
    loop.drain()
    assert got == ["payload", "again"]
    assert seen == [("timer", 0.25, 0, 0.25), ("hop.one", 0.5, 1, 0.5),
                    ("hop.two", 0.5, 2, 0.5)]

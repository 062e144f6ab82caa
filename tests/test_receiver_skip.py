"""Tests for the receiver's playout skip deadline."""

import math

import pytest

from repro.net.packet import Packet
from repro.sim.events import EventLoop
from repro.transport.receiver import TransportReceiver


def make_receiver(loop, skip_timeout=0.5):
    """A receiver and the list its display callback appends to."""
    displayed = []
    receiver = TransportReceiver(
        loop,
        send_feedback_fn=lambda m: None,
        display_fn=displayed.append,
        decode_time_fn=lambda: 0.002,
    )
    receiver.SKIP_TIMEOUT = skip_timeout
    return receiver, displayed


def deliver(receiver, loop, frame_id, count=1, seq0=0):
    for i in range(count):
        p = Packet(size_bytes=1200, seq=seq0 + i, frame_id=frame_id,
                   frame_packet_index=i, frame_packet_count=count)
        p.t_leave_pacer = loop.now - 0.02
        p.t_arrival = loop.now
        receiver.on_packet(p)


def test_hole_skipped_after_deadline():
    loop = EventLoop()
    rx, displayed = make_receiver(loop, skip_timeout=0.5)
    # frame 0 never arrives; frame 1 is complete and stuck behind it
    loop.call_at(0.1, lambda: deliver(rx, loop, frame_id=1, seq0=10))
    loop.run(until=0.3)
    assert displayed == []
    loop.run(until=1.0)
    assert [r.frame_id for r in displayed] == [1]
    assert rx.skipped_frames == 1


def test_no_skip_when_nothing_newer_waits():
    """An idle receiver (no newer complete frame) never skips."""
    loop = EventLoop()
    rx, _ = make_receiver(loop, skip_timeout=0.2)
    loop.run(until=2.0)
    assert rx.skipped_frames == 0
    assert loop.next_time() == math.inf  # no skip timer armed


def test_late_completion_cancels_skip():
    """If the missing frame completes before the deadline, it displays."""
    loop = EventLoop()
    rx, displayed = make_receiver(loop, skip_timeout=0.5)
    loop.call_at(0.1, lambda: deliver(rx, loop, frame_id=1, seq0=10))
    loop.call_at(0.3, lambda: deliver(rx, loop, frame_id=0, seq0=0))
    loop.run(until=1.5)
    assert [r.frame_id for r in displayed] == [0, 1]
    assert rx.skipped_frames == 0


def test_consecutive_holes_each_wait_their_turn():
    loop = EventLoop()
    rx, displayed = make_receiver(loop, skip_timeout=0.3)
    # frames 0 and 1 lost; frame 2 complete
    loop.call_at(0.1, lambda: deliver(rx, loop, frame_id=2, seq0=20))
    loop.run(until=2.0)
    assert [r.frame_id for r in displayed] == [2]
    assert rx.skipped_frames == 2


def test_skipped_frames_not_counted_displayed():
    loop = EventLoop()
    rx, displayed = make_receiver(loop, skip_timeout=0.2)
    loop.call_at(0.05, lambda: deliver(rx, loop, frame_id=3, seq0=30))
    loop.run(until=1.0)
    assert len(displayed) == 1
    assert rx.skipped_frames == 3

"""Tests for the transport receiver (reassembly, display order, feedback)."""

import pytest

from repro.net.packet import Packet
from repro.sim.events import EventLoop
from repro.transport.receiver import TransportReceiver


def make_receiver(loop, feedbacks=None, decode_time=0.002):
    feedbacks = feedbacks if feedbacks is not None else []
    return TransportReceiver(
        loop,
        send_feedback_fn=feedbacks.append,
        decode_time_fn=lambda: decode_time,
        feedback_interval=0.05,
    )


def deliver(receiver, loop, frame_id, count, seq0=0, when=None, indexes=None):
    """Deliver (a subset of) a frame's packets at the current loop time."""
    indexes = indexes if indexes is not None else range(count)
    for i in indexes:
        p = Packet(size_bytes=1200, seq=seq0 + i, frame_id=frame_id,
                   frame_packet_index=i, frame_packet_count=count)
        p.t_leave_pacer = (when or loop.now) - 0.02
        p.t_arrival = when or loop.now
        receiver.on_packet(p)


def test_frame_completes_when_all_packets_arrive():
    loop = EventLoop()
    rx = make_receiver(loop)
    deliver(rx, loop, frame_id=0, count=3)
    record = rx.frames[0]
    assert record.complete
    assert record.packets_received == 3
    assert record.displayed_at == pytest.approx(0.002)


def test_incomplete_frame_not_displayed():
    loop = EventLoop()
    rx = make_receiver(loop)
    deliver(rx, loop, frame_id=0, count=3, indexes=[0, 1])
    assert not rx.frames[0].complete
    assert rx.displayed == []


def test_display_strictly_in_order():
    loop = EventLoop()
    rx = make_receiver(loop)
    deliver(rx, loop, frame_id=1, count=1, seq0=10)  # frame 1 first
    assert rx.displayed == []                        # waits for frame 0
    deliver(rx, loop, frame_id=0, count=1, seq0=0)
    assert [r.frame_id for r in rx.displayed] == [0, 1]


def test_skip_frame_unblocks_display():
    loop = EventLoop()
    rx = make_receiver(loop)
    deliver(rx, loop, frame_id=1, count=1, seq0=10)
    rx.skip_frame(0)
    assert [r.frame_id for r in rx.displayed] == [1]


def test_retransmission_flag_set():
    loop = EventLoop()
    rx = make_receiver(loop)
    p = Packet(size_bytes=1200, seq=5, frame_id=0,
               frame_packet_index=0, frame_packet_count=1,
               retransmission_of=2)
    p.t_leave_pacer, p.t_arrival = 0.0, 0.02
    rx.on_packet(p)
    assert rx.frames[0].had_retransmission


def test_periodic_feedback_emitted():
    loop = EventLoop()
    feedbacks = []
    rx = make_receiver(loop, feedbacks)
    rx.start()
    deliver(rx, loop, frame_id=0, count=2)
    loop.run(until=0.26)
    assert len(feedbacks) == 5  # one per 50 ms
    assert sum(len(m.reports) for m in feedbacks) == 2


def test_frame_quality_and_capture_views():
    loop = EventLoop()
    rx = make_receiver(loop)
    rx.frame_quality = {0: 88.0}
    rx.frame_capture_time = {0: 0.5}
    deliver(rx, loop, frame_id=0, count=1)
    assert rx.frames[0].quality_vmaf == 88.0
    assert rx.frames[0].capture_time == 0.5

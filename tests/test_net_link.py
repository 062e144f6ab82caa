"""Tests for the bottleneck link and drop-tail queue."""

import pytest

from repro.net.link import DropTailQueue, Link
from repro.net.packet import Packet
from repro.net.trace import BandwidthTrace
from repro.sim.events import EventLoop


def make_packet(size=1200):
    return Packet(size_bytes=size)


class TestDropTailQueue:
    def test_push_pop_fifo(self):
        q = DropTailQueue(capacity_bytes=10_000)
        p1, p2 = make_packet(), make_packet()
        assert q.try_push(p1) and q.try_push(p2)
        assert q.pop() is p1
        assert q.pop() is p2

    def test_tail_drop_at_capacity(self):
        q = DropTailQueue(capacity_bytes=2500)
        assert q.try_push(make_packet(1200))
        assert q.try_push(make_packet(1200))
        assert not q.try_push(make_packet(1200))  # 3600 > 2500
        assert len(q) == 2

    def test_byte_accounting(self):
        q = DropTailQueue(capacity_bytes=10_000)
        q.try_push(make_packet(1000))
        q.try_push(make_packet(500))
        assert q.bytes_queued == 1500
        q.pop()
        assert q.bytes_queued == 500

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DropTailQueue(capacity_bytes=0)


class TestLink:
    def test_serialization_time(self):
        """A 1250-byte packet at 1 Mbps serializes in exactly 10 ms."""
        loop = EventLoop()
        delivered = []
        link = Link(loop, BandwidthTrace.constant(1e6),
                    on_deliver=lambda p: delivered.append(loop.now))
        link.send(Packet(size_bytes=1250))
        loop.drain()
        assert delivered == [pytest.approx(0.01)]

    def test_back_to_back_packets_queue(self):
        loop = EventLoop()
        delivered = []
        link = Link(loop, BandwidthTrace.constant(1e6),
                    on_deliver=lambda p: delivered.append(loop.now))
        for _ in range(3):
            link.send(Packet(size_bytes=1250))
        loop.drain()
        assert delivered == [pytest.approx(0.01), pytest.approx(0.02),
                             pytest.approx(0.03)]

    def test_drop_when_queue_full(self):
        loop = EventLoop()
        dropped = []
        link = Link(loop, BandwidthTrace.constant(1e6),
                    queue_capacity_bytes=3000,
                    on_drop=lambda p: dropped.append(p))
        for _ in range(5):
            link.send(Packet(size_bytes=1200))
        # first two fit (2400 <= 3000), rest dropped while nothing drained
        assert len(dropped) == 3
        assert link.stats.dropped_packets == 3
        loop.drain()
        assert link.stats.delivered_packets == 2

    def test_packet_timestamps_recorded(self):
        loop = EventLoop()
        packet = Packet(size_bytes=1250)
        link = Link(loop, BandwidthTrace.constant(1e6))
        link.send(packet)
        loop.drain()
        assert packet.t_enter_queue == 0.0
        assert packet.t_leave_queue == pytest.approx(0.01)
        assert packet.queue_delay == pytest.approx(0.01)

    def test_variable_rate_changes_service_time(self):
        loop = EventLoop()
        delivered = []
        trace = BandwidthTrace(timestamps=[0.0, 0.2], rates_bps=[1e6, 2e6])
        link = Link(loop, trace,
                    on_deliver=lambda p: delivered.append(loop.now))
        link.send(Packet(size_bytes=1250))
        loop.drain()
        loop.call_at(0.3, lambda: None)
        loop.drain()
        link.send(Packet(size_bytes=1250))  # now at 2 Mbps: 5 ms
        loop.drain()
        assert delivered[0] == pytest.approx(0.01)
        assert delivered[1] == pytest.approx(0.305)

    def test_drop_rate_statistic(self):
        loop = EventLoop()
        link = Link(loop, BandwidthTrace.constant(1e5),
                    queue_capacity_bytes=1200)
        link.send(Packet(size_bytes=1200))
        link.send(Packet(size_bytes=1200))
        stats = link.stats
        assert (stats.dropped_packets, stats.enqueued_packets) == (1, 1)
        assert (stats.dropped_bytes, stats.enqueued_bytes) == (1200, 1200)

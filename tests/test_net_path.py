"""Tests for the end-to-end network path."""

import pytest

from repro.net.packet import Packet
from repro.net.path import NetworkPath, PathConfig
from repro.net.trace import BandwidthTrace
from repro.sim.events import EventLoop
from repro.sim.rng import RngStream


def build_path(loop, rate_bps=10e6, base_rtt=0.03, loss=0.0, queue=100_000):
    return NetworkPath(
        loop, BandwidthTrace.constant(rate_bps),
        PathConfig(base_rtt=base_rtt, queue_capacity_bytes=queue,
                   random_loss_rate=loss),
        rng=RngStream(5, "loss"),
    )


def test_one_way_delay_includes_propagation_and_serialization():
    loop = EventLoop()
    path = build_path(loop, rate_bps=1e6, base_rtt=0.030)
    arrivals = []
    path.on_arrival = lambda p: arrivals.append(loop.now)
    packet = Packet(size_bytes=1250)  # 10 ms serialization at 1 Mbps
    path.send(packet)
    loop.drain()
    # 15 ms propagation + 10 ms serialization
    assert arrivals == [pytest.approx(0.025)]
    assert packet.t_arrival == pytest.approx(0.025)


def test_feedback_takes_one_way_delay():
    loop = EventLoop()
    path = build_path(loop, base_rtt=0.040)
    received = []
    path.on_feedback = lambda m: received.append((loop.now, m))
    path.send_feedback("report")
    loop.drain()
    assert received == [(pytest.approx(0.020), "report")]


def test_random_loss_drops_packets():
    loop = EventLoop()
    path = build_path(loop, loss=1.0)  # everything lost
    arrivals, drops = [], []
    path.on_arrival = lambda p: arrivals.append(p)
    path.on_drop = lambda p: drops.append(p)
    path.send(Packet(size_bytes=1200))
    loop.drain()
    assert arrivals == []
    assert len(drops) == 1
    assert drops[0].dropped


def test_queue_overflow_reports_drop():
    loop = EventLoop()
    path = build_path(loop, rate_bps=1e5, queue=2400)
    drops = []
    path.on_drop = lambda p: drops.append(p)
    for _ in range(5):
        path.send(Packet(size_bytes=1200))
    loop.drain()
    assert len(drops) == 3
    assert path.lost_packets == 3


def test_queue_bytes_oracle():
    loop = EventLoop()
    path = build_path(loop, rate_bps=1e5)
    for _ in range(3):
        path.send(Packet(size_bytes=1200))
    # run only past the propagation step so packets sit in the queue
    loop.run(until=0.008)
    assert path.link.queued_bytes > 0


def test_rtt_round_trip_sums():
    """Media forward + feedback reverse ~= base RTT + serialization."""
    loop = EventLoop()
    path = build_path(loop, rate_bps=10e6, base_rtt=0.030)
    events = {}
    packet = Packet(size_bytes=1250)

    def arrived(p):
        events["arrival"] = loop.now
        path.send_feedback("ack")

    path.on_arrival = arrived
    path.on_feedback = lambda m: events.setdefault("feedback", loop.now)
    path.send(packet)
    loop.drain()
    rtt = events["feedback"]
    assert rtt == pytest.approx(0.030 + 1250 * 8 / 10e6)

"""Tests for competing web-like cross traffic."""

import pytest

from repro.net.cross_traffic import CrossTrafficFlow, PageLoadGenerator
from repro.net.packet import Packet, PacketType
from repro.net.path import NetworkPath, PathConfig
from repro.net.trace import BandwidthTrace
from repro.sim.events import EventLoop
from repro.sim.rng import RngStream


def wire_flow_through_path(loop, flow, path):
    path.on_arrival = flow.on_delivered
    path.on_drop = flow.on_dropped


def test_page_load_completes_and_reports_time():
    loop = EventLoop()
    path = NetworkPath(loop, BandwidthTrace.constant(50e6),
                       PathConfig(base_rtt=0.02))
    records = []
    flow = CrossTrafficFlow(loop, path.send, page_bytes=120_000,
                            on_finish=records.append)
    wire_flow_through_path(loop, flow, path)
    flow.start()
    loop.drain()
    assert len(records) == 1        # on_finish ran once
    assert records[0].load_time > 0
    assert records[0].packets == 100


def test_flow_backs_off_on_drops_and_still_finishes():
    loop = EventLoop()
    # Tiny queue + slow link: forces drops and AIMD backoff.
    path = NetworkPath(loop, BandwidthTrace.constant(2e6),
                       PathConfig(base_rtt=0.02, queue_capacity_bytes=5000))
    records = []
    flow = CrossTrafficFlow(loop, path.send, page_bytes=60_000,
                            on_finish=records.append)
    wire_flow_through_path(loop, flow, path)
    flow.start()
    loop.drain(max_events=1_000_000)
    assert len(records) == 1        # on_finish ran once
    assert records[0].lost_packets > 0


def test_cross_packets_are_tagged():
    loop = EventLoop()
    sent = []
    flow = CrossTrafficFlow(loop, sent.append, page_bytes=12_000)
    flow.start()
    assert all(p.ptype == PacketType.CROSS for p in sent)
    assert all(p.flow_id == flow.flow_id for p in sent)


def test_generator_spawns_multiple_loads():
    loop = EventLoop()
    path = NetworkPath(loop, BandwidthTrace.constant(100e6),
                       PathConfig(base_rtt=0.02))
    gen = PageLoadGenerator(loop, path.send, RngStream(3, "cross"),
                            mean_interarrival=1.0)
    path.on_arrival = gen.on_delivered
    path.on_drop = gen.on_dropped
    gen.start()
    loop.run(until=20.0)
    gen.stop()
    loop.run(until=40.0)
    assert len(gen.completed_load_times()) >= 3
    assert all(t > 0 for t in gen.completed_load_times())


def test_generator_ignores_foreign_flows():
    loop = EventLoop()
    gen = PageLoadGenerator(loop, lambda p: None, RngStream(3, "cross"))
    # a media packet (flow 0) must not crash or be miscounted
    gen.on_delivered(Packet(size_bytes=1200, flow_id=0))
    gen.on_dropped(Packet(size_bytes=1200, flow_id=0))
    assert gen.records == []

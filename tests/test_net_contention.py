"""Tests for the shared-medium contention loss model."""

from repro.net import path as path_module
from repro.net.packet import Packet
from repro.net.path import NetworkPath, PathConfig
from repro.net.trace import BandwidthTrace
from repro.sim.events import EventLoop
from repro.sim.rng import RngStream


def build(loop, contention=0.1):
    cfg = PathConfig(base_rtt=0.02, contention_loss_rate=contention)
    return NetworkPath(loop, BandwidthTrace.constant(100e6), cfg,
                       rng=RngStream(4, "loss"))


def send_train(path, loop, n, gap=0.0):
    """Send n packets with the given inter-send gap; return loss count."""
    lost = path.lost_packets
    for i in range(n):
        path.send(Packet(size_bytes=1200))
        if gap > 0:
            loop.run(until=loop.now + gap)
    return path.lost_packets - lost


def test_paced_traffic_sees_no_contention_loss():
    loop = EventLoop()
    path = build(loop, contention=0.5)
    lost = send_train(path, loop, 200, gap=0.005)  # 5 ms apart: paced
    assert lost == 0


def test_long_bursts_lose_packets(monkeypatch):
    monkeypatch.setattr(path_module, "CONTENTION_TRAIN_PACKETS", 10)
    loop = EventLoop()
    path = build(loop, contention=0.3)
    lost = send_train(path, loop, 300, gap=0.0)  # back-to-back train
    assert lost > 10


def test_loss_ramps_with_train_length():
    """Short trains suffer much less than long ones (per packet)."""
    loop = EventLoop()
    assert path_module.CONTENTION_TRAIN_PACKETS == 50
    path_short = build(loop, contention=0.3)
    lost_short = 0
    for _ in range(60):  # 60 trains of 5 packets
        lost_short += send_train(path_short, loop, 5, gap=0.0)
        loop.run(until=loop.now + 0.01)

    loop2 = EventLoop()
    path_long = build(loop2, contention=0.3)
    lost_long = send_train(path_long, loop2, 300, gap=0.0)  # one long train
    assert lost_long > lost_short


def test_disabled_by_default():
    loop = EventLoop()
    cfg = PathConfig(base_rtt=0.02)
    path = NetworkPath(loop, BandwidthTrace.constant(100e6), cfg,
                       rng=RngStream(4, "loss"))
    assert send_train(path, loop, 200, gap=0.0) == 0

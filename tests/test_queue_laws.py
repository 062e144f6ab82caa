"""Laws for the arena's router chain and the queue disciplines.

Each router of an :class:`~repro.arena.topology.ArenaPath` chain books
every packet it is offered exactly once: a packet refused on arrival is
dropped and never enqueued, and an enqueued one is delivered, dropped
later (a CoDel head drop, a Confucius eviction) or still queued. With
every flow on the whole chain, router *i*+1 is offered exactly what
router *i* delivered. PIE's drop probability is a probability whatever
the arrivals do.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.arena.topology import ArenaPath, BottleneckSpec
from repro.net.aqm import PieDiscipline
from repro.net.packet import Packet
from repro.net.path import PathConfig
from repro.net.trace import BandwidthTrace
from repro.sim.events import EventLoop
from repro.sim.rng import RngStream
from tests.test_net_aqm import mkpkt

DISCIPLINES = ("droptail", "codel", "pie", "confucius")


def _counted(link, offered, refused):
    """Wrap ``link.send`` to tally what it is offered and what it
    refuses on arrival, as ``[packets, bytes]``."""
    send = link.send

    def counted(packet, *args):
        admitted = send(packet, *args)
        offered[0] += 1
        offered[1] += packet.size_bytes
        if not admitted:
            refused[0] += 1
            refused[1] += packet.size_bytes
        return admitted

    link.send = counted


def _assert_books(path, offered, refused):
    delivered_before = None
    for i, link in enumerate(path.links):
        stats = link.stats
        queued = (link.queued_packets, link.queued_bytes)
        for k, unit in enumerate(("packets", "bytes")):
            enqueued = getattr(stats, f"enqueued_{unit}")
            delivered = getattr(stats, f"delivered_{unit}")
            dropped = getattr(stats, f"dropped_{unit}")
            assert enqueued == offered[i][k] - refused[i][k], (i, unit)
            # dropped - refused: what left the queue without service.
            assert enqueued == (delivered + dropped - refused[i][k]
                                + queued[k]), (i, unit)
        if delivered_before is not None:
            assert offered[i] == delivered_before, i
        delivered_before = [stats.delivered_packets, stats.delivered_bytes]


@settings(max_examples=200, deadline=None)
@given(discipline=st.sampled_from(DISCIPLINES),
       flows=st.integers(1, 4),
       rates=st.tuples(st.floats(0.5e6, 20e6), st.floats(0.5e6, 20e6)),
       capacity=st.integers(3_000, 60_000),
       bursts=st.lists(st.tuples(st.floats(0.0, 0.05), st.integers(1, 40),
                                 st.integers(60, 1500), st.integers(0, 3)),
                       min_size=1, max_size=40),
       read_at=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
def test_each_router_of_a_chain_conserves_packets_and_bytes(
        discipline, flows, rates, capacity, bursts, read_at, seed):
    loop = EventLoop()
    path = ArenaPath(
        loop, [BottleneckSpec(BandwidthTrace.constant(rate, duration=30.0),
                              discipline=discipline) for rate in rates],
        PathConfig(base_rtt=0.02, queue_capacity_bytes=capacity),
        aqm_rng=RngStream(seed, "aqm"))
    arrived, dropped = [], []
    path.on_arrival, path.on_drop = arrived.append, dropped.append
    offered = [[0, 0] for _ in path.links]
    refused = [[0, 0] for _ in path.links]
    for link, o, r in zip(path.links, offered, refused):
        _counted(link, o, r)
    now, sent = 0.0, 0
    for gap, count, size, flow in bursts:    # back-to-back packet trains
        now += gap
        for _ in range(count):
            loop.post(now, path.send, Packet(size, flow_id=1 + flow % flows),
                      "test.send")
        sent += count

    loop.run(until=read_at * now)       # mid-run, packets still queued
    _assert_books(path, offered, refused)
    loop.run(until=now + 5.0)           # the drain: every queue empties
    _assert_books(path, offered, refused)
    last = path.links[-1]
    assert last.queued_packets == 0
    assert len(arrived) == last.stats.delivered_packets
    assert len(dropped) == path.lost_packets == sum(
        link.stats.dropped_packets for link in path.links)
    assert offered[0][0] == sent


@settings(max_examples=150, deadline=None)
@given(bursts=st.lists(st.tuples(st.floats(0.0, 0.3), st.integers(1, 80),
                                 st.integers(60, 1500), st.integers(0, 40)),
                       min_size=1, max_size=40),
       alpha=st.floats(0.0, 50.0), beta=st.floats(0.0, 50.0),
       target=st.floats(0.001, 0.05), seeded=st.booleans())
def test_pie_drop_probability_stays_in_the_unit_interval(
        bursts, alpha, beta, target, seeded):
    """Random arrival bursts, each followed by some departures, under any
    controller gains: after every arrival ``drop_prob`` is in [0, 1]."""
    gains = type("Pie", (PieDiscipline,),
                 {"TARGET_S": target, "ALPHA": alpha, "BETA": beta})
    q = gains(200_000, rng=RngStream(7, "aqm") if seeded else None)
    now = 0.0
    for gap, count, size, departures in bursts:
        now += gap
        for _ in range(count):
            q.enqueue(mkpkt(size, now=now), now)
            assert 0.0 <= q.drop_prob <= 1.0
        for _ in range(min(departures, len(q))):
            q.pop_head()

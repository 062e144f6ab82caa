"""A folded AQM router is the evented router, bit for bit.

``NetworkPath`` folds a lone router whose discipline drops nothing at
dequeue — PIE decides at enqueue, Confucius at enqueue and in choosing
which head goes next (DESIGN §6). The path offers each packet at
release, half a hop ahead of its arrival; the link first makes every
service decision due before that arrival, reports a drop at the
arrival instant and posts the departure hop when it chooses the head:
no ``link.serve`` event, no arrival hop. Asking the link to
``depart_by_event()`` before the first packet gives the evented twin,
the oracle here: every stamp, drop instant, mid-run read and counter
must agree.

As in ``tests/test_link_closed_form.py``, two ties only event numbers
could order are kept out of generated inputs: a service time equal to
the half-hop, and a state read at exactly an arrival or departure
instant.
"""

from dataclasses import asdict

import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.arena import ArenaFlowSpec, ArenaSession, BottleneckSpec
from repro.audit.auditor import attach_audit
from repro.net.aqm import ConfuciusDiscipline, make_discipline, \
    queued_bytes_by_flow
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.path import NetworkPath, PathConfig
from repro.net.trace import BandwidthTrace, make_wifi_trace
from repro.rtc.baselines import build_session
from repro.rtc.session import SessionConfig
from repro.sim.events import EventLoop
from repro.sim.rng import RngStream
from tests.test_sim_regression import fingerprint

FOLDED = ("confucius", "pie")
GRID = 2.0 ** -10               # 1 024 B at 8·2^20 bps
GRID_RATE = 8 * 2 ** 20
TIE_TRACE = BandwidthTrace.constant(GRID_RATE, duration=4.0)


# ----------------------------------------------------------------------
# whole sessions: one flow or arena_mix's four, on either link
# ----------------------------------------------------------------------
def session_record(discipline, flows, trace_kind, loss, jitter, evented):
    duration = 2.0
    if trace_kind == "wifi":
        trace = make_wifi_trace(RngStream(11, "trace"), duration=duration + 10)
    else:
        trace = BandwidthTrace.constant((3 if flows == 1 else 40) * 1e6,
                                        duration=duration + 10)
    config = SessionConfig(duration=duration, seed=3, initial_bwe_bps=6e6,
                           random_loss_rate=loss, delay_jitter_std=jitter,
                           queue_capacity_bytes=(
                               100_000 if flows > 1
                               else 40_000 if trace_kind == "const"
                               else 20_000))
    if flows == 1:
        session = build_session("ace", trace, config, discipline=discipline)
    else:
        session = ArenaSession([
            ArenaFlowSpec("ace", flow_id=1),
            ArenaFlowSpec("webrtc-star", flow_id=2),
            ArenaFlowSpec("always-burst", flow_id=3, start=duration / 6),
            ArenaFlowSpec("ace", flow_id=4, start=duration / 3),
        ], trace, config, discipline=discipline)
    path, loop = session.path, session.loop
    link = path.link
    if evented:
        link.depart_by_event()
    assert (link.lead is None) == evented
    seen, reads = [], []
    on_arrival, on_drop = path.on_arrival, path.on_drop

    def arrived(p):
        seen.append((loop.now, p.flow_id, p.seq, p.t_enter_queue,
                     p.t_leave_queue))
        on_arrival(p)

    def dropped(p):
        seen.append((loop.now, p.flow_id, p.seq, p.t_enter_queue, None))
        on_drop(p)

    path.on_arrival, path.on_drop = arrived, dropped
    for i in range(1, int(duration * 100)):
        loop.call_at(i * 0.01, lambda: reads.append(
            (asdict(link.stats), link.queued_bytes, link.queued_packets)))
    metrics = session.run()
    flows_out = metrics.flows if flows > 1 else {0: metrics}
    return {"fingerprints": [fingerprint(flows_out[f])
                             for f in sorted(flows_out)],
            "stats": asdict(link.stats), "packets": seen, "reads": reads,
            "aqm": (getattr(link.queue, "aqm_drops", None),
                    getattr(link.queue, "evictions", None))}


@pytest.mark.parametrize("jitter", [0.0, 0.002])
@pytest.mark.parametrize("loss", [0.0, 0.01])
@pytest.mark.parametrize("trace_kind", ["const", "wifi"])
@pytest.mark.parametrize("flows", [1, 4])
@pytest.mark.parametrize("discipline", FOLDED)
def test_folded_session_equals_its_evented_twin(discipline, flows,
                                                trace_kind, loss, jitter):
    args = (discipline, flows, trace_kind, loss, jitter)
    folded = session_record(*args, evented=False)
    assert folded == session_record(*args, evented=True)
    stats = folded["stats"]
    assert stats["delivered_packets"] > 500 and stats["dropped_packets"] > 0
    assert any(read[2] for read in folded["reads"])     # queued mid-run
    early_drops, evictions = folded["aqm"]
    if discipline == "pie" and flows == 1 and trace_kind == "const":
        assert early_drops > 0
    if discipline == "confucius" and flows == 4:
        assert evictions > 0


# ----------------------------------------------------------------------
# a path driven packet by packet: ties, outages, reads
# ----------------------------------------------------------------------
def drive(discipline, trace, half_hop, capacity, sends, reads, evented,
          until):
    """Run ``sends`` [(time, size, flow)] through a path; everything
    observable, and the instants the discipline chose a head at."""
    loop = EventLoop()
    queue = make_discipline(discipline, capacity)
    path = NetworkPath(loop, trace, PathConfig(
        base_rtt=4 * half_hop, queue_capacity_bytes=capacity),
        discipline=queue)
    assert path._half_hop == half_hop
    link = path.link
    if evented:
        link.depart_by_event()
    assert (link.lead is None) == evented
    choices = []
    select_head = queue.select_head

    def spy(now):
        choices.append(now)
        return select_head(now)

    queue.select_head = spy
    packets = [Packet(size_bytes=size, seq=i, flow_id=flow)
               for i, (_t, size, flow) in enumerate(sends)]
    arrivals, drops, seen = [], [], []
    path.on_arrival = lambda p: arrivals.append((loop.now, p.seq))
    path.on_drop = lambda p: drops.append((loop.now, p.seq))
    for (t, _size, _flow), packet in zip(sends, packets):
        loop.call_at(t, lambda p=packet: path.send(p))
    for t in reads:
        loop.call_at(t, lambda: seen.append(
            (loop.now, asdict(link.stats), link.queued_bytes,
             link.queued_packets)))
    loop.run(until=until)
    stamps = [(p.t_enter_queue, p.t_leave_queue, p.t_arrival, p.dropped)
              for p in packets]
    return {"stamps": stamps, "arrivals": arrivals, "drops": drops,
            "reads": seen, "stats": asdict(link.stats), "choices": choices,
            "queued": (link.queued_bytes, link.queued_packets),
            "evictions": getattr(queue, "evictions", 0),
            "events": loop.processed}


def assert_twins_agree(discipline, trace, half_hop, capacity, sends, reads,
                       until):
    evented = drive(discipline, trace, half_hop, capacity, sends, [], True,
                    until)
    if reads:       # keep reads off arrival/departure instants (module doc)
        instants = {t for enter, leave, _a, _d in evented["stamps"]
                    for t in (enter, leave) if t is not None}
        reads = [t for t in reads if t not in instants]
        evented = drive(discipline, trace, half_hop, capacity, sends, reads,
                        True, until)
    folded = drive(discipline, trace, half_hop, capacity, sends, reads,
                   False, until)
    # Each accepted packet's arrival hop and serve event are folded; an
    # eviction, met inside the evicting packet's arrival hop there, is
    # reported by a hop of its own here.
    stats = evented["stats"]
    assert folded.pop("events") == (
        evented.pop("events") - stats["enqueued_packets"]
        - stats["delivered_packets"] + evented["evictions"])
    assert folded == evented
    return folded


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FOLDED),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                min_size=2, max_size=40),
       st.sampled_from([2.0 ** -12, 2.0 ** -8]),
       st.sampled_from([2_048, 3_072, 8_192]))
def test_exact_ties_resolve_like_event_numbers(discipline, gaps, half_hop,
                                               capacity):
    """Power-of-two service times put departures on arrival instants;
    the half-hop is shorter or longer than one service time, so either
    event may carry the lower number."""
    sends, slot = [], 0
    for gap, flow in gaps:
        slot += gap
        sends.append((slot * GRID, 1024, flow))
    assert_twins_agree(discipline, TIE_TRACE, half_hop, capacity, sends, [],
                       until=slot * GRID + 1.0)


@pytest.mark.parametrize("discipline", FOLDED)
def test_both_tie_orders_occur_and_differ(discipline):
    """Back to back on the service grid, every arrival after the first
    lands on a departure: a short half-hop numbers the departure first
    (room for the newcomer), a long one the arrival (it meets a full
    queue)."""
    sends = [(i * GRID, 1024, 1) for i in range(6)]
    short = assert_twins_agree(discipline, TIE_TRACE, 2.0 ** -12, 1024,
                               sends, [], 1.0)
    long_ = assert_twins_agree(discipline, TIE_TRACE, 2.0 ** -8, 1024,
                               sends, [], 1.0)
    assert short["drops"] == []
    assert [seq for _t, seq in long_["drops"]] == [1, 3, 5]
    assert long_["stamps"][1][0] == long_["stamps"][0][1]   # a true tie


#: two zero-rate samples: 10 ms, and 180 ms from 0.1 s, mid-burst.
OUTAGE_TRACE = BandwidthTrace(
    timestamps=[0.0, 0.030, 0.040, 0.100, 0.280],
    rates_bps=[4e6, 0.0, 6e6, 0.0, 3e6], name="outages")


@pytest.mark.parametrize("discipline", FOLDED)
def test_outages_on_a_folded_router(discipline):
    """Zero-rate samples, one of them 180 ms long and starting in the
    middle of a burst: the folded router equals its twin, and while the
    rate is zero it chooses the head again every 50 ms."""
    sends = [(0.020 + 0.0005 * i, 1200, i % 3) for i in range(8)]
    sends += [(0.085 + 0.0004 * i, 300 + 60 * i, i % 4) for i in range(40)]
    reads = [0.0351, 0.0713, 0.0952, 0.1801, 0.2702, 0.6]
    out = assert_twins_agree(discipline, OUTAGE_TRACE, 0.00371, 12_000,
                             sends, reads, until=3.0)
    assert out["drops"] and out["stats"]["delivered_packets"] > 20
    stalled = [t for t in out["choices"] if 0.100 <= t < 0.280]
    last_arrival = sends[-1][0] + 0.00371
    assert len(stalled) == 4 and stalled[0] < last_arrival  # mid-burst
    assert all(b - a == pytest.approx(0.05)
               for a, b in zip(stalled, stalled[1:]))
    assert out["choices"][4] == out["choices"][3] + 0.05   # the 10 ms one
    queued = [read[3] for read in out["reads"]]
    assert queued[0] and queued[3] and queued[4] and not queued[5]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FOLDED),
       st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 0.01)),
                          st.integers(60, 1500), st.integers(0, 3)),
                min_size=1, max_size=60),
       st.sampled_from([3_000, 9_000, 40_000]),
       st.lists(st.floats(0.0, 0.6), max_size=12))
def test_generated_traffic_through_rate_steps(discipline, gaps, capacity,
                                              reads):
    trace = BandwidthTrace(timestamps=[0.0, 0.020, 0.045, 0.050, 0.120],
                           rates_bps=[4e6, 1e6, 0.0, 12e6, 2.5e6])
    sends, t = [], 0.0
    for gap, size, flow in gaps:
        t += gap
        sends.append((t, size, flow))
        assume(all(size * 8 / rate != 0.00371
                   for rate in trace.rates_bps if rate))
    out = assert_twins_agree(discipline, trace, 0.00371, capacity, sends,
                             reads, until=t + 2.0)
    assert out["queued"] == (0, 0)
    stats = out["stats"]
    assert stats["delivered_packets"] + stats["dropped_packets"] == len(sends)


def test_switching_to_events_refuses_mid_flight():
    loop = EventLoop()
    path = NetworkPath(loop, TIE_TRACE, PathConfig(
        base_rtt=4 * GRID, queue_capacity_bytes=8192),
        discipline=make_discipline("confucius", 8192))
    link = path.link
    arrivals = []
    path.on_arrival = arrivals.append
    for flow in (1, 2, 1):
        path.send(Packet(size_bytes=1024, flow_id=flow))
    loop.run(until=GRID + GRID / 2)         # arrived at GRID, serving
    assert (link.queued_bytes, link.queued_packets) == (3072, 3)
    with pytest.raises(RuntimeError, match="departures in flight"):
        link.depart_by_event()
    loop.run(until=4 * GRID + GRID / 2)     # all left, one hop pending
    link.depart_by_event()
    assert link.lead is None
    link.send(Packet(size_bytes=1024, flow_id=2))   # served by events now,
    loop.run(until=2.0)                             # while that hop fires
    assert asdict(link.stats) == {
        "enqueued_packets": 4, "delivered_packets": 4, "dropped_packets": 0,
        "enqueued_bytes": 4096, "delivered_bytes": 4096, "dropped_bytes": 0}
    assert len(arrivals) == 4


def test_what_stays_evented():
    """CoDel (its head drops happen at dequeue), a link nobody feeds
    ahead of the clock, a chain, and a router under the auditor or
    arena telemetry keep their serve events; nothing a user sets."""
    loop = EventLoop()
    trace = BandwidthTrace.constant(4e6, duration=5.0)
    path = NetworkPath(loop, trace, discipline=make_discipline("codel"))
    assert path.link.lead is None and path.link.server is None
    path = NetworkPath(loop, trace, discipline=make_discipline("pie"))
    assert path.link.lead == path._half_hop
    link = Link(loop, trace, discipline=make_discipline("confucius"))
    link.depart_at_enqueue()
    assert link.lead is None
    config = SessionConfig(duration=1.0, seed=3)
    flows = [ArenaFlowSpec("ace", flow_id=1), ArenaFlowSpec("ace", flow_id=2)]
    chain = ArenaSession(flows, config=config, bottlenecks=[
        BottleneckSpec(trace, "confucius"), BottleneckSpec(trace, "pie")])
    assert [link.lead for link in chain.path.links] == [None, None]
    arena = ArenaSession(flows, trace, config, discipline="confucius")
    assert arena.path.link.lead is not None
    arena.enable_telemetry()
    assert arena.path.link.lead is None
    session = build_session("ace", trace, config, discipline="pie")
    assert session.path.link.lead is not None
    attach_audit(session)
    assert session.path.link.lead is None


# ----------------------------------------------------------------------
# the Confucius shield's laws, on the folded router
# ----------------------------------------------------------------------
class ConfuciusRouter(RuleBasedStateMachine):
    """Random arrivals from a few flows into a folded Confucius router.
    Each choice and each eviction is checked as it is made."""

    @initialize(capacity=st.sampled_from([2_500, 9_000, 60_000]),
                mbps=st.sampled_from([0.5, 2.0, 12.0]),
                half_hop=st.sampled_from([0.0007, 0.004]))
    def build(self, capacity, mbps, half_hop):
        self.loop = loop = EventLoop()
        self.queue = queue = ConfuciusDiscipline(capacity)
        self.path = NetworkPath(loop, BandwidthTrace.constant(mbps * 1e6),
                                PathConfig(base_rtt=4 * half_hop,
                                           queue_capacity_bytes=capacity),
                                discipline=queue)
        assert self.path.link.lead == half_hop
        self.sent = self.delivered = self.dropped = 0
        self.path.on_arrival = self._delivered
        self.path.on_drop = self._dropped
        self.chosen = self.arriving = None
        self.evictions = 0
        enqueue, select_head, hook = (queue.enqueue, queue.select_head,
                                      queue.drop_hook)

        def spy_enqueue(packet, now):
            self.arriving, self.at = packet, now
            return enqueue(packet, now)

        def spy_select(now):
            expected = self.expected_head(now)
            head = select_head(now)
            assert head is expected
            self.chosen = head
            return head

        def spy_drop(packet):
            if packet is not self.arriving:         # an eviction
                self.evictions += 1
                assert not queue.is_sparse(packet.flow_id, self.at)
                assert packet is not self.chosen
            hook(packet)

        queue.enqueue, queue.select_head = spy_enqueue, spy_select
        queue.drop_hook = spy_drop

    def _delivered(self, packet):
        self.delivered += 1

    def _dropped(self, packet):
        self.dropped += 1

    def expected_head(self, now):
        """The oldest head of a sparse flow, else the oldest head."""
        heads = {}
        for packet in self.queue.packets():     # lanes, FIFO within each
            heads.setdefault(packet.flow_id, packet)
        sparse = [p for fid, p in heads.items()
                  if self.queue.is_sparse(fid, now)]
        pool = sparse or list(heads.values())
        return min(pool, key=lambda p: p.seq) if pool else None

    @rule(flow=st.integers(0, 4), size=st.integers(60, 1500),
          gap=st.one_of(st.just(0.0), st.floats(0.0, 0.01)))
    def send(self, flow, size, gap):
        self.loop.run(until=self.loop.now + gap)
        self.path.send(Packet(size_bytes=size, seq=self.sent, flow_id=flow))
        self.sent += 1

    @rule(flow=st.integers(0, 4), count=st.integers(2, 12),
          size=st.integers(600, 1500))
    def burst(self, flow, count, size):
        for _ in range(count):
            self.send(flow, size, 0.0)

    @rule(dt=st.floats(0.0, 0.05))
    def wait(self, dt):
        self.loop.run(until=self.loop.now + dt)

    @invariant()
    def lanes_sum_to_the_totals(self):
        queue = self.queue
        packets = list(queue.packets())
        assert len(packets) == len(queue)
        assert sum(p.size_bytes for p in packets) == queue.bytes_queued
        by_flow = queued_bytes_by_flow(queue)
        assert sum(by_flow.values()) == queue.bytes_queued
        for fid, nbytes in by_flow.items():
            assert nbytes == sum(p.size_bytes for p in packets
                                 if p.flow_id == fid)

    def teardown(self):
        if not hasattr(self, "loop"):
            return
        self.loop.run(until=self.loop.now + 1e3)
        assert len(self.queue) == 0
        assert self.delivered + self.dropped == self.sent
        stats = self.path.link.stats
        assert stats.delivered_packets == self.delivered
        assert stats.dropped_packets == self.dropped


ConfuciusRouter.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)
test_confucius_laws_on_the_folded_router = ConfuciusRouter.TestCase

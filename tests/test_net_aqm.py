"""Queue-discipline unit tests: protocol edges, AQM behaviour, Link wiring."""

import pytest

from repro.net.aqm import (
    CoDelDiscipline,
    ConfuciusDiscipline,
    DEFAULT_QUEUE_CAPACITY_BYTES,
    DropTailQueue,
    PieDiscipline,
    QueueDiscipline,
    list_disciplines,
    make_discipline,
    queued_bytes_by_flow,
)
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.trace import BandwidthTrace, make_step_trace
from repro.sim.events import EventLoop


def mkpkt(size=1000, flow_id=0, now=0.0):
    p = Packet(size_bytes=size, flow_id=flow_id)
    p.t_enter_queue = now
    return p


ALL_DISCIPLINES = ["droptail", "codel", "pie", "confucius"]


# ----------------------------------------------------------------------
# construction edges
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_DISCIPLINES)
def test_zero_capacity_rejected(name):
    with pytest.raises(ValueError):
        make_discipline(name, 0)
    with pytest.raises(ValueError):
        make_discipline(name, -100)


def test_unknown_discipline_rejected():
    with pytest.raises(KeyError):
        make_discipline("red")  # RED is not implemented


def test_registry_lists_all():
    assert list_disciplines() == sorted(ALL_DISCIPLINES)
    for name in ALL_DISCIPLINES:
        q = make_discipline(name, 50_000)
        assert isinstance(q, QueueDiscipline)
        assert q.capacity_bytes == 50_000


def test_make_discipline_default_capacity():
    q = make_discipline("droptail")
    assert q.capacity_bytes == DEFAULT_QUEUE_CAPACITY_BYTES


# ----------------------------------------------------------------------
# protocol basics: single packet through every discipline
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_DISCIPLINES)
def test_single_packet_queue(name):
    q = make_discipline(name, 10_000)
    p = mkpkt(1200)
    assert q.enqueue(p, 0.0)
    assert len(q) == 1
    assert q.bytes_queued == 1200
    head = q.select_head(0.001)
    assert head is p
    assert q.pop_head() is p
    assert len(q) == 0
    assert q.bytes_queued == 0
    assert q.select_head(0.002) is None


@pytest.mark.parametrize("name", ALL_DISCIPLINES)
def test_burst_at_exactly_full_queue(name):
    """A packet that exactly fills the queue is admitted; the next is not."""
    q = make_discipline(name, 3000)
    assert q.enqueue(mkpkt(1000), 0.0)
    assert q.enqueue(mkpkt(1000), 0.0)
    assert q.enqueue(mkpkt(1000), 0.0)     # exact fit: bytes == capacity
    assert q.bytes_queued == 3000
    admitted = q.enqueue(mkpkt(1000), 0.0)
    if name == "confucius":
        # a lone flow is sparse only against itself; with one fat lane
        # there is no non-sparse victim besides the arrival's own lane.
        assert q.bytes_queued <= 3000
    else:
        assert not admitted
        assert q.bytes_queued == 3000


def test_droptail_protocol_matches_legacy_api():
    q = DropTailQueue(5000)
    p1, p2 = mkpkt(2000), mkpkt(2000)
    assert q.try_push(p1) and q.enqueue(p2, 0.0)
    assert q.bytes_queued == 4000
    assert q.select_head(0.0) is p1
    assert q.pop_head() is p1 and q.pop() is p2
    assert q.select_head(0.0) is None


# ----------------------------------------------------------------------
# CoDel
# ----------------------------------------------------------------------
def test_codel_never_drops_last_packet():
    q = CoDelDiscipline(100_000, target_s=0.005, interval_s=0.05)
    p = mkpkt(1200, now=0.0)
    q.enqueue(p, 0.0)
    # Sojourn far above target for many intervals: the lone packet must
    # still be served, not dropped (the link would starve otherwise).
    for t in (1.0, 2.0, 3.0):
        assert q.select_head(t) is p
    assert q.aqm_drops == 0


def test_codel_head_drops_under_standing_queue():
    q = CoDelDiscipline(1_000_000, target_s=0.005, interval_s=0.02)
    drops = []
    q.drop_hook = drops.append
    # Build a standing queue whose heads are all far older than target.
    for i in range(50):
        q.enqueue(mkpkt(1200, now=0.001 * i), 0.001 * i)
    served = 0
    t = 0.5
    while len(q):
        if q.select_head(t) is None:
            break
        q.pop_head()
        served += 1
        t += 0.005
    assert q.aqm_drops > 0
    assert len(drops) == q.aqm_drops
    assert served + q.aqm_drops == 50
    assert all(p.size_bytes == 1200 for p in drops)


def test_codel_recovers_below_target():
    q = CoDelDiscipline(1_000_000, target_s=0.005, interval_s=0.02)
    for i in range(20):
        q.enqueue(mkpkt(1200, now=0.001), 0.001)
    q.select_head(1.0)          # arms first_above_time
    q.select_head(1.1)          # past the interval: enter dropping
    assert q._dropping or q.aqm_drops > 0
    # Fresh packets with ~zero sojourn bring it back out of dropping.
    q2 = CoDelDiscipline(1_000_000, target_s=0.005, interval_s=0.02)
    q2.enqueue(mkpkt(1200, now=1.0), 1.0)
    assert q2.select_head(1.0001) is not None
    assert q2.aqm_drops == 0


# ----------------------------------------------------------------------
# PIE
# ----------------------------------------------------------------------
def test_pie_burst_allowance_shields_startup():
    q = PieDiscipline(1_000_000, target_s=0.015, burst_allowance_s=0.15)
    for i in range(30):
        assert q.enqueue(mkpkt(1200, now=0.001 * i), 0.001 * i)
    assert q.aqm_drops == 0        # inside the burst allowance


def test_pie_drop_prob_rises_with_standing_delay():
    q = PieDiscipline(10_000_000, target_s=0.015, t_update_s=0.015,
                      burst_allowance_s=0.0)
    # Old head -> large sojourn-based qdelay at every update.
    q.enqueue(mkpkt(1200, now=1.0), 1.0)
    for i in range(1, 200):
        q.enqueue(mkpkt(1200, now=1.0), 1.0 + 0.05 * i)
    assert q.drop_prob > 0.0
    assert q.aqm_drops > 0         # deterministic dithering fired


def test_pie_deterministic_without_rng():
    def run():
        q = PieDiscipline(10_000_000, target_s=0.015, burst_allowance_s=0.0)
        q.enqueue(mkpkt(1200, now=1.0), 1.0)
        admitted = [q.enqueue(mkpkt(1200, now=1.0), 1.0 + 0.05 * i)
                    for i in range(1, 150)]
        return admitted, q.drop_prob, q.aqm_drops
    first, second = run(), run()
    assert first == second
    assert first[2] > 0            # the dithering actually fired


# ----------------------------------------------------------------------
# Confucius
# ----------------------------------------------------------------------
def test_confucius_sparse_flow_served_first():
    q = ConfuciusDiscipline(1_000_000, sparse_share=0.25)
    # Flow 1 is bulk (lots of bytes), flow 2 is sparse (one thin packet).
    for i in range(50):
        q.enqueue(mkpkt(1200, flow_id=1, now=0.01 * i), 0.01 * i)
    thin = mkpkt(300, flow_id=2, now=0.5)
    q.enqueue(thin, 0.5)
    assert q.select_head(0.5) is thin      # jumps the bulk backlog
    assert q.pop_head() is thin


def test_confucius_evicts_fattest_lane_for_sparse_arrival():
    q = ConfuciusDiscipline(10_000, sparse_share=0.25)
    drops = []
    q.drop_hook = drops.append
    for i in range(8):      # fill with bulk flow 1: 9600 bytes
        q.enqueue(mkpkt(1200, flow_id=1, now=0.01 * i), 0.01 * i)
    thin = mkpkt(800, flow_id=2, now=0.2)
    assert q.enqueue(thin, 0.2)            # evicts flow-1 tail to fit
    assert q.evictions >= 1
    assert all(p.flow_id == 1 for p in drops)
    assert q.bytes_queued <= q.capacity_bytes
    assert thin in list(q.packets())


def test_confucius_never_evicts_in_service_packet():
    q = ConfuciusDiscipline(2000, sparse_share=0.25)
    bulk = mkpkt(1800, flow_id=1, now=0.0)
    q.enqueue(bulk, 0.0)
    assert q.select_head(0.0) is bulk      # on the wire now
    thin = mkpkt(400, flow_id=2, now=0.1)
    # Only possible victim is the in-service packet: must refuse.
    assert not q.enqueue(thin, 0.1)
    assert q.pop_head() is bulk


def test_confucius_per_flow_ledger():
    q = ConfuciusDiscipline(1_000_000)
    q.enqueue(mkpkt(1000, flow_id=1, now=0.0), 0.0)
    q.enqueue(mkpkt(500, flow_id=2, now=0.0), 0.0)
    q.enqueue(mkpkt(500, flow_id=1, now=0.0), 0.0)
    assert queued_bytes_by_flow(q) == {1: 1500, 2: 500}


def test_queued_bytes_by_flow_scan_fallback():
    q = DropTailQueue(10_000)
    q.try_push(mkpkt(1000, flow_id=3))
    q.try_push(mkpkt(700, flow_id=4))
    q.try_push(mkpkt(300, flow_id=3))
    assert queued_bytes_by_flow(q) == {3: 1300, 4: 700}


# ----------------------------------------------------------------------
# Link integration
# ----------------------------------------------------------------------
def _drive_link(discipline, rate_mbps=8.0, n=60, gap=0.0005, size=1200,
                trace=None):
    loop = EventLoop()
    trace = trace or BandwidthTrace.constant(rate_mbps * 1e6, duration=30.0)
    delivered, dropped = [], []
    link = Link(loop, trace, queue_capacity_bytes=20_000,
                on_deliver=delivered.append, on_drop=dropped.append,
                discipline=discipline)
    for i in range(n):
        loop.call_at(i * gap, (lambda p: (lambda: link.send(p)))(
            Packet(size_bytes=size)))
    loop.run(until=10.0)
    return link, delivered, dropped


@pytest.mark.parametrize("name", ALL_DISCIPLINES)
def test_link_conserves_packets(name):
    q = make_discipline(name, 20_000)
    link, delivered, dropped = _drive_link(q)
    assert len(delivered) + len(dropped) == 60
    assert link.stats.delivered_packets == len(delivered)
    assert link.stats.dropped_packets == len(dropped)
    assert link.queued_bytes == 0 and len(link.queue) == 0
    assert all(p.dropped for p in dropped)


def test_link_codel_drops_are_accounted():
    q = CoDelDiscipline(1_000_000, target_s=0.002, interval_s=0.01)
    link, delivered, dropped = _drive_link(q, rate_mbps=2.0, n=200)
    assert q.aqm_drops > 0
    # AQM head drops flow through on_drop and the link stats.
    assert len(dropped) >= q.aqm_drops
    assert link.stats.dropped_packets == len(dropped)
    assert len(delivered) + len(dropped) == 200


def test_discipline_state_survives_trace_rate_step():
    """AQM keeps working across a bandwidth step (state not reset)."""
    trace = make_step_trace(10.0, 0.5, step_at=2.0, duration=12.0)
    q = CoDelDiscipline(1_000_000, target_s=0.005, interval_s=0.05)
    loop = EventLoop()
    delivered, dropped = [], []
    link = Link(loop, trace, on_deliver=delivered.append,
                on_drop=dropped.append, discipline=q)
    for i in range(600):
        loop.call_at(0.005 * i, (lambda p: (lambda: link.send(p)))(
            Packet(size_bytes=1200)))
    loop.run(until=30.0)
    assert len(delivered) + len(dropped) == 600
    # The post-step 1 Mbps phase builds a standing queue CoDel trims.
    assert q.aqm_drops > 0
    assert link.queued_bytes == 0


def test_explicit_droptail_is_fast_path_and_identical():
    def run(discipline):
        loop = EventLoop()
        trace = BandwidthTrace.constant(4e6, duration=10.0)
        delivered, dropped = [], []
        link = Link(loop, trace, queue_capacity_bytes=6000,
                    on_deliver=delivered.append, on_drop=dropped.append,
                    discipline=discipline)
        link.depart_at_enqueue(0.0)
        packets = [Packet(size_bytes=1200, seq=i) for i in range(40)]
        for i, packet in enumerate(packets):
            loop.call_at(0.0004 * i, lambda p=packet: link.send(p))
        loop.run(until=5.0)
        return ([p.seq for p in delivered], len(dropped),
                [(p.t_enter_queue, p.t_leave_queue) for p in packets],
                link.server is not None)

    default = run(None)
    explicit = run(DropTailQueue(6000))
    assert default == explicit
    assert default[1] > 0 and default[3] is True


def test_link_generic_path_flag():
    loop = EventLoop()
    trace = BandwidthTrace.constant(4e6, duration=5.0)
    link = Link(loop, trace, discipline=CoDelDiscipline(10_000))
    link.depart_at_enqueue(0.0)
    assert link.server is None      # only plain drop-tail has a closed form
    assert link.queue.drop_hook is not None

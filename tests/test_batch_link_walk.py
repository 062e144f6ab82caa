"""The drop-tail server's train scan is the per-packet drop-tail walk.

``DropTailServer.offer_train`` commits the packets ahead of a train's
first tail drop in one vector step; its feeder offers the rest one by
one (DESIGN §10, *Bottleneck walk*). Here a server's ledger is loaded
with generated pending departures — ``(start, finish, size)`` tuples and
``[finishes, cum_bytes, pos]`` chunks with ``pos > 0`` — and fed
generated trains the way the batch engine feeds them; an independent
pure-Python walk of the same state is the oracle. No session, no
pipeline: the server is clock-free.

Two regimes. On the *dyadic* grid (sizes in 64 B steps, power-of-two
rates, times in 2^-14 s ticks) every float operation of both walks is
exact, so exact ties ``finish == entry`` and exact fits ``occupancy +
size == capacity`` are common and must be decided identically, and every
float must match. With *generic* floats the vector lane reassociates
sums, so finish times agree to 1e-12 and inputs where a drop or rate
decision hangs on such a rounding (a finish within 1e-9 of an entry, a
service start within 1e-9 of a trace boundary) are rejected: away from
ties the drop set is defined, and must be equal.

Then the tie rule's other half: a feeder on an event loop passes the
``lead`` it posts arrivals with, and a departure tied with an arrival
has left only if its serve event was numbered first.

The last test is the feedback half of PR 17: a scalar report that rides
among chunks as a chunk of one leaves the queue estimator and GCC
exactly where per-packet ingestion of the same interval leaves them.
"""

from collections import deque
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.queue_estimator import QueueEstimator
from repro.net.link import DropTailServer, LinkStats
from repro.net.packet import Packet
from repro.net.trace import BandwidthTrace
from repro.transport.cc.gcc import GccController
from repro.transport.feedback import FeedbackBuilder, ReportBatch

TICK = 2.0 ** -14               # 64 B at 2^23 bps
T0 = 1.0                        # first entry of every generated train
NEAR = 1e-9


class NearTie(Exception):
    """A decision of the walk hangs on float rounding."""


def reference_walk(trace, capacity, pending, busy, trains, exact):
    """Per-packet drop-tail walk: the oracle.

    ``pending`` is the FIFO of ``(finish, size)`` still queued, ``busy``
    the link's busy-until. Returns per-train occupancy (at the train's
    last entry), the dropped indices, finish time per admitted index and
    the counters the server books in ``LinkStats``.
    """
    boundaries = trace._ts_list
    pending = deque(pending)
    queued = sum(size for _f, size in pending)
    occupancy, dropped, finishes = [], [], {}
    stats = {"enqueued_packets": 0, "enqueued_bytes": 0,
             "dropped_packets": 0, "dropped_bytes": 0}
    index = 0
    for entries, sizes in trains:
        for entry, size in zip(entries, sizes):
            if not exact:
                for finish, _size in pending:
                    if abs(finish - entry) < NEAR:
                        raise NearTie
            while pending and pending[0][0] <= entry:
                queued -= pending.popleft()[1]
            if queued + size > capacity:
                dropped.append(index)
                stats["dropped_packets"] += 1
                stats["dropped_bytes"] += size
            else:
                start = max(entry, busy)
                rate = trace.rate_at(start)
                while rate <= 0.0:
                    start += 0.05
                    rate = trace.rate_at(start)
                if not exact and any(abs(start - b) < NEAR
                                     for b in boundaries):
                    raise NearTie
                busy = start + size * 8.0 / rate
                pending.append((busy, size))
                queued += size
                finishes[index] = busy
                stats["enqueued_packets"] += 1
                stats["enqueued_bytes"] += size
            index += 1
        occupancy.append(queued)
    return occupancy, dropped, finishes, stats


def server_walk(trace, capacity, records, queued, busy, trains):
    """The same state and trains through a ``DropTailServer``, fed the
    way ``BatchPipeline._feed_link_train`` feeds it: the train in one
    piece, then whatever follows its first drop one packet at a time."""
    server = DropTailServer(trace, capacity, LinkStats())
    server._ledger.extend(records)
    server.queued_bytes = queued
    server.busy_until = busy
    occupancy, dropped, finishes = [], [], {}
    lanes = [0, 0]                  # vector, scalar
    lo = 0
    for entries, sizes in trains:
        e = np.array(entries)
        sizes = np.asarray(sizes, dtype=np.int64)
        prefix = server.offer_train(e, sizes,
                                    np.cumsum(sizes, dtype=np.float64))
        k, n = len(prefix), len(sizes)
        finishes.update(zip(range(lo, lo + k), prefix.tolist()))
        for i in range(k, n):
            finish = server.offer(float(e[i]), int(sizes[i]))
            if finish is None:
                dropped.append(lo + i)
            else:
                finishes[lo + i] = finish
        lanes[0] += k
        lanes[1] += n - k
        # Departures are retired lazily; bring occupancy to the train's
        # last entry, where the per-packet walk left it.
        server.retire(float(e[-1]))
        occupancy.append(server.queued_bytes)
        lo += n
    stats = asdict(server.stats)
    assert stats.pop("delivered_packets") == stats.pop("delivered_bytes") == 0
    assert (stats["enqueued_packets"] + stats["dropped_packets"]
            == sum(lanes) == lo)
    return occupancy, dropped, finishes, stats, tuple(lanes)


def as_records(pending, cuts, ghosts, first_entry):
    """Split pending ``(finish, size)`` packets into ledger records: runs
    between ``cuts`` become chunks (every other run) or ``(start, finish,
    size)`` tuples; a chunk gets ``ghosts`` already-retired packets in
    front (``pos > 0``).
    """
    records = []
    edges = sorted({0, len(pending), *(c for c in cuts if c < len(pending))})
    for number, (a, b) in enumerate(zip(edges, edges[1:])):
        run = pending[a:b]
        if number % 2:
            records.extend((finish - TICK, finish, size)
                           for finish, size in run)
            continue
        floor = min(run[0][0], first_entry)
        gone = [(floor - (ghosts - j) * TICK, 64 * (j + 1))
                for j in range(ghosts)]
        f = np.array([finish for finish, _s in gone + run])
        cum = np.cumsum([size for _f, size in gone + run], dtype=np.float64)
        records.append([f, cum, ghosts])
    return records


@st.composite
def link_states(draw, dyadic):
    def span(lo, hi):
        if dyadic:
            return draw(st.integers(lo, hi)) * TICK
        return draw(st.floats(lo * TICK, hi * TICK))

    if dyadic:
        size = st.integers(1, 23).map(lambda k: 64 * k)
        rate = st.sampled_from([2.0 ** 22, 2.0 ** 23, 2.0 ** 24])
        rates = [draw(rate), draw(rate), draw(rate)]
    else:
        size = st.integers(60, 1500)
        rate = st.floats(2e6, 4e7)
        rates = [draw(rate | st.just(0.0)), draw(rate | st.just(0.0)),
                 draw(rate)]
    count = draw(st.integers(1, 36))
    sizes = draw(st.lists(size, min_size=count, max_size=count))
    # From all-equal entries (burst pacer) to several service times apart.
    widest = draw(st.sampled_from([0, 12, 30, 90]))
    entries = [T0]
    for _ in range(count - 1):
        entries.append(entries[-1] + span(0, widest))
    split = sorted(draw(st.sets(st.integers(1, count), max_size=2)) | {count})
    trains, lo = [], 0
    for hi in split:
        if hi > lo:
            trains.append((entries[lo:hi], sizes[lo:hi]))
            lo = hi
    # From one packet to more than the train.
    capacity = (draw(st.integers(23, 23 * 40)) * 64 if dyadic
                else draw(st.integers(1500, 1500 * 40)))
    # Older packets still queued: finishes from before the first entry to
    # past the last one, so busy-until lands before/inside/after the train.
    older = draw(st.lists(size, max_size=12))
    pending, finish, queued = [], T0 + span(-20, 40), 0
    for old in older:
        if queued + old > capacity:
            break
        queued += old
        finish += span(1, 30)
        pending.append((finish, old))
    busy = pending[-1][0] if pending else T0 - span(0, 40)
    records = as_records(pending, draw(st.sets(st.integers(1, 11),
                                               max_size=3)),
                         draw(st.integers(1, 3)), T0)
    # One rate change mid-train and a second sample boundary behind it.
    change = T0 + span(1, 400)
    times = [0.0, change, change + span(1, 200), 1024.0]
    return ((times, rates + rates[-1:]), capacity, pending, records,
            queued, busy, trains)


def check(state, exact):
    (times, rates), capacity, pending, records, queued, busy, trains = state
    try:
        want = reference_walk(BandwidthTrace(times, rates), capacity,
                              pending, busy, trains, exact)
    except NearTie:
        assume(False)
    occupancy, dropped, finishes, stats, _lanes = server_walk(
        BandwidthTrace(times, rates), capacity, records, queued, busy,
        trains)
    want_occupancy, want_dropped, want_finishes, want_stats = want
    assert dropped == want_dropped
    assert occupancy == want_occupancy
    assert sorted(finishes) == sorted(want_finishes)
    tol = 0.0 if exact else 1e-12
    for index, finish in want_finishes.items():
        assert finishes[index] == pytest.approx(finish, rel=tol, abs=0.0)
    assert stats == want_stats


@settings(max_examples=150, deadline=None)
@given(link_states(dyadic=True))
def test_scan_is_the_walk_on_the_dyadic_grid(state):
    check(state, exact=True)


@settings(max_examples=150, deadline=None)
@given(link_states(dyadic=False))
def test_scan_is_the_walk_on_generic_floats(state):
    check(state, exact=False)


def test_exact_fit_is_admitted_and_an_exact_tie_has_departed():
    """1 024 B packets of one 2^-10 s tick each, room for two, one older
    packet still in service. Packet 0 fits exactly beside it; packet 1
    enters at the instant the older one finishes, packet 2 at the instant
    packet 0 does, and each takes the place just freed; packet 3, at that
    same instant, is the first drop — so the vector lane carries exactly
    the three packets ahead of it. (A scan that kept a tied packet in the
    queue would only hand the walk a shorter prefix: the lane counts, not
    the outcome, are what pin the tie rule.)"""
    tick = 2.0 ** -10
    trace = BandwidthTrace.constant(8 * 2.0 ** 20, duration=8.0)
    entries = [T0, T0 + tick, T0 + 2 * tick, T0 + 2 * tick, T0 + 3 * tick]
    trains = [(entries, [1024] * 5)]
    older = [np.array([T0 - tick, T0 + tick]), np.array([1024.0, 2048.0]), 1]
    want = reference_walk(trace, 2048, [(T0 + tick, 1024)], T0 + tick,
                          trains, exact=True)
    occupancy, dropped, finishes, stats, lanes = server_walk(
        trace, 2048, [older], 1024, T0 + tick, trains)
    assert dropped == want[1] == [3]
    assert occupancy == want[0] == [2048]
    assert finishes == want[2]
    assert [finishes[i] for i in (0, 1, 2, 4)] == [
        T0 + 2 * tick, T0 + 3 * tick, T0 + 4 * tick, T0 + 5 * tick]
    assert lanes == (3, 2)
    assert stats == want[3]


def test_a_tied_departure_has_left_only_if_its_serve_event_came_first():
    """One 1 024 B slot, one tick of service per packet, a second packet
    offered at the instant the first finishes. A feeder that posts its
    arrivals further ahead than a service time numbered the arrival
    before the serve event: the newcomer meets a full queue. With no
    lead — or one shorter than the service time — the departure comes
    first. These are the two orders
    ``test_link_closed_form.test_both_tie_orders_occur_and_differ`` shows
    on the evented link."""
    tick = 2.0 ** -10
    trace = BandwidthTrace.constant(8 * 2.0 ** 20, duration=8.0)

    def second_offer(lead):
        server = DropTailServer(trace, 1024, LinkStats())
        assert server.offer(T0, 1024, lead) == T0 + tick
        return server, server.offer(T0 + tick, 1024, lead)

    server, finish = second_offer(lead=4 * tick)
    assert finish is None and server.stats.dropped_packets == 1
    assert (server.queued_bytes, server.queued_packets) == (1024, 1)
    server.retire(T0 + tick)        # a read has no event number: it left
    assert (server.queued_bytes, server.queued_packets) == (0, 0)
    for lead in (0.0, tick / 4, tick):
        server, finish = second_offer(lead)
        assert finish == T0 + 2 * tick and server.stats.dropped_packets == 0
        assert (server.queued_bytes, server.queued_packets) == (1024, 1)


# ---------------------------------------------------------------------------
# mixed feedback intervals stay columnar
# ---------------------------------------------------------------------------
_report = st.tuples(st.floats(1e-5, 5e-3),      # arrival gap
                    st.floats(0.01, 0.08),      # one-way delay
                    st.integers(60, 1500),      # size
                    st.booleans())              # rides the scalar lane


def _rows(reports):
    return [(r.seq, r.send_time, r.arrival_time, r.size_bytes, r.frame_id)
            for r in reports]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(_report, min_size=1, max_size=40),
                min_size=1, max_size=4))
def test_chunk_of_one_ingestion_matches_scalar_ingestion(intervals):
    columnar, scalar = FeedbackBuilder(), FeedbackBuilder()
    consumers = [(QueueEstimator(), GccController()) for _ in range(2)]
    now, seq = 0.0, 0
    run = []        # fresh packets waiting to ride as one chunk

    def flush():
        if run:
            sends, arrivals, sizes = (np.array(col) for col in zip(*run))
            columnar.on_chunk(seq - len(run), sends, arrivals, sizes, 7)
            run.clear()

    for interval in intervals:
        for gap, delay, size, alone in interval:
            now += gap
            packet = Packet(size_bytes=size, seq=seq, frame_id=7)
            packet.t_leave_pacer, packet.t_arrival = now - delay, now
            scalar.on_packet(packet)
            if alone:
                flush()
                columnar.on_packet(packet)
            else:
                run.append((now - delay, now, size))
            seq += 1
        flush()
        now += 0.01
        messages = (columnar.build(now), scalar.build(now))
        # Columnar as soon as one chunk rode in the interval.
        assert (type(messages[0].reports) is ReportBatch) \
            == (not all(alone for *_rest, alone in interval))
        assert type(messages[1].reports) is list
        assert _rows(messages[0].reports) == _rows(messages[1].reports)
        for (estimator, gcc), message in zip(consumers, messages):
            estimator.on_feedback(message, now, reverse_delay=0.01)
            gcc.on_feedback(message, now)
        (est_a, gcc_a), (est_b, gcc_b) = consumers
        assert est_a._standing == est_b._standing
        assert est_a._peaks == est_b._peaks
        assert est_a._rtt_min == est_b._rtt_min
        assert (list(est_a.packet_pair._samples)
                == list(est_b.packet_pair._samples))
        assert gcc_a.trendline._samples == gcc_b.trendline._samples
        assert (gcc_a._current_group, gcc_a._prev_group) \
            == (gcc_b._current_group, gcc_b._prev_group)
        assert gcc_a.detector.threshold == gcc_b.detector.threshold
        assert (gcc_a.bwe_bps, gcc_a._state) == (gcc_b.bwe_bps, gcc_b._state)

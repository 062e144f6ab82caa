"""The closed-form drop-tail link is the evented link, bit for bit.

``NetworkPath`` puts a lone plain drop-tail hop on ``Link``'s closed
form (a ``DropTailServer`` computes departures at enqueue, no
``link.serve`` event); asking the link to ``depart_by_event()`` before
the first packet — what the auditor does — gives the evented twin. Both
are driven with the same arrival sequence and must agree on every
stamp, drop, state read and counter.

Two ties the closed form cannot see are kept out of the generated
inputs, because the evented order there hangs on event numbers only the
evented run has: a packet whose service time equals the half-hop exactly
(departure and arrival tie *and* their events were numbered at the same
instant), and a state read at exactly an arrival or departure instant.
"""

from dataclasses import asdict

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.audit.auditor import attach_audit
from repro.net.cross_traffic import CrossTrafficFlow
from repro.net.packet import Packet
from repro.net.path import NetworkPath, PathConfig
from repro.net.trace import BandwidthTrace, make_wifi_trace
from repro.rtc.baselines import build_session
from repro.rtc.session import SessionConfig
from repro.sim.events import EventLoop
from repro.sim.rng import RngStream
from tests.test_sim_regression import fingerprint

GRID = 2.0 ** -10               # 1 024 B at 8·2^20 bps
GRID_RATE = 8 * 2 ** 20


def drive(trace, half_hop, capacity, sends, reads, evented, until):
    """Run ``sends`` [(time, size)] through a path; everything observable."""
    loop = EventLoop()
    path = NetworkPath(loop, trace, PathConfig(
        base_rtt=4 * half_hop, queue_capacity_bytes=capacity))
    assert path._half_hop == half_hop
    link = path.link
    if evented:
        link.depart_by_event()
    assert (link.server is None) == evented
    packets = [Packet(size_bytes=size, seq=i)
               for i, (_t, size) in enumerate(sends)]
    arrivals, drops, seen = [], [], []
    path.on_arrival = lambda p: arrivals.append((loop.now, p.seq))
    path.on_drop = lambda p: drops.append((loop.now, p.seq))
    for (t, _size), packet in zip(sends, packets):
        loop.call_at(t, lambda p=packet: path.send(p))
    for t in reads:
        loop.call_at(t, lambda: seen.append(
            (loop.now, link.queued_bytes, link.queued_packets,
             link.stats.delivered_packets, link.stats.delivered_bytes)))
    loop.run(until=until)
    stamps = [(p.t_enter_queue, p.t_leave_queue, p.t_arrival, p.dropped)
              for p in packets]
    return {"stamps": stamps, "arrivals": arrivals, "drops": drops,
            "reads": seen, "stats": asdict(link.stats),
            "queued": (link.queued_bytes, link.queued_packets),
            "events": loop.processed}


def assert_twins_agree(trace, half_hop, capacity, sends, reads, until):
    evented = drive(trace, half_hop, capacity, sends, [], True, until)
    if reads:       # keep reads off arrival/departure instants (module doc)
        instants = {t for enter, leave, _a, _d in evented["stamps"]
                    for t in (enter, leave) if t is not None}
        reads = [t for t in reads if t not in instants]
        evented = drive(trace, half_hop, capacity, sends, reads, True, until)
    closed = drive(trace, half_hop, capacity, sends, reads, False, until)
    # Each accepted packet's serve event and arrival hop are folded into
    # its release; a tail drop keeps its hop.
    serves = evented["stats"]["delivered_packets"]
    folded = evented["stats"]["enqueued_packets"]
    assert closed.pop("events") <= evented.pop("events") - serves - folded
    assert closed == evented
    return closed


# ----------------------------------------------------------------------
# generated traffic: mixed sizes, gaps from zero to several service
# times, a queue small enough to drop, rate steps and a zero-rate outage
# ----------------------------------------------------------------------
STEP_TRACE = BandwidthTrace(
    timestamps=[0.0, 0.020, 0.045, 0.050, 0.120],
    rates_bps=[4e6, 1e6, 0.0, 12e6, 2.5e6], name="steps")
HALF_HOP = 0.00371

arrival = st.tuples(
    st.one_of(st.just(0.0), st.floats(0.0, 0.012)),     # gap to previous
    st.integers(60, 1500))


@settings(max_examples=120, deadline=None)
@given(st.lists(arrival, min_size=1, max_size=80),
       st.sampled_from([3_000, 9_000, 40_000]),
       st.lists(st.floats(0.0, 0.6), max_size=12))
def test_closed_form_equals_evented_on_generated_traffic(gaps, capacity,
                                                         reads):
    sends, t = [], 0.0
    for gap, size in gaps:
        t += gap
        sends.append((t, size))
        assume(all(size * 8 / rate != HALF_HOP
                   for rate in STEP_TRACE.rates_bps if rate))
    out = assert_twins_agree(STEP_TRACE, HALF_HOP, capacity, sends, reads,
                             until=t + 2.0)
    assert out["queued"] == (0, 0)
    assert (out["stats"]["delivered_packets"] + out["stats"]["dropped_packets"]
            == len(sends))


def test_outage_and_overflow_are_exercised():
    """The generator's regime on one fixed input: drops at the arrival
    instant, a start of service stepped across the zero-rate sample in
    50 ms steps, and state reads while packets are still queued."""
    sends = [(0.042 + 0.0005 * i, 1200) for i in range(12)]
    reads = [0.0470, 0.0601, 0.0953, 0.2]
    out = assert_twins_agree(STEP_TRACE, HALF_HOP, 6_000, sends, reads, 2.0)
    assert len(out["drops"]) == 7
    assert all(t == sends[seq][0] + HALF_HOP for t, seq in out["drops"])
    enter, leave = out["stamps"][0][:2]
    assert enter == 0.042 + HALF_HOP and STEP_TRACE.rate_at(enter) == 0.0
    assert leave == (enter + 0.05) + 1200 * 8 / 12e6    # one 50 ms retry
    assert out["reads"][0][1:4] == (3600, 3, 0)
    assert out["reads"][2][1:4] == (6000, 5, 0)
    assert out["reads"][3][1:4] == (0, 0, 5)


def test_an_outage_that_never_ends_raises_instead_of_spinning():
    """The evented link would retry every 50 ms until the run's horizon;
    the closed form has no horizon, so it bounds the walk and says so —
    at release, where the path asks the link."""
    loop = EventLoop()
    path = NetworkPath(loop, BandwidthTrace.constant(0.0), PathConfig())
    with pytest.raises(RuntimeError, match="outage outlasts"):
        path.send(Packet(size_bytes=1200))


def test_a_tail_dropped_cross_packet_is_reported_at_its_arrival():
    """The path decides a drop at release but reports it half a hop
    later, where the evented link met the packet: cross traffic backs
    off (``on_dropped``) at ``send + half_hop``, not at release."""
    def run(evented):
        loop = EventLoop()
        path = NetworkPath(loop, TIE_TRACE, PathConfig(
            base_rtt=4 * GRID, queue_capacity_bytes=1024))
        if evented:
            path.link.depart_by_event()
        flow = CrossTrafficFlow(loop, path.send, page_bytes=3 * 1024,
                                packet_size=1024)
        backoffs = []
        path.on_drop = lambda p: (backoffs.append((loop.now, p.dropped)),
                                  flow.on_dropped(p))
        path.on_arrival = flow.on_delivered
        loop.call_at(0.25, flow.start)
        loop.run(until=0.5)
        return backoffs, flow.record.lost_packets, loop.processed

    closed, evented = run(False), run(True)
    assert closed[:2] == evented[:2]
    # The first window of three meets a one-packet queue: two drops.
    assert closed[0][:2] == [(0.25 + GRID, True)] * 2
    assert closed[1] == len(closed[0])
    assert closed[2] < evented[2]


# ----------------------------------------------------------------------
# exact ties: powers of two, so departures land on arrival instants
# ----------------------------------------------------------------------
TIE_TRACE = BandwidthTrace.constant(GRID_RATE, duration=4.0)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=2, max_size=40),
       st.sampled_from([2.0 ** -12, 2.0 ** -8]),
       st.sampled_from([2_048, 3_072, 8_192]))
def test_exact_ties_resolve_like_event_numbers(gaps, half_hop, capacity):
    sends, slot = [], 0
    for gap in gaps:
        slot += gap
        sends.append((slot * GRID, 1024))
    assert_twins_agree(TIE_TRACE, half_hop, capacity, sends, [],
                       until=slot * GRID + 1.0)


def test_both_tie_orders_occur_and_differ():
    """Back-to-back packets on the service grid: every arrival after the
    first lands on a departure instant. A short half-hop numbers the
    serve event first (departure, then arrival: room for the newcomer);
    a long one numbers the arrival hop first (the newcomer meets a full
    queue and is dropped)."""
    sends = [(i * GRID, 1024) for i in range(6)]
    short = assert_twins_agree(TIE_TRACE, 2.0 ** -12, 1024, sends, [], 1.0)
    long_ = assert_twins_agree(TIE_TRACE, 2.0 ** -8, 1024, sends, [], 1.0)
    assert len(short["drops"]) == 0
    assert len(long_["drops"]) > 0
    enter, leave = short["stamps"][0][0], short["stamps"][0][1]
    assert short["stamps"][1][0] == leave == enter + GRID       # a true tie
    # Out, then in: each newcomer is served from the instant it arrives.
    assert all(stamp[1] == stamp[0] + GRID for stamp in short["stamps"])
    # In, then out: every other packet meets the one ahead still queued.
    assert [seq for _t, seq in long_["drops"]] == [1, 3, 5]
    assert long_["stamps"][1][0] == long_["stamps"][0][1]       # the same tie
    assert long_["stamps"][2][:2] == (long_["stamps"][0][1] + GRID,
                                      long_["stamps"][0][1] + 2 * GRID)


def test_switching_to_events_keeps_the_books_and_refuses_mid_flight():
    loop = EventLoop()
    path = NetworkPath(loop, TIE_TRACE, PathConfig(
        base_rtt=4 * GRID, queue_capacity_bytes=2048))
    link = path.link
    for size in (1024, 1024, 1024):         # two fit, one tail drop
        path.send(Packet(size_bytes=size))
    loop.run(until=GRID + GRID / 2)         # entered at GRID, serving
    assert (link.queued_bytes, link.queued_packets) == (2048, 2)
    with pytest.raises(RuntimeError, match="departures in flight"):
        link.depart_by_event()
    loop.run(until=1.0)
    link.depart_by_event()
    assert link.server is None
    path.send(Packet(size_bytes=1024))      # an evented packet now
    loop.run(until=2.0)
    assert asdict(link.stats) == {
        "enqueued_packets": 3, "delivered_packets": 3, "dropped_packets": 1,
        "enqueued_bytes": 3072, "delivered_bytes": 3072,
        "dropped_bytes": 1024}


# ----------------------------------------------------------------------
# end to end: a whole session on either link
# ----------------------------------------------------------------------
def test_audited_session_runs_evented_and_matches_the_closed_form_run():
    """The golden configuration (queue overflow included): attaching the
    auditor moves the link onto serve events; frames, packets, BWE
    history and every ``LinkStats`` row equal the closed-form run's."""
    def run(audited):
        session = build_session(
            "ace", BandwidthTrace.constant(20e6, duration=20.0),
            SessionConfig(duration=5.0, seed=3, initial_bwe_bps=8e6))
        auditor = attach_audit(session) if audited else None
        assert (session.path.link.server is None) == audited
        metrics = session.run()
        if auditor is not None:
            assert auditor.finalize() == []
        return (fingerprint(metrics), asdict(session.path.link.stats),
                session.loop.processed)

    closed, evented = run(False), run(True)
    assert closed[0] == evented[0]
    assert closed[1] == evented[1]
    assert closed[1]["dropped_packets"] > 0
    assert closed[2] == (evented[2] - evented[1]["delivered_packets"]
                         - evented[1]["enqueued_packets"])


#: jittered paths, each alone and with what rides along in the weak-
#: network runs: random loss, contention loss, cross traffic, audio, a
#: queue small enough to tail-drop.
JITTERED = {
    "jitter": dict(delay_jitter_std=0.003),
    "loss+cross+audio": dict(delay_jitter_std=0.002, random_loss_rate=0.01,
                             cross_traffic=True, audio=True),
    "loss+contention": dict(delay_jitter_std=0.001, random_loss_rate=0.01,
                            contention_loss_rate=0.05),
    "small queue": dict(delay_jitter_std=0.002, queue_capacity_bytes=30_000),
}


@pytest.mark.parametrize("trace_kind", ["wifi", "const"])
@pytest.mark.parametrize("case", sorted(JITTERED))
def test_jittered_session_equals_its_evented_twin(case, trace_kind):
    """The evented link is the oracle for the closed form under jitter:
    the departure hop is numbered at release, not at service start, and
    the draws keep their order — same fingerprint, same ``LinkStats``.
    A constant rate is where exact float ties are likeliest."""
    def run(evented, seed):
        trace = (make_wifi_trace(RngStream(11, "trace"), duration=13.0)
                 if trace_kind == "wifi"
                 else BandwidthTrace.constant(12e6, duration=13.0))
        session = build_session("ace", trace, SessionConfig(
            duration=3.0, seed=seed, initial_bwe_bps=6e6, **JITTERED[case]))
        if evented:
            session.path.link.depart_by_event()
        assert (session.path.link.server is None) == evented
        metrics = session.run()
        return fingerprint(metrics), asdict(session.path.link.stats)

    for seed in (1, 2, 3):
        closed = run(False, seed)
        assert closed == run(True, seed)
        assert closed[1]["delivered_packets"] > 1_000

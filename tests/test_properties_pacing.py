"""Property-based tests on pacer egress invariants."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.net.packet import Packet
from repro.net.trace import trace_by_kind
from repro.rtc.baselines import build_session, get_spec
from repro.rtc.session import SessionConfig
from repro.sim.events import EventLoop
from repro.sim.rng import RngStream
from repro.transport.pacer.base import Pacer
from repro.transport.pacer.burst import BurstPacer
from repro.transport.pacer.leaky_bucket import LeakyBucketPacer
from repro.transport.pacer.token_bucket_pacer import TokenBucketPacer

frame_trains = st.lists(
    st.tuples(st.integers(min_value=1, max_value=20),      # packets in frame
              st.integers(min_value=200, max_value=1200)),  # packet size
    min_size=1, max_size=10)


def make_packets(train, frame_id, seq0):
    count, size = train
    return [Packet(size_bytes=size, seq=seq0 + i, frame_id=frame_id,
                   frame_packet_index=i, frame_packet_count=count)
            for i in range(count)]


def run_pacer(pacer_factory, trains, rate_bps=2e6):
    loop = EventLoop()
    sent = []
    pacer = pacer_factory(loop, lambda p: sent.append((loop.now, p)))
    pacer.set_pacing_rate(rate_bps)
    seq = 0
    for frame_id, train in enumerate(trains):
        packets = make_packets(train, frame_id, seq)
        seq += len(packets)
        loop.call_at(frame_id * (1 / 30.0),
                     lambda pkts=packets: pacer.enqueue(pkts))
    loop.drain(max_events=500_000)
    return sent, pacer


@settings(max_examples=30, deadline=None)
@given(trains=frame_trains)
def test_all_pacers_deliver_everything_in_fifo_order(trains):
    total = sum(count for count, _ in trains)
    for factory in (
        lambda l, s: LeakyBucketPacer(l, s),
        lambda l, s: BurstPacer(l, s),
        lambda l, s: TokenBucketPacer(l, s, initial_bucket_bytes=5_000),
    ):
        sent, pacer = run_pacer(factory, trains)
        assert len(sent) == total
        seqs = [p.seq for _, p in sent]
        assert seqs == sorted(seqs), "media must leave in FIFO order"
        assert pacer.queued_packets == 0


@settings(max_examples=30, deadline=None)
@given(trains=frame_trains,
       rate=st.floats(min_value=5e5, max_value=5e7),
       bucket=st.floats(min_value=2400, max_value=100_000))
def test_token_bucket_egress_bounded(trains, rate, bucket):
    """Cumulative egress over any window never exceeds bucket + rate*t."""
    loop = EventLoop()
    sent = []
    pacer = TokenBucketPacer(loop, lambda p: sent.append((loop.now, p)),
                             initial_bucket_bytes=bucket)
    pacer.rate_factor = 1.0
    pacer.set_pacing_rate(rate)
    seq = 0
    for frame_id, train in enumerate(trains):
        packets = make_packets(train, frame_id, seq)
        seq += len(packets)
        loop.call_at(frame_id * (1 / 30.0),
                     lambda pkts=packets: pacer.enqueue(pkts))
    loop.drain(max_events=500_000)
    if not sent:
        return
    t0 = sent[0][0]
    cumulative = 0
    mtu = 1200
    for t, p in sent:
        cumulative += p.size_bytes
        allowance = (pacer.bucket.bucket_bytes + rate / 8 * (t - t0)
                     + cumulative * 0 + p.size_bytes)
        # bucket pre-fill + refill + the packet currently leaving
        assert cumulative <= allowance + mtu + 1e-6


@settings(max_examples=30, deadline=None)
@given(trains=frame_trains)
def test_pacing_delays_nonnegative(trains):
    sent, pacer = run_pacer(lambda l, s: LeakyBucketPacer(l, s), trains)
    assert all(p.t_leave_pacer - p.t_enqueue_pacer >= -1e-12
               for _, p in sent)


# ----------------------------------------------------------------------
# release_train: each pacer's closed form is its own pump
# ----------------------------------------------------------------------
T0 = 0.01       # the backlog is enqueued here; buckets were built at 0


def _make_pacer(kind, loop, send, rate, bucket, spent, slot):
    """A pacer in a random but reproducible state at ``T0``."""
    if kind == "token":
        pacer = TokenBucketPacer(loop, send, initial_bucket_bytes=bucket)
        pacer.rate_factor = 1.0
        pacer.set_pacing_rate(rate)
        pacer.bucket.consume(spent * bucket, 0.0)
    elif kind == "leaky":
        pacer = LeakyBucketPacer(loop, send)
        pacer.set_pacing_rate(rate)
        pacer._next_send_time = T0 + slot   # a send just before the backlog
    else:
        pacer = BurstPacer(loop, send)
    return pacer


def _closed_form_pacer(kind, *state):
    loop = EventLoop()
    pacer = _make_pacer(kind, loop, lambda p: None, *state)
    loop.now = T0
    return loop, pacer


@pytest.mark.parametrize("kind", ["token", "leaky", "burst"])
@settings(max_examples=100, deadline=None)
@given(sizes=st.lists(st.integers(min_value=200, max_value=1200),
                      min_size=1, max_size=60),
       rate=st.floats(min_value=5e5, max_value=5e7),
       bucket=st.floats(min_value=2400, max_value=100_000),
       spent=st.floats(min_value=0.0, max_value=1.0),
       slot=st.floats(min_value=-0.005, max_value=0.02),
       cut=st.floats(min_value=0.0, max_value=1.2))
def test_release_train_is_the_pump(kind, sizes, rate, bucket, spent, slot,
                                   cut):
    """What the batch engine asks a pacer for is what its pump does on an
    event loop — to within the pump's own delay floor — whether the train
    is taken whole or cut at a ``target`` and continued."""
    state = (rate, bucket, spent, slot)
    loop = EventLoop()
    pumped = []
    pump = _make_pacer(kind, loop, lambda p: pumped.append(loop.now), *state)
    packets = [Packet(size_bytes=size, seq=i, frame_id=0,
                      frame_packet_index=i, frame_packet_count=len(sizes))
               for i, size in enumerate(sizes)]
    loop.call_at(T0, lambda: pump.enqueue(packets))
    loop.drain(max_events=10_000)
    assert len(pumped) == len(sizes)
    tol = Pacer.MIN_PUMP_DELAY_S + 1e-9

    sizes = np.array(sizes, dtype=np.int64)
    cum = np.cumsum(sizes, dtype=np.float64)
    _, whole = _closed_form_pacer(kind, *state)
    d = whole.release_train(sizes, cum, T0, math.inf)
    assert np.abs(d - np.array(pumped)).max() <= tol

    # Cut at a target inside (or past) the drain, then continue.
    target = T0 + cut * (pumped[-1] - T0)
    split_loop, split = _closed_form_pacer(kind, *state)
    first = split.release_train(sizes, cum, T0, target)
    n = len(first)
    assert np.all(first <= target)
    rest = np.empty(0)
    if n < len(sizes):
        assert d[n] > target - 1e-9, "stopped short of the target"
        floor = float(first[-1]) if n else T0
        rest = split.release_train(
            sizes[n:], cum[n:] - (cum[n - 1] if n else 0.0), floor, math.inf)
    assert len(rest) == len(sizes) - n
    np.testing.assert_allclose(np.concatenate([first, rest]), d,
                               rtol=0, atol=1e-9)

    # The policy state left behind is the pump's: both answer the next
    # packet the same way.
    split_loop.now = loop.now
    probe = Packet(size_bytes=1200)
    assert split._take(probe) == pytest.approx(pump._take(probe), abs=tol)


def test_a_pacer_without_a_closed_form_says_so():
    class Custom(Pacer):
        __slots__ = ()

        def _take(self, packet):
            return 0.0

    pacer = Custom(EventLoop(), lambda p: None)
    assert pacer.release_train(np.array([1200]), np.array([1200.0]),
                               0.0, 1.0) is None


# ----------------------------------------------------------------------
# the burst limit: a bottomless token bucket is the burst pacer
# ----------------------------------------------------------------------
def _bottomless(clock, send):
    return TokenBucketPacer(clock, send, initial_bucket_bytes=1e9)


@settings(max_examples=10, deadline=None)
@given(kind=st.sampled_from(["const:20", "wifi"]),
       seed=st.integers(min_value=1, max_value=50),
       engine=st.sampled_from(["reference", "batch"]))
def test_a_bottomless_token_bucket_is_the_burst_pacer(kind, seed, engine):
    """ACE-N's upper limit (Fig. 10's AlwaysBurst): a token bucket too
    deep to run dry releases every packet when ``webrtc-nopacer``'s
    ``BurstPacer`` does, on either engine."""
    trace = trace_by_kind(kind, RngStream(seed, "trace"), 16.0)
    config = SessionConfig(duration=8.0, seed=seed)
    burst = get_spec("webrtc-nopacer")
    logs = [build_session(spec, trace, config, engine=engine).run()
            .send_events for spec in (burst, replace(burst, pacer=_bottomless))]
    assert len(logs[0]) > 1000
    assert logs[0] == logs[1]

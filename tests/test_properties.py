"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.core.ace_c import AceCController
from repro.core.token_bucket import EPSILON_BYTES, TokenBucket
from repro.net.link import DropTailQueue
from repro.net.packet import Packet
from repro.net.trace import BandwidthTrace
from repro.sim.events import EventLoop
from repro.transport.rtp import Packetizer
from repro.video.frame import EncodedFrame
from repro.video.quality import QualityModel

sizes = st.integers(min_value=1, max_value=5000)
rates = st.floats(min_value=1e4, max_value=1e9, allow_nan=False)


# ----------------------------------------------------------------------
# token bucket
# ----------------------------------------------------------------------
@given(rate=rates, bucket=st.floats(min_value=1.0, max_value=1e7),
       demands=st.lists(st.floats(min_value=1.0, max_value=1e6), max_size=30))
def test_tokens_never_negative_or_above_bucket(rate, bucket, demands):
    tb = TokenBucket(rate_bps=rate, bucket_bytes=bucket, now=0.0)
    t = 0.0
    for demand in demands:
        t += 0.001
        tb.take(demand, t)
        tokens = tb.level_at(t)
        assert -EPSILON_BYTES <= tokens <= bucket + EPSILON_BYTES


@given(rate=rates, size=st.floats(min_value=1.0, max_value=1e6))
def test_wait_time_is_sufficient(rate, size):
    """After waiting the time ``take`` asked for, the send must be possible."""
    tb = TokenBucket(rate_bps=rate, bucket_bytes=2e6, now=0.0)
    tb.consume(2e6, 0.0)                    # start empty
    wait = tb.take(size, 0.0)
    assert wait >= 0.0
    assert tb.take(size, wait + 1e-9) == 0.0


@settings(max_examples=200, deadline=None)
@given(rate=rates, bucket=st.floats(min_value=1.0, max_value=1e5),
       fill=st.floats(min_value=0.0, max_value=1.0),
       asks=st.lists(st.tuples(
           st.sampled_from([0.0, 1e-6]) | st.floats(0.0, 0.05),
           st.floats(min_value=1.0, max_value=2e5)), max_size=40))
def test_take_is_the_wait_then_the_consume(rate, bucket, fill, asks):
    """``take`` is, bit for bit, the law stated in steps: refill, wait
    until the (size-clamped) demand is there; on no wait, ``consume`` —
    and drain the bucket for a packet larger than it, which ``consume``
    refuses."""
    fused, split = TokenBucket(rate, bucket), TokenBucket(rate, bucket)
    for tb in (fused, split):            # start ``fill`` full
        tb.consume(bucket - fill * bucket, 0.0)
    t = 0.0
    for gap, size in asks:
        t += gap
        split.consume(0.0, t)               # the refill alone
        needed = min(size, bucket) - split.level_at(t)
        wait = needed * 8.0 / rate if needed > EPSILON_BYTES else 0.0
        if wait == 0.0 and not split.consume(size, t):
            split.consume(split.level_at(t), t)
        assert fused.take(size, t) == wait
        assert (fused._tokens, fused._last_refill) \
            == (split._tokens, split._last_refill)


# ----------------------------------------------------------------------
# drop-tail queue
# ----------------------------------------------------------------------
@given(capacity=st.integers(min_value=1200, max_value=100_000),
       arrivals=st.lists(sizes, max_size=100))
def test_queue_bytes_never_exceed_capacity(capacity, arrivals):
    q = DropTailQueue(capacity_bytes=capacity)
    for size in arrivals:
        q.enqueue(Packet(size_bytes=size), 0.0)
        assert 0 <= q.bytes_queued <= capacity


@given(arrivals=st.lists(sizes, min_size=1, max_size=50))
def test_queue_is_fifo(arrivals):
    q = DropTailQueue(capacity_bytes=10**9)
    packets = [Packet(size_bytes=s) for s in arrivals]
    for p in packets:
        assert q.enqueue(p, 0.0)
    popped = [q.pop_head() for _ in range(len(packets))]
    assert popped == packets


# ----------------------------------------------------------------------
# packetizer
# ----------------------------------------------------------------------
@given(frame_bytes=st.integers(min_value=1, max_value=2_000_000),
       payload=st.integers(min_value=100, max_value=1500))
def test_packetization_conserves_bytes(frame_bytes, payload):
    pk = Packetizer(payload_bytes=payload)
    frame = EncodedFrame(frame_id=0, capture_time=0.0, size_bytes=frame_bytes,
                         encode_time=0.005, quality_vmaf=80.0,
                         complexity_level=0, qp=26.0, satd=1.0,
                         planned_bytes=frame_bytes)
    packets = pk.packetize(frame)
    assert sum(p.size_bytes for p in packets) == frame_bytes
    assert all(0 < p.size_bytes <= payload for p in packets)
    assert [p.seq for p in packets] == list(range(len(packets)))
    assert len(packets) == math.ceil(frame_bytes / payload)


# ----------------------------------------------------------------------
# quality model
# ----------------------------------------------------------------------
@given(bits=st.floats(min_value=0.0, max_value=1e9),
       satd=st.floats(min_value=1e-3, max_value=100.0))
def test_quality_bounded(bits, satd):
    qm = QualityModel()
    score = qm.score(bits, satd)
    assert 0.0 <= score <= qm.VMAX


@given(satd=st.floats(min_value=1e-2, max_value=50.0),
       target=st.floats(min_value=1.0, max_value=99.0))
def test_quality_inversion_roundtrip(satd, target):
    qm = QualityModel()
    bits = qm.bits_for_score(target, satd)
    assert math.isclose(qm.score(bits, satd), target, rel_tol=1e-6)


@given(satd=st.floats(min_value=1e-2, max_value=50.0),
       bits_a=st.floats(min_value=1.0, max_value=1e8),
       bits_b=st.floats(min_value=1.0, max_value=1e8))
def test_quality_monotone_in_bits(satd, bits_a, bits_b):
    qm = QualityModel()
    lo, hi = sorted((bits_a, bits_b))
    # tolerance for float rounding at the saturation plateau
    assert qm.score(lo, satd) <= qm.score(hi, satd) + 1e-9


# ----------------------------------------------------------------------
# traces
# ----------------------------------------------------------------------
@given(rates_list=st.lists(st.floats(min_value=1e3, max_value=1e9),
                           min_size=1, max_size=50),
       t=st.floats(min_value=0.0, max_value=1e4))
def test_trace_lookup_always_in_range(rates_list, t):
    trace = BandwidthTrace(
        timestamps=[i * 0.2 for i in range(len(rates_list))],
        rates_bps=rates_list)
    rate = trace.rate_at(t)
    assert min(rates_list) <= rate <= max(rates_list)


# ----------------------------------------------------------------------
# event loop ordering
# ----------------------------------------------------------------------
@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0),
                       min_size=1, max_size=50))
def test_event_loop_fires_in_nondecreasing_time(delays):
    loop = EventLoop()
    fired = []
    for d in delays:
        loop.call_at(d, lambda d=d: fired.append(loop.now))
    loop.drain()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# ----------------------------------------------------------------------
# ACE-C gain
# ----------------------------------------------------------------------
@given(rho=st.floats(min_value=0.05, max_value=10.0),
       fps=st.floats(min_value=10.0, max_value=120.0))
def test_gain_zero_for_base_level(rho, fps):
    ctrl = AceCController(num_levels=3, fps=fps)
    assert ctrl.gain(0, rho) == 0.0


@given(rho_small=st.floats(min_value=0.05, max_value=1.0),
       rho_big=st.floats(min_value=1.0, max_value=10.0))
def test_gain_monotone_in_rho(rho_small, rho_big):
    """Bigger predicted frames always make elevation more attractive."""
    ctrl = AceCController(num_levels=3, fps=30.0)
    for level in (1, 2):
        assert ctrl.gain(level, rho_big) >= ctrl.gain(level, rho_small)


@given(satd=st.floats(min_value=1e-3, max_value=100.0),
       mean=st.floats(min_value=1e-3, max_value=100.0))
def test_selected_level_is_valid(satd, mean):
    ctrl = AceCController(num_levels=3, fps=30.0)
    level = ctrl.select_complexity(0, satd, mean, now=0.0)
    assert 0 <= level < 3
    assert ctrl.log.input[-1] > 0  # rho-hat

"""Tests for the pacer implementations."""

import pytest

from repro.net.packet import Packet
from repro.sim.events import EventLoop
from repro.transport.pacer.burst import BurstPacer
from repro.transport.pacer.leaky_bucket import LeakyBucketPacer
from repro.transport.pacer.token_bucket_pacer import TokenBucketPacer


def packets(n, size=1200, frame_id=0, start_seq=0):
    return [Packet(size_bytes=size, seq=start_seq + i, frame_id=frame_id,
                   frame_packet_index=i, frame_packet_count=n)
            for i in range(n)]


class TestLeakyBucketPacer:
    def test_drains_at_pacing_rate(self):
        loop = EventLoop()
        sent = []
        pacer = LeakyBucketPacer(loop, lambda p: sent.append((loop.now, p)))
        pacer.set_pacing_rate(1.2e6)  # 1200B packet = 8 ms
        pacer.enqueue(packets(3))
        loop.drain()
        times = [t for t, _ in sent]
        assert times[0] == pytest.approx(0.0, abs=1e-6)
        assert times[1] == pytest.approx(0.008, abs=1e-4)
        assert times[2] == pytest.approx(0.016, abs=1e-4)

    def test_pacing_factor_scales_rate(self):
        loop = EventLoop()
        sent = []
        pacer = LeakyBucketPacer(loop, lambda p: sent.append(loop.now),
                                 pacing_factor=2.0)
        pacer.set_pacing_rate(1.2e6)
        pacer.enqueue(packets(3))
        loop.drain()
        assert sent[2] == pytest.approx(0.008, abs=1e-4)

    def test_pacing_delay_recorded(self):
        loop = EventLoop()
        pacer = LeakyBucketPacer(loop, lambda p: None)
        pacer.set_pacing_rate(1.2e6)
        pacer.enqueue(packets(5))
        loop.drain()
        delays = pacer.stats.pacing_delays
        assert len(delays) == 5
        assert list(delays) == sorted(delays)  # later packets wait longer

    def test_rtx_priority(self):
        loop = EventLoop()
        sent = []
        pacer = LeakyBucketPacer(loop, lambda p: sent.append(p))
        pacer.set_pacing_rate(1.2e6)
        pacer.enqueue(packets(3))
        rtx = Packet(size_bytes=1200, retransmission_of=99)
        pacer.enqueue_retransmission(rtx)
        loop.drain()
        assert sent[0] is rtx or sent[1] is rtx  # ahead of most media

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            LeakyBucketPacer(EventLoop(), lambda p: None, pacing_factor=0)


class TestPacerStatsBounds:
    """The per-packet sample sequences are bounded rings (regression:
    they grew ~100 B/packet forever, an unbounded leak on soak runs)."""

    def test_sample_rings_are_capped(self):
        from repro.transport.pacer.base import DEFAULT_SAMPLE_CAP, PacerStats
        stats = PacerStats()
        for i in range(DEFAULT_SAMPLE_CAP + 500):
            stats.pacing_delays.append(float(i))
            stats.occupancy_samples.append((float(i), i))
        assert len(stats.pacing_delays) == DEFAULT_SAMPLE_CAP
        assert len(stats.occupancy_samples) == DEFAULT_SAMPLE_CAP
        # Oldest samples rotated out; the newest survive.
        assert stats.pacing_delays[-1] == float(DEFAULT_SAMPLE_CAP + 499)
        assert stats.pacing_delays[0] == 500.0

    def test_rebound_keeps_newest_samples(self):
        from repro.transport.pacer.base import PacerStats
        stats = PacerStats()
        for i in range(100):
            stats.pacing_delays.append(float(i))
        stats.rebound(10)
        assert list(stats.pacing_delays) == [float(i) for i in range(90, 100)]
        # The new cap holds from now on.
        stats.pacing_delays.append(100.0)
        assert len(stats.pacing_delays) == 10
        assert stats.pacing_delays[0] == 91.0

    def test_scalar_counters_stay_exact_past_the_cap(self):
        loop = EventLoop()
        pacer = LeakyBucketPacer(loop, lambda p: None)
        pacer.stats.rebound(8)
        pacer.set_pacing_rate(1e9)
        for burst in range(5):
            pacer.enqueue(packets(4, start_seq=burst * 4))
            loop.drain()
        assert pacer.stats.sent_packets == 20
        assert pacer.stats.enqueued_packets == 20
        assert len(pacer.stats.pacing_delays) == 8


class TestBurstPacer:
    def test_sends_everything_immediately(self):
        loop = EventLoop()
        sent = []
        pacer = BurstPacer(loop, lambda p: sent.append(loop.now))
        pacer.enqueue(packets(50))
        loop.drain()
        assert len(sent) == 50
        assert all(t == pytest.approx(0.0, abs=1e-9) for t in sent)

    def test_queue_empty_after_burst(self):
        loop = EventLoop()
        pacer = BurstPacer(loop, lambda p: None)
        pacer.enqueue(packets(10))
        loop.drain()
        assert pacer.queued_packets == 0
        assert pacer.queued_bytes == 0


class TestTokenBucketPacer:
    def test_burst_up_to_bucket_then_token_rate(self):
        loop = EventLoop()
        sent = []
        pacer = TokenBucketPacer(loop, lambda p: sent.append(loop.now),
                                 initial_bucket_bytes=3600, rate_factor=1.0)
        pacer.set_pacing_rate(1.2e6)
        pacer.enqueue(packets(5))
        loop.drain()
        # first 3 packets burst on full bucket; 4th waits ~8 ms refill
        assert sent[2] == pytest.approx(0.0, abs=1e-6)
        assert sent[3] == pytest.approx(0.008, abs=1e-3)
        assert sent[4] == pytest.approx(0.016, abs=1e-3)

    def test_rate_factor_speeds_refill(self):
        loop = EventLoop()
        sent = []
        pacer = TokenBucketPacer(loop, lambda p: sent.append(loop.now),
                                 initial_bucket_bytes=2400, rate_factor=2.0)
        pacer.set_pacing_rate(1.2e6)
        pacer.enqueue(packets(4))
        loop.drain()
        assert sent[2] == pytest.approx(0.004, abs=1e-3)

    def test_bucket_resize_floor(self):
        loop = EventLoop()
        pacer = TokenBucketPacer(loop, lambda p: None,
                                 min_bucket_bytes=2400)
        pacer.set_bucket_size(10.0)
        assert pacer.bucket_bytes == 2400

    def test_small_bucket_degenerates_to_pacing(self):
        loop = EventLoop()
        sent = []
        pacer = TokenBucketPacer(loop, lambda p: sent.append(loop.now),
                                 initial_bucket_bytes=1200,
                                 min_bucket_bytes=1200, rate_factor=1.0)
        pacer.set_pacing_rate(1.2e6)
        pacer.enqueue(packets(3))
        loop.drain()
        gaps = [b - a for a, b in zip(sent, sent[1:])]
        assert all(g == pytest.approx(0.008, abs=1e-3) for g in gaps)

    def test_no_spin_on_fractional_tokens(self):
        """Regression: sub-representable waits must not stall the loop."""
        loop = EventLoop()
        sent = []
        pacer = TokenBucketPacer(loop, lambda p: sent.append(loop.now),
                                 initial_bucket_bytes=2400, rate_factor=1.0)
        pacer.set_pacing_rate(5_305_926.412109371)  # awkward float rate
        pacer.enqueue(packets(100))
        loop.drain(max_events=200_000)
        assert len(sent) == 100

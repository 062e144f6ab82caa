"""Tests for the RTT x PacketPair queue estimator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ace_n import AceNController
from repro.core.queue_estimator import QueueEstimator
from repro.transport.feedback import FeedbackMessage, ReportBatch


def message(reports, now):
    return FeedbackMessage(created_at=now, reports=reports,
                           highest_seq=max(reports.seqs))


def reports_with_owd(start_seq, t0, owds, size=1200, spacing=0.005):
    sends = [t0 + i * spacing for i in range(len(owds))]
    return ReportBatch(
        seqs=list(range(start_seq, start_seq + len(owds))), send_times=sends,
        arrival_times=[send + owd for send, owd in zip(sends, owds)],
        sizes=[size] * len(owds))


def pair_reports(start_seq, t0, capacity_bps, owd=0.02, size=1200):
    """A back-to-back pair whose spacing encodes the capacity."""
    gap = size * 8 / capacity_bps
    return ReportBatch(seqs=[start_seq, start_seq + 1],
                       send_times=[t0, t0 + 1e-5],
                       arrival_times=[t0 + owd, t0 + owd + gap],
                       sizes=[size, size])


def feed_steady(est, rounds=10, owd=0.02, capacity_bps=10e6, reverse=0.01):
    t, seq = 0.0, 0
    for _ in range(rounds):
        reports = pair_reports(seq, t, capacity_bps, owd=owd)
        est.on_feedback(message(reports, t + 0.05), now=t + 0.05,
                        reverse_delay=reverse)
        seq += 2
        t += 0.05
    return t, seq


def test_rtt_min_tracks_floor():
    est = QueueEstimator()
    feed_steady(est, owd=0.02, reverse=0.01)
    assert est.rtt_min == pytest.approx(0.03, abs=1e-6)


def test_zero_queue_at_floor():
    est = QueueEstimator()
    feed_steady(est)
    assert est.queue_delay() == pytest.approx(0.0, abs=1e-4)
    assert est.estimate(now=1.0).queue_bytes < 2000
    assert est.queue_is_empty()


def test_queue_estimate_from_standing_rtt():
    est = QueueEstimator(standing_window_s=0.2)
    t, seq = feed_steady(est, rounds=10, owd=0.02, capacity_bps=10e6)
    # queue builds: all recent packets see +8 ms
    reports = reports_with_owd(seq, t, [0.028] * 8)
    now = t + 0.05
    est.on_feedback(message(reports, now), now=now, reverse_delay=0.01)
    # advance the window so only the elevated samples remain standing
    est.on_feedback(message(reports_with_owd(seq + 10, now + 0.2, [0.028] * 4),
                            now + 0.25), now=now + 0.25, reverse_delay=0.01)
    delay = est.queue_delay()
    assert delay == pytest.approx(0.008, abs=0.002)
    queue = est.estimate(now=now + 0.25).queue_bytes
    assert queue == pytest.approx(0.008 * 10e6 / 8, rel=0.3)


def test_standing_filter_ignores_transient_spike():
    """One spiky packet inside the window must not raise the estimate
    if any packet saw the floor."""
    est = QueueEstimator(standing_window_s=0.2)
    t, seq = feed_steady(est)
    reports = reports_with_owd(seq, t, [0.02, 0.08, 0.02])
    est.on_feedback(message(reports, t + 0.05), now=t + 0.05, reverse_delay=0.01)
    assert est.queue_delay() == pytest.approx(0.0, abs=1e-4)


def test_peak_queue_sees_the_spike():
    est = QueueEstimator(standing_window_s=0.2)
    t, seq = feed_steady(est)
    reports = reports_with_owd(seq, t, [0.02, 0.08, 0.02])
    est.on_feedback(message(reports, t + 0.05), now=t + 0.05, reverse_delay=0.01)
    peak = est.peak_queue_bytes()
    assert peak == pytest.approx(0.06 * est.capacity_bps() / 8, rel=0.3)


def test_capacity_fallback_before_samples():
    est = QueueEstimator(default_capacity_bps=7e6)
    assert est.capacity_bps() == 7e6


def test_capacity_from_packet_pairs():
    est = QueueEstimator()
    feed_steady(est, rounds=10, capacity_bps=20e6)
    assert est.capacity_bps() == pytest.approx(20e6, rel=0.05)


class TestQueueIsEmptyNeedsEvidence:
    """Regression: feedback silence is not an empty buffer (it used to
    return True with zero RTT samples, letting ACE-N's fast recovery
    fire with no signal)."""

    def test_unknown_before_any_samples(self):
        est = QueueEstimator()
        assert not est.queue_is_empty()

    def test_unknown_after_window_ages_out(self):
        est = QueueEstimator(standing_window_s=0.1)
        t, seq = feed_steady(est)
        assert est.queue_is_empty()
        # A long feedback silence ages every sample out of the window:
        # the estimator keeps its RTT floor but loses current evidence.
        silence = FeedbackMessage(created_at=t + 5.0, highest_seq=seq)
        est.on_feedback(silence, now=t + 5.0, reverse_delay=0.01)
        assert est.rtt_standing() is None
        assert est.rtt_min is not None
        assert not est.queue_is_empty()

    def test_empty_again_once_samples_return(self):
        est = QueueEstimator(standing_window_s=0.1)
        t, seq = feed_steady(est)
        silence = FeedbackMessage(created_at=t + 5.0, highest_seq=seq)
        est.on_feedback(silence, now=t + 5.0, reverse_delay=0.01)
        reports = reports_with_owd(seq, t + 5.0, [0.02, 0.02])
        est.on_feedback(message(reports, t + 5.05), now=t + 5.05,
                        reverse_delay=0.01)
        assert est.queue_is_empty()


def test_estimates_history_recorded():
    """The estimator only answers reads; the history of its estimates
    is the input column of ACE-N's decision log."""
    ctrl = AceNController(queue_estimator=QueueEstimator())
    feed_steady(ctrl, rounds=3)
    est = ctrl.queue_estimator
    assert len(ctrl.log) >= 1
    assert ctrl.log.input[-1] == est.estimate(now=ctrl.log.time[-1]).queue_bytes
    assert est.estimate(now=1.0).rtt_min is not None


# ---------------------------------------------------------------------------
# the monotonic windows against a brute-force window scan, on both lanes
# ---------------------------------------------------------------------------
_sample = st.tuples(
    st.floats(0.0, 0.03),           # arrival gap (0: same-instant arrivals)
    st.floats(-0.03, 0.08),         # one-way delay: rtt <= 0 happens
    st.integers(60, 1500),          # size
    st.booleans(),                  # the message ends after this sample
    st.floats(0.0, 0.15))           # how long after it the message is read


@settings(max_examples=200, deadline=None)
@given(st.lists(_sample, min_size=1, max_size=120),
       st.sampled_from([0.0, 0.01]))
def test_windows_equal_a_brute_force_scan_on_every_lane(stream, reverse):
    lanes = {"scalar": QueueEstimator(), "columnar": QueueEstimator(),
             "alternating": QueueEstimator()}
    seen = []           # every (arrival, rtt) with rtt > 0, in order
    batch, arrival, now, count = [], 0.0, 0.0, 0
    for seq, (gap, owd, size, ends, wait) in enumerate(stream):
        arrival += gap
        batch.append((seq, arrival - owd, arrival, size))
        if not ends and seq < len(stream) - 1:
            continue
        now = max(now, arrival + wait)     # feedback is read in order
        lists = [list(column) for column in zip(*batch)]
        forms = (ReportBatch(*lists),
                 ReportBatch(*(np.array(column) for column in lists)))
        for name, est in lanes.items():
            columnar = name == "columnar" or (name == "alternating"
                                              and count % 2)
            est.on_feedback(FeedbackMessage(
                created_at=now, reports=forms[columnar]),
                now, reverse_delay=reverse)
        seen.extend((at, rtt) for _seq, send, at, _size in batch
                    if (rtt := at - send + reverse) > 0)
        batch, count = [], count + 1
        scalar = lanes["scalar"]
        recent = [rtt for at, rtt in seen
                  if at >= now - scalar.standing_window_s]
        floor = min((rtt for _at, rtt in seen), default=None)
        for est in lanes.values():
            assert est.rtt_min == floor
            assert est.rtt_standing() == (min(recent) if recent else None)
            assert est.peak_queue_bytes() == (
                max(0.0, max(recent) - floor) * est.capacity_bps() / 8.0
                if recent else 0.0)
            assert est.queue_is_empty() == (
                bool(recent) and min(recent) - floor < 0.002)
            # Not only the queries: the lanes leave identical state.
            assert (est._standing, est._peaks) \
                == (scalar._standing, scalar._peaks)
            assert (list(est.packet_pair._samples)
                    == list(scalar.packet_pair._samples))

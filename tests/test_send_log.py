"""The send log: one columnar type on every lane.

``SendLog`` holds a float64 time column and an int64 size column. The
reference lane writes one pair per packet into an interleaved buffer,
the batch engine merges its train columns in, and every reader — the
cache codec, canonical JSON, the utilization and fairness views — reads
the columns. A batch session therefore keeps two machine words per
packet, not three Python objects.
"""

import gc
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arena.fairness import time_to_convergence, window_throughput_bps
from repro.rtc.metrics import SendLog, SessionMetrics
from tests.test_event_budget import ref_packet_session


def test_added_pairs_read_back_as_typed_columns_and_rows():
    log = SendLog()
    assert not log and len(log) == 0
    log.add((0.5, 1200))
    log.add((0.75, 800))
    assert log and len(log) == 2            # counted before the columns exist
    assert log.times.dtype == np.float64 and log.sizes.dtype == np.int64
    assert list(log) == [(0.5, 1200), (0.75, 800)]
    assert [tuple(map(type, row)) for row in log] == [(float, int)] * 2
    log.add((1.0, 60))                      # still writable after a read
    assert log == SendLog([0.5, 0.75, 1.0], [1200, 800, 60])


def test_iteration_crosses_chunk_boundaries():
    n = 10_000
    log = SendLog(np.arange(n) / 1e3, np.arange(n))
    rows = list(log)
    assert len(rows) == n and rows[4095:4098] == [
        (4.095, 4095), (4.096, 4096), (4.097, 4097)]


def test_merge_is_stable_with_chunks_ahead_on_a_tie():
    log = SendLog()
    log.add((2.0, 99))
    log.merge([(np.array([1.0, 2.0]), np.array([1200, 1100], np.int32)),
               (np.array([3.0]), np.array([500]))])
    assert log == SendLog([1.0, 2.0, 2.0, 3.0], [1200, 1100, 99, 500])
    assert log.sizes.dtype == np.int64
    log.merge([])
    assert len(log) == 4


def test_refuses_what_the_columns_cannot_hold():
    with pytest.raises(ValueError):
        SendLog([0.1], [2**63])
    with pytest.raises(ValueError):
        SendLog([0.2, 0.1], [1, 2])
    with pytest.raises(ValueError):
        SendLog([0.1, float("nan")], [1, 2])
    with pytest.raises(ValueError):
        SendLog([0.1, 0.2], [1])


def test_pickles_and_compares_by_value():
    log = SendLog()
    log.add((0.25, 7))
    copy = pickle.loads(pickle.dumps(log))
    assert copy == log and copy is not log
    assert copy != SendLog([0.25], [8])
    assert (log == [(0.25, 7)]) is False    # a list is not a send log
    copy.add((0.5, 1))
    assert len(copy) == 2 and len(log) == 1


def test_batch_session_keeps_two_words_per_packet():
    """A 16 s, 100 Mbps batch session: the log is what is freed when the
    metrics drop it. The per-packet tuple list held ~120 bytes each."""
    tracemalloc.start()
    try:
        metrics = ref_packet_session(engine="batch", duration=16).run()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        log, metrics.send_events = metrics.send_events, SendLog()
        times = log.times
        packets = len(log)
        del log
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert packets == metrics.packets_sent > 100_000
    assert freed <= 24 * packets, freed / packets
    assert (times[1:] >= times[:-1]).all()


def test_reference_lane_times_are_nondecreasing():
    metrics = ref_packet_session().run()
    times = metrics.send_events.times
    assert len(times) == metrics.packets_sent > 30_000
    assert (times[1:] >= times[:-1]).all()


# ----------------------------------------------------------------------
# the column readers equal the per-packet loops they replaced
# ----------------------------------------------------------------------
def loop_window_throughput(events, t0, t1):
    if t1 <= t0:
        return 0.0
    sent = sum(size for t, size in events if t0 <= t < t1)
    return sent * 8.0 / (t1 - t0)


def loop_sending_rate_series(events, duration, bin_s):
    nbins = max(1, int(math.ceil(duration / bin_s)))
    bits = np.zeros(nbins)
    for t, size in events:
        if 0 <= t < duration:
            bits[min(int(t / bin_s), nbins - 1)] += size * 8
    return [(i * bin_s, bits[i] / bin_s) for i in range(nbins)]


def loop_time_to_convergence(events, duration, start, bin_s, tolerance):
    span = duration - start
    if span < 2 * bin_s or not events:
        return None
    nbins = int(span // bin_s)
    bins = [0.0] * nbins
    for t, size in events:
        idx = int((t - start) // bin_s)
        if 0 <= idx < nbins:
            bins[idx] += size * 8.0 / bin_s
    tail = bins[-3:] if nbins >= 3 else bins
    steady = sum(tail) / len(tail)
    if steady <= 0:
        return None
    converged_from = None
    for i, rate in enumerate(bins):
        if abs(rate - steady) <= tolerance * steady:
            if converged_from is None:
                converged_from = i
        else:
            converged_from = None
    return None if converged_from is None else converged_from * bin_s


@settings(max_examples=300, deadline=None)
@given(times=st.lists(st.floats(min_value=0.0, max_value=30.0), max_size=200),
       sizes=st.lists(st.integers(0, 10**6), max_size=200),
       duration=st.floats(min_value=0.0, max_value=31.0),
       start=st.floats(min_value=0.0, max_value=20.0),
       bin_s=st.sampled_from([0.01, 0.3, 1.0, 1.7, 3.0]),
       tolerance=st.sampled_from([0.2, 1.0, 5.0]),
       window=st.tuples(st.floats(-1.0, 31.0), st.floats(-1.0, 31.0)))
def test_column_readers_equal_the_event_loops(times, sizes, duration, start,
                                              bin_s, tolerance, window):
    n = min(len(times), len(sizes))
    times, sizes = sorted(times[:n]), sizes[:n]
    events = list(zip(times, sizes))
    metrics = SessionMetrics(duration=30.0, send_events=SendLog(times, sizes))
    if events:
        metrics.duration = duration
        assert metrics.sending_rate_series(bin_s) == \
            loop_sending_rate_series(events, duration, bin_s)
        metrics.duration = 30.0
    assert window_throughput_bps(metrics, *window) == \
        loop_window_throughput(events, *window)
    assert time_to_convergence(metrics, start=start, bin_s=bin_s,
                               tolerance=tolerance) == \
        loop_time_to_convergence(events, 30.0, start, bin_s, tolerance)

"""One report form, every lane: the same arrivals read alike everywhere.

A feedback interval reaches the sender three ways — the reference
engine's ``on_packet``, the batch engine's ``on_chunk`` trains (with
retransmissions and late packets on the scalar lane) and the live wire
codec — and ``sized_batch`` holds it as Python lists or numpy arrays by
its length alone. This property feeds one arrival stream through all
three, plus the same columns in the other form, and checks that the
columns agree and that every consumer of them ends in the same state.
"""

from collections import deque
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.live.wire import decode_feedback, encode_feedback
from repro.net.packet import Packet
from repro.net.trace import BandwidthTrace
from repro.rtc.baselines import build_session
from repro.rtc.session import SessionConfig
from repro.transport.cc.bbr import BbrController
from repro.transport.cc.copa import CopaController
from repro.transport.cc.delivery_rate import DeliveryRateController
from repro.transport.feedback import (ARRAY_MIN_REPORTS, FeedbackBuilder,
                                      ReportBatch, pylist)

COLUMNS = ("seqs", "send_times", "arrival_times", "sizes", "frame_ids")
LANES = ("packet", "chunk", "wire", "other form")

_arrival = st.tuples(
    st.floats(0.0, 4e-3),           # arrival gap (0: same-instant arrivals)
    st.floats(-0.03, 0.08),         # one-way delay: rtt <= 0 happens
    st.integers(60, 1500),          # size
    st.sampled_from(["fresh"] * 4 + ["next-frame", "late", "rtx"]),
    st.integers(1, 12))             # how far back a late or RTX seq lies
_interval = st.one_of(
    st.lists(_arrival, max_size=ARRAY_MIN_REPORTS - 1),
    st.lists(_arrival, min_size=ARRAY_MIN_REPORTS,
             max_size=2 * ARRAY_MIN_REPORTS))


def _state(value):
    """Plain, comparable state of a controller, recursively."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple, deque)):
        return [_state(item) for item in value]
    if isinstance(value, dict):
        return {key: _state(item) for key, item in value.items()}
    if hasattr(value, "__dict__"):
        return _state(vars(value))
    slots = getattr(type(value), "__slots__", None)
    if slots is not None:
        return {name: _state(getattr(value, name)) for name in slots}
    return value


class Consumers:
    """Every reader of the report columns, fed one message per interval:
    an ACE sender (its RTT observers, GCC, and ACE-N's queue estimator
    with PacketPair) and the three other controllers."""

    def __init__(self):
        self.session = build_session(
            "ace", BandwidthTrace.constant(20e6, duration=10.0),
            SessionConfig(duration=1.0, seed=1))
        self.others = (CopaController(), DeliveryRateController(),
                       BbrController())

    def feed(self, message, now):
        self.session.loop.now = now
        sender = self.session.sender
        sender.on_feedback(message)
        copa = self.others[0]
        copa.observe_reverse_delay(sender.reverse_delay)
        for cc in self.others:
            cc.on_feedback(message, now)

    def state(self):
        sender = self.session.sender
        return _state([sender.cc, sender.ace_n, *self.others])


def _columns(message):
    return [pylist(getattr(message.reports, name)) for name in COLUMNS]


def _other_form(message):
    reports = message.reports
    convert = pylist if reports.arrays else np.asarray
    return replace(message, reports=ReportBatch(
        *(convert(getattr(reports, name)) for name in COLUMNS)))


@settings(max_examples=40, deadline=None)
@given(st.lists(_interval, min_size=1, max_size=4))
def test_every_consumer_reads_every_lane_alike(intervals):
    scalar, chunked = FeedbackBuilder(), FeedbackBuilder()
    consumers = {lane: Consumers() for lane in LANES}
    now, seq, frame = 1.0, 0, 0
    run = []        # fresh arrivals of one frame that ride as one train

    def flush():
        if run:
            seqs, sends, arrivals, sizes = zip(*run)
            chunked.on_chunk(seqs[0], np.array(sends), np.array(arrivals),
                             np.array(sizes, dtype=np.int64), frame)
            run.clear()

    for interval in intervals:
        for gap, owd, size, kind, back in interval:
            now += gap
            if kind == "next-frame":
                flush()
                frame += 1
            packet = Packet(size_bytes=size, seq=seq, frame_id=frame)
            if kind == "late":
                packet.seq = max(0, seq - back)
            elif kind == "rtx":
                packet.retransmission_of = max(0, seq - back)
            packet.t_leave_pacer, packet.t_arrival = now - owd, now
            scalar.on_packet(packet)
            if kind in ("late", "rtx"):     # the scalar lane on both
                flush()
                chunked.on_packet(packet)
            else:
                run.append((packet.seq, now - owd, now, size))
            if kind != "late":
                seq += 1
        flush()
        now += 0.01
        message = scalar.build(now)
        (datagram,) = encode_feedback(message)
        messages = {"packet": message, "chunk": chunked.build(now),
                    "wire": decode_feedback(datagram),
                    "other form": _other_form(message)}
        # The interval's length alone picks the form, on every lane.
        for lane in ("packet", "chunk", "wire"):
            assert messages[lane].reports.arrays \
                == (len(interval) >= ARRAY_MIN_REPORTS)
            assert _columns(messages[lane]) == _columns(message)
            assert (messages[lane].nacked_seqs, messages[lane].highest_seq,
                    messages[lane].cumulative_lost) \
                == (message.nacked_seqs, message.highest_seq,
                    message.cumulative_lost)
            assert messages[lane].reports.total_bytes \
                == message.reports.total_bytes
        for lane in LANES:
            consumers[lane].feed(messages[lane], now)
        reference = consumers["packet"].state()
        for lane in LANES[1:]:
            assert consumers[lane].state() == reference, lane

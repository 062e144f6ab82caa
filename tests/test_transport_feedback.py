"""Tests for transport feedback and loss/NACK tracking."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.net.packet import Packet, PacketType
from repro.transport.feedback import NACK_WINDOW, FeedbackBuilder


def arrived(seq, t=1.0, size=1200, frame_id=0, rtx_of=None):
    p = Packet(size_bytes=size, seq=seq, frame_id=frame_id,
               retransmission_of=rtx_of)
    p.t_leave_pacer = t - 0.02
    p.t_arrival = t
    return p


def test_reports_collect_and_clear():
    fb = FeedbackBuilder()
    fb.on_packet(arrived(0))
    fb.on_packet(arrived(1))
    msg = fb.build(now=1.0)
    assert len(msg.reports) == 2
    assert msg.highest_seq == 1
    assert len(fb.build(now=2.0).reports) == 0


def test_gap_is_nacked_after_reorder_margin():
    fb = FeedbackBuilder(reorder_margin=2)
    for seq in (0, 1, 3, 4, 5, 6):
        fb.on_packet(arrived(seq))
    msg = fb.build(now=1.0)
    assert msg.nacked_seqs == [2]
    assert msg.cumulative_lost == 1


def test_gap_within_reorder_margin_not_yet_nacked():
    fb = FeedbackBuilder(reorder_margin=3)
    for seq in (0, 1, 3):
        fb.on_packet(arrived(seq))
    msg = fb.build(now=1.0)
    assert msg.nacked_seqs == []  # 2 might still be in flight


def test_repeated_nacks_until_cap():
    fb = FeedbackBuilder(reorder_margin=0, max_nacks_per_seq=3)
    for seq in (0, 2):
        fb.on_packet(arrived(seq))
    nack_rounds = [fb.build(now=float(i)).nacked_seqs for i in range(5)]
    assert nack_rounds[:3] == [[1], [1], [1]]
    assert nack_rounds[3] == []


def test_cumulative_loss_counts_each_seq_once():
    fb = FeedbackBuilder(reorder_margin=0)
    fb.on_packet(arrived(0))
    fb.on_packet(arrived(2))
    fb.build(now=1.0)
    msg = fb.build(now=2.0)
    assert msg.cumulative_lost == 1  # seq 1 counted once, not per round


def test_retransmission_recovers_nack():
    fb = FeedbackBuilder(reorder_margin=0)
    fb.on_packet(arrived(0))
    fb.on_packet(arrived(2))
    assert fb.build(now=1.0).nacked_seqs == [1]
    fb.on_packet(arrived(10, rtx_of=1))
    assert fb.build(now=2.0).nacked_seqs == []


def test_reports_carry_timing():
    fb = FeedbackBuilder()
    fb.on_packet(arrived(0, t=1.5))
    reports = fb.build(now=2.0).reports
    assert reports.arrival_times == [1.5]
    assert reports.arrival_times[0] - reports.send_times[0] \
        == pytest.approx(0.02)


def test_received_bytes_sum():
    fb = FeedbackBuilder()
    fb.on_packet(arrived(0, size=1000))
    fb.on_packet(arrived(1, size=500))
    assert fb.build(now=1.0).reports.total_bytes == 1500


# ---------------------------------------------------------------------------
# the hole table against the bookkeeping it replaced
# ---------------------------------------------------------------------------
class RememberEverything:
    """The loss bookkeeping before the hole table, kept as the oracle:
    every fresh seq ever received, every seq ever recovered, a NACK
    count per seq and a resolved floor, scanned per feedback."""

    def __init__(self, reorder_margin, max_nacks_per_seq):
        self.margin, self.max_nacks = reorder_margin, max_nacks_per_seq
        self.received, self.recovered, self.counts = set(), set(), {}
        self.highest, self.floor, self.lost = -1, 0, 0

    def arrive(self, first, last, rtx_of=None):
        if rtx_of is not None:      # its own seq is never marked received
            self.recovered.add(rtx_of)
            self.counts.pop(rtx_of, None)
        elif first >= 0:
            self.received.update(range(first, last + 1))
            self.highest = max(self.highest, last)

    def build(self):
        nacks = []
        horizon = self.highest - self.margin
        self.floor = floor = max(self.floor, horizon - 2000, 0)
        for seq in range(floor, horizon + 1):
            if (seq in self.received or seq in self.recovered
                    or self.counts.get(seq, 0) >= self.max_nacks):
                if not nacks:
                    self.floor = seq + 1
                continue
            nacks.append(seq)
            self.lost += seq not in self.counts
            self.counts[seq] = self.counts.get(seq, 0) + 1
        return nacks, self.highest, self.lost


_step = st.one_of(
    st.tuples(st.just("packets"), st.integers(1, 6)),
    st.tuples(st.just("train"), st.integers(1, 80)),
    st.tuples(st.just("gap"), st.one_of(st.integers(1, 8),
                                        st.integers(1990, 2100))),
    # Reordering within and beyond the margin, duplicates, trains that
    # overlap what already arrived.
    st.tuples(st.just("late"), st.integers(1, 12)),
    st.tuples(st.just("late-train"), st.integers(1, 12), st.integers(1, 8)),
    st.tuples(st.just("rtx"), st.integers(0, 10_000)),
    st.tuples(st.just("repair-ahead"), st.integers(0, 6)),
    st.tuples(st.just("parity")),
    st.tuples(st.just("build")),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5), st.sampled_from([1, 2, 3, 10]),
       st.lists(_step, min_size=1, max_size=60))
def test_hole_table_nacks_what_remembering_everything_nacked(
        margin, max_nacks, steps):
    fb = FeedbackBuilder(reorder_margin=margin, max_nacks_per_seq=max_nacks)
    model = RememberEverything(margin, max_nacks)
    nxt = 0             # the next fresh media seq the sender would assign
    nacked = []         # every seq NACKed so far (what an RTX answers)

    def packet(seq, rtx_of=None):
        fb.on_packet(arrived(seq, rtx_of=rtx_of))
        model.arrive(seq, seq, rtx_of)

    def train(first, count):
        times = np.full(count, 1.0)
        fb.on_chunk(first, times - 0.02, times,
                    np.full(count, 1200, dtype=np.int64), 0)
        model.arrive(first, first + count - 1)

    for kind, *args in steps + [("build",)] * (max_nacks + 1):
        if kind == "packets":
            for _ in range(args[0]):
                packet(nxt)
                nxt += 1
        elif kind == "train":
            train(nxt, args[0])
            nxt += args[0]
        elif kind == "gap":
            nxt += args[0]
        elif kind == "late":
            packet(max(0, nxt - args[0]))
        elif kind == "late-train":
            first = max(0, nxt - args[0])
            train(first, args[1])
            nxt = max(nxt, first + args[1])
        elif kind == "rtx":
            # Answers a NACK when there is one, else names any old seq;
            # rides a fresh seq from the media space, as the packetizer
            # assigns it.
            packet(nxt, rtx_of=(nacked[args[0] % len(nacked)] if nacked
                                else args[0] % (nxt + 1)))
            nxt += 1
        elif kind == "repair-ahead":
            # An FEC repair of a seq the gap detector has not passed yet.
            packet(nxt + args[0], rtx_of=nxt + args[0])
        elif kind == "parity":
            packet(-1)
        else:
            message = fb.build(now=1.0)
            assert (message.nacked_seqs, message.highest_seq,
                    message.cumulative_lost) == model.build()
            nacked.extend(message.nacked_seqs)
            assert len(fb._holes) <= NACK_WINDOW + margin
            assert all(seq > message.highest_seq for seq in fb._recovered)


def test_receiver_state_stays_bounded_over_a_long_run():
    """300 000 in-order packets, 1 % holes each recovered two feedback
    intervals later, a build() every 500: nothing on the builder grows
    with the packets received (a set of every fresh seq used to)."""
    fb = FeedbackBuilder()
    inflight = {}       # NACKed seq -> build its retransmission lands before
    seq = builds = largest = 0
    for sent in range(300_000):
        if sent % 100 == 50:
            seq += 1                    # a hole: this seq never arrives
        fb.on_packet(arrived(seq))
        seq += 1
        if sent % 500 == 499:
            for lost in [s for s, at in inflight.items() if at == builds]:
                del inflight[lost]
                fb.on_packet(arrived(seq, rtx_of=lost))
                seq += 1
            message = fb.build(now=1.0)
            builds += 1
            for lost in message.nacked_seqs:
                inflight.setdefault(lost, builds + 1)
            largest = max(largest, *(
                len(v) for v in vars(fb).values() if hasattr(v, "__len__")))
    assert message.cumulative_lost > 3000
    assert largest <= NACK_WINDOW + fb.reorder_margin

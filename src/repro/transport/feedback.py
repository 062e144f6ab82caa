"""Transport-wide feedback (RTCP-style) from receiver to sender.

Mirrors WebRTC's transport-wide congestion-control feedback: the
receiver batches per-packet (seq, send_time, arrival_time) reports on a
fixed interval and returns them with a loss summary and NACK list. The
sender's congestion controller, ACE-N's queue estimator, and the
retransmission logic all consume these messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.net.packet import Packet

#: WebRTC sends transport feedback roughly every 50-100 ms; we use 50 ms.
DEFAULT_FEEDBACK_INTERVAL_S = 0.05

#: a hole is NACKed only while within this many seqs of the horizon.
NACK_WINDOW = 2000


#: An interval of at least this many reports holds its columns as numpy
#: arrays, a shorter one as Python lists: the consumers' array lanes pay
#: numpy's per-call cost once per message, their per-report loops pay
#: per report, and the two cost the same between 48 and 64 reports
#: (DESIGN §10 has the sweep).
ARRAY_MIN_REPORTS = 64


def pylist(column) -> list:
    """A report column as Python values: an array's ``tolist()``, or the
    list itself. Consumers without an array lane read columns this way."""
    return column.tolist() if type(column) is np.ndarray else column


class ReportBatch:
    """The per-packet reports of one feedback interval, in arrival order.

    Five parallel columns — ``seqs``, ``send_times``, ``arrival_times``,
    ``sizes`` and ``frame_ids`` — that are all numpy arrays (``arrays``)
    or all Python sequences, plus their ``total_bytes``. The constructor
    keeps the form it is given; :func:`sized_batch` picks it from the
    interval's length. Consumers with an array lane (GCC's delay signal,
    the queue estimator, the RTT observers) branch on ``arrays``; the
    rest read :func:`pylist` columns. Treat instances as immutable.
    """

    __slots__ = ("seqs", "send_times", "arrival_times", "sizes",
                 "frame_ids", "total_bytes", "arrays")

    def __init__(self, seqs: Sequence[int] = (),
                 send_times: Sequence[float] = (),
                 arrival_times: Sequence[float] = (),
                 sizes: Sequence[int] = (),
                 frame_ids: Optional[Sequence[int]] = None) -> None:
        self.arrays = arrays = type(sizes) is np.ndarray
        self.seqs = seqs
        self.send_times = send_times
        self.arrival_times = arrival_times
        self.sizes = sizes
        if frame_ids is None:       # reports that belong to no frame
            frame_ids = (np.full(len(sizes), -1) if arrays
                         else [-1] * len(sizes))
        self.frame_ids = frame_ids
        self.total_bytes = int(sizes.sum()) if arrays else sum(sizes)

    def __len__(self) -> int:
        return len(self.sizes)


def sized_batch(segments: Sequence[tuple]) -> ReportBatch:
    """Join column segments, in arrival order, in the form the interval's
    length calls for.

    Each segment is a ``(seqs, send_times, arrival_times, sizes,
    frame_ids)`` tuple of lists or arrays. The one rule for the form:
    numpy arrays from ``ARRAY_MIN_REPORTS`` reports up, Python lists
    below. A lone segment already in that form is aliased, not copied.
    """
    arrays = sum(len(segment[3]) for segment in segments) >= ARRAY_MIN_REPORTS
    if len(segments) == 1 and (type(segments[0][3]) is np.ndarray) is arrays:
        return ReportBatch(*segments[0])
    if arrays:
        return ReportBatch(*map(np.concatenate, zip(*segments)))
    columns = [[], [], [], [], []]
    for segment in segments:
        for column, part in zip(columns, segment):
            column += pylist(part)
    return ReportBatch(*columns)


@dataclass
class FeedbackMessage:
    """A batch of receive reports plus loss information."""

    created_at: float
    reports: ReportBatch = field(default_factory=ReportBatch)
    nacked_seqs: List[int] = field(default_factory=list)
    #: highest sequence number seen so far (for loss accounting)
    highest_seq: int = -1
    #: receiver's cumulative count of distinct lost (never-received) seqs
    cumulative_lost: int = 0
    #: picture-loss indication: the receiver abandoned a frame and needs
    #: a decoder refresh (keyframe) to resume a valid reference chain.
    pli_requested: bool = False


class FeedbackBuilder:
    """Receiver-side accumulator producing periodic FeedbackMessages.

    Loss detection: a gap in sequence numbers is declared lost after a
    short reordering margin; lost seqs are NACKed (repeatedly, until the
    retransmission arrives or the frame is abandoned).
    """

    def __init__(self, reorder_margin: int = 3,
                 max_nacks_per_seq: int = 10) -> None:
        self.reorder_margin = reorder_margin
        self.max_nacks_per_seq = max_nacks_per_seq
        #: this interval's scalar arrivals since its last chunk, as list
        #: columns; ``_segments`` holds what arrived before, in order.
        self._open: tuple = ([], [], [], [], [])
        self._segments: List[tuple] = []
        self._highest_seq = -1
        #: the holes below ``_highest_seq``, ascending: {missing seq:
        #: NACKs sent}. A seq enters when an arrival jumps past it and
        #: leaves when it arrives late, is recovered, ages out of the
        #: NACK window or exhausts its NACKs — never to return, since
        #: ``_highest_seq`` only grows.
        self._holes: dict[int, int] = {}
        #: seqs recovered since the last build(), which keeps those still
        #: ahead of ``_highest_seq`` (an FEC repair can beat its own gap).
        self._recovered: set[int] = set()
        self._cumulative_lost = 0

    def on_packet(self, packet: Packet) -> None:
        """Record an arriving media packet."""
        seqs, send_times, arrival_times, sizes, frame_ids = self._open
        send_time = packet.t_leave_pacer
        arrival_time = packet.t_arrival
        seqs.append(packet.seq)
        send_times.append(send_time if send_time is not None else 0.0)
        arrival_times.append(arrival_time if arrival_time is not None
                             else 0.0)
        sizes.append(packet.size_bytes)
        frame_ids.append(packet.frame_id)
        recovered = packet.retransmission_of
        if recovered is not None:
            # Returns before gap tracking, so the carrier's own seq is
            # never marked received (ROADMAP: an RTX's seq is NACKed).
            self._recovered.add(recovered)
            self._holes.pop(recovered, None)
            return
        seq = packet.seq
        highest = self._highest_seq
        if seq == highest + 1:
            self._highest_seq = seq
        elif seq <= highest:
            # Late or duplicate: its hole closes (seq < 0, a separate
            # stream such as FEC parity, never had one).
            self._holes.pop(seq, None)
        else:
            self._open_holes(highest + 1, seq)
            self._highest_seq = seq

    def on_chunk(self, seq0: int, send_times: np.ndarray,
                 arrival_times: np.ndarray, sizes: np.ndarray,
                 frame_id: int) -> None:
        """Record a contiguous train of arriving media packets.

        Batch-engine equivalent of ``on_packet`` for fresh (never
        retransmitted, non-negative-seq) media packets only.
        """
        n = len(sizes)
        if self._open[0]:
            self._segments.append(self._open)
            self._open = ([], [], [], [], [])
        self._segments.append((np.arange(seq0, seq0 + n), send_times,
                               arrival_times, sizes, np.full(n, frame_id)))
        last = seq0 + n - 1
        highest = self._highest_seq
        if seq0 <= highest and self._holes:
            for seq in range(seq0, min(last, highest) + 1):
                self._holes.pop(seq, None)
        if last > highest:
            if seq0 > highest + 1:
                self._open_holes(highest + 1, seq0)
            self._highest_seq = last

    def _open_holes(self, first: int, stop: int) -> None:
        """An arrival skipped seqs ``first..stop-1``: holes, as far back
        as the next build() still reaches (its horizon is >= stop -
        reorder_margin) — which bounds the table across a wide gap."""
        reach = stop - self.reorder_margin - NACK_WINDOW
        for seq in range(max(first, reach), stop):
            if seq not in self._recovered:
                self._holes[seq] = 0

    def _missing_seqs(self) -> List[int]:
        """Sequence numbers presumed lost (beyond the reordering margin)."""
        horizon = self._highest_seq - self.reorder_margin
        oldest = horizon - NACK_WINDOW
        missing = []
        closed = []     # aged out of the window, or NACKed to exhaustion
        for seq, nacks in self._holes.items():
            if seq > horizon:
                break
            if seq < oldest or nacks >= self.max_nacks_per_seq:
                closed.append(seq)
            else:
                missing.append(seq)
        for seq in closed:
            del self._holes[seq]
        return missing

    def build(self, now: float) -> FeedbackMessage:
        """Emit the feedback message for the elapsed interval."""
        holes = self._holes
        nacks = self._missing_seqs()
        for seq in nacks:
            if holes[seq] == 0:
                self._cumulative_lost += 1
            holes[seq] += 1
        if self._recovered:
            highest = self._highest_seq
            self._recovered = {s for s in self._recovered if s > highest}
        segments = self._segments
        if self._open[0] or not segments:
            segments.append(self._open)
        message = FeedbackMessage(
            created_at=now,
            reports=sized_batch(segments),
            nacked_seqs=nacks,
            highest_seq=self._highest_seq,
            cumulative_lost=self._cumulative_lost,
        )
        self._open = ([], [], [], [], [])
        self._segments = []
        return message

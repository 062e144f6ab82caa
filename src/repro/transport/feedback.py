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
#: arrays, a shorter one as Python lists (DESIGN §7 has the sweep).
ARRAY_MIN_REPORTS = 128


def pylist(column) -> list:
    """A report column as Python values: an array's ``tolist()``, or the
    list itself. Consumers without an array lane read columns this way."""
    return column.tolist() if type(column) is np.ndarray else column


class ReportBatch:
    """One feedback interval's reports, in arrival order: ``send_times``,
    ``arrival_times`` and ``sizes``, all numpy arrays (``arrays``) or all
    Python sequences as given, and ``total_bytes``. ``seqs`` and
    ``frame_ids`` (read only by the wire encoder) join on first read.
    Array-lane consumers branch on ``arrays``, the rest read
    :func:`pylist` columns. Treat instances as immutable."""

    __slots__ = ("send_times", "arrival_times", "sizes", "total_bytes",
                 "arrays", "_id_runs", "_ids", "_rtts")

    def __init__(self, seqs: Sequence[int] = (),
                 send_times: Sequence[float] = (),
                 arrival_times: Sequence[float] = (),
                 sizes: Sequence[int] = (),
                 frame_ids: Optional[Sequence[int]] = None) -> None:
        self.arrays = arrays = type(sizes) is np.ndarray
        self.send_times = send_times
        self.arrival_times = arrival_times
        self.sizes = sizes
        self.total_bytes = int(sizes.sum()) if arrays else sum(sizes)
        #: ``(seqs, frame_ids)`` runs; an int frame id covers its run.
        self._id_runs = [(seqs, -1 if frame_ids is None else frame_ids)]
        self._ids: Optional[tuple] = None
        self._rtts: Optional[tuple] = None

    def __len__(self) -> int:
        return len(self.sizes)

    seqs = property(lambda self: (self._ids or self._join_ids())[0])
    frame_ids = property(lambda self: (self._ids or self._join_ids())[1])

    def _join_ids(self) -> tuple:
        seqs, frame_ids = [], []
        for run_seqs, run_frames in self._id_runs:
            seqs += run_seqs
            frame_ids += (run_frames if hasattr(run_frames, "__len__")
                          else [run_frames] * len(run_seqs))
        self._ids = ((np.array(seqs), np.array(frame_ids)) if self.arrays
                     else (seqs, frame_ids))
        return self._ids

    def rtts(self, reverse_delay: float) -> Sequence[float]:
        """``arrival - send + reverse_delay``, derived once per batch."""
        if self._rtts is None or self._rtts[0] != reverse_delay:
            self._rtts = (reverse_delay, (
                self.arrival_times - self.send_times + reverse_delay
                if self.arrays else
                [arrival - send + reverse_delay for send, arrival
                 in zip(self.send_times, self.arrival_times)]))
        return self._rtts[1]


def sized_batch(segments: Sequence[tuple]) -> ReportBatch:
    """Join ``(seqs, send_times, arrival_times, sizes, frame_ids)``
    segments in the form the interval's length calls for: numpy arrays
    from ``ARRAY_MIN_REPORTS`` reports up, else lists (a lone segment in
    form is aliased). Ids stay runs (a chunk's: a range, one int)."""
    arrays = sum(len(segment[3]) for segment in segments) >= ARRAY_MIN_REPORTS
    if len(segments) == 1 and (type(segments[0][3]) is np.ndarray) is arrays:
        columns = segments[0][1:4]
    elif arrays:
        columns = map(np.concatenate, zip(*(seg[1:4] for seg in segments)))
    else:
        columns = ([], [], [])
        for segment in segments:
            for column, part in zip(columns, segment[1:4]):
                column += pylist(part)
    batch = ReportBatch((), *columns)
    batch._id_runs = [(segment[0], segment[4]) for segment in segments]
    return batch


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

    #: seqs past a hole before it counts as lost (in-flight reordering).
    REORDER_MARGIN = 3
    #: NACKs sent for one seq before it is given up.
    MAX_NACKS_PER_SEQ = 10

    def __init__(self) -> None:
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
        send_time, arrival_time = packet.t_leave_pacer, packet.t_arrival
        seqs.append(packet.seq)
        send_times.append(0.0 if send_time is None else send_time)
        arrival_times.append(0.0 if arrival_time is None else arrival_time)
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
        """Record a contiguous train of arriving media packets: the batch
        engine's ``on_packet`` for fresh, non-negative seqs only."""
        if self._open[0]:
            self._segments.append(self._open)
            self._open = ([], [], [], [], [])
        last = seq0 + len(sizes) - 1
        self._segments.append((range(seq0, last + 1), send_times,
                               arrival_times, sizes, frame_id))
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
        REORDER_MARGIN) — which bounds the table across a wide gap."""
        reach = stop - self.REORDER_MARGIN - NACK_WINDOW
        for seq in range(max(first, reach), stop):
            if seq not in self._recovered:
                self._holes[seq] = 0

    def _missing_seqs(self) -> List[int]:
        """Sequence numbers presumed lost (beyond the reordering margin)."""
        horizon = self._highest_seq - self.REORDER_MARGIN
        oldest = horizon - NACK_WINDOW
        missing, closed = [], []    # closed: aged out, or NACKed out
        for seq, nacks in self._holes.items():
            if seq > horizon:
                break
            if seq < oldest or nacks >= self.MAX_NACKS_PER_SEQ:
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
        if self._open[0] or not self._segments:
            self._segments.append(self._open)
        reports = sized_batch(self._segments)
        self._open, self._segments = ([], [], [], [], []), []
        return FeedbackMessage(now, reports, nacks, self._highest_seq,
                               self._cumulative_lost)

"""Transport-wide feedback (RTCP-style) from receiver to sender.

Mirrors WebRTC's transport-wide congestion-control feedback: the
receiver batches per-packet (seq, send_time, arrival_time) reports on a
fixed interval and returns them with a loss summary and NACK list. The
sender's congestion controller, ACE-N's queue estimator, and the
retransmission logic all consume these messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.net.packet import Packet

#: WebRTC sends transport feedback roughly every 50-100 ms; we use 50 ms.
DEFAULT_FEEDBACK_INTERVAL_S = 0.05

#: a hole is NACKed only while within this many seqs of the horizon.
NACK_WINDOW = 2000


class PacketReport:
    """One received packet as seen by the receiver.

    A slotted plain class rather than a dataclass: one report is
    allocated per received packet, which makes construction cost part of
    the simulator's hot path. Treat instances as immutable.
    """

    __slots__ = ("seq", "send_time", "arrival_time", "size_bytes", "frame_id")

    def __init__(self, seq: int, send_time: float, arrival_time: float,
                 size_bytes: int, frame_id: int = -1) -> None:
        self.seq = seq
        self.send_time = send_time
        self.arrival_time = arrival_time
        self.size_bytes = size_bytes
        self.frame_id = frame_id

    @property
    def one_way_delay(self) -> float:
        return self.arrival_time - self.send_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PacketReport(seq={self.seq}, send_time={self.send_time}, "
                f"arrival_time={self.arrival_time}, "
                f"size_bytes={self.size_bytes}, frame_id={self.frame_id})")


class _ReportChunk:
    """A contiguous run of received packets recorded column-wise.

    The batch engine delivers whole packet trains at once; recording one
    object per train (rather than one :class:`PacketReport` per packet)
    keeps feedback accumulation off the per-packet path.
    """

    __slots__ = ("seq0", "send_times", "arrival_times", "sizes", "frame_id")

    def __init__(self, seq0: int, send_times: np.ndarray,
                 arrival_times: np.ndarray, sizes: np.ndarray,
                 frame_id: int) -> None:
        self.seq0 = seq0
        self.send_times = send_times
        self.arrival_times = arrival_times
        self.sizes = sizes
        self.frame_id = frame_id


class ReportBatch:
    """Column-oriented stand-in for a list of :class:`PacketReport`.

    Array-aware consumers (GCC's delay signal, the queue estimator, the
    RTT observers) read the columns directly; everything else iterates
    and transparently gets lazily-materialized :class:`PacketReport`
    objects at reference-path cost.
    """

    __slots__ = ("send_times", "arrival_times", "sizes", "total_bytes",
                 "_chunks", "_seqs", "_frame_ids", "_materialized")

    def __init__(self, chunks: Sequence[_ReportChunk]) -> None:
        if len(chunks) == 1:
            # Alias the chunk's columns directly — chunk arrays are
            # immutable once recorded, so no defensive copy is needed.
            c = chunks[0]
            self.send_times = c.send_times
            self.arrival_times = c.arrival_times
            self.sizes = c.sizes
        else:
            self.send_times = np.concatenate([c.send_times for c in chunks])
            self.arrival_times = np.concatenate(
                [c.arrival_times for c in chunks])
            self.sizes = np.concatenate([c.sizes for c in chunks])
        self.total_bytes = int(self.sizes.sum())
        self._chunks = tuple(chunks)
        self._seqs: Optional[np.ndarray] = None
        self._frame_ids: Optional[np.ndarray] = None
        self._materialized: Optional[List[PacketReport]] = None

    @property
    def seqs(self) -> np.ndarray:
        # Built on demand: the fast-path consumers (GCC delay signal,
        # queue estimator, packet-pair) never read per-packet seqs.
        if self._seqs is None:
            self._seqs = np.concatenate(
                [np.arange(c.seq0, c.seq0 + len(c.sizes))
                 for c in self._chunks])
        return self._seqs

    @property
    def frame_ids(self) -> np.ndarray:
        if self._frame_ids is None:
            self._frame_ids = np.concatenate(
                [np.full(len(c.sizes), c.frame_id) for c in self._chunks])
        return self._frame_ids

    def _reports(self) -> List[PacketReport]:
        if self._materialized is None:
            self._materialized = [
                PacketReport(int(seq), send, arrival, int(size), int(fid))
                for seq, send, arrival, size, fid in zip(
                    self.seqs.tolist(), self.send_times.tolist(),
                    self.arrival_times.tolist(), self.sizes.tolist(),
                    self.frame_ids.tolist())
            ]
        return self._materialized

    def __len__(self) -> int:
        return len(self.sizes)

    def __iter__(self):
        return iter(self._reports())

    def __getitem__(self, index):
        return self._reports()[index]


@dataclass
class FeedbackMessage:
    """A batch of receive reports plus loss information."""

    created_at: float
    reports: Union[List[PacketReport], ReportBatch] = field(
        default_factory=list)
    nacked_seqs: List[int] = field(default_factory=list)
    #: highest sequence number seen so far (for loss accounting)
    highest_seq: int = -1
    #: receiver's cumulative count of distinct lost (never-received) seqs
    cumulative_lost: int = 0
    #: picture-loss indication: the receiver abandoned a frame and needs
    #: a decoder refresh (keyframe) to resume a valid reference chain.
    pli_requested: bool = False

    @property
    def received_bytes(self) -> int:
        reports = self.reports
        if type(reports) is ReportBatch:
            return reports.total_bytes
        return sum(r.size_bytes for r in reports)


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
        self._pending: List[Union[PacketReport, _ReportChunk]] = []
        self._has_chunks = False
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
        send_time = packet.t_leave_pacer
        arrival_time = packet.t_arrival
        self._pending.append(PacketReport(
            packet.seq,
            send_time if send_time is not None else 0.0,
            arrival_time if arrival_time is not None else 0.0,
            packet.size_bytes,
            packet.frame_id,
        ))
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
        self._pending.append(_ReportChunk(
            seq0, send_times, arrival_times, sizes, frame_id))
        self._has_chunks = True
        last = seq0 + len(sizes) - 1
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
        pending = self._pending
        reports: Union[List[PacketReport], ReportBatch]
        if not self._has_chunks:
            reports = pending
        else:
            # A scalar report among chunks (a retransmission delivered on
            # the batch engine's scalar lane) rides as a chunk of one, in
            # arrival order: the interval stays columnar.
            reports = ReportBatch([
                entry if type(entry) is _ReportChunk else _ReportChunk(
                    entry.seq, np.array([entry.send_time]),
                    np.array([entry.arrival_time]),
                    np.array([entry.size_bytes]), entry.frame_id)
                for entry in pending])
        message = FeedbackMessage(
            created_at=now,
            reports=reports,
            nacked_seqs=nacks,
            highest_seq=self._highest_seq,
            cumulative_lost=self._cumulative_lost,
        )
        self._pending = []
        self._has_chunks = False
        return message

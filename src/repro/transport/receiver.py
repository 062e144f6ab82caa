"""Transport receiver: frame reassembly, in-order display, stall accounting.

Collects arriving packets, reassembles frames (waiting for
retransmissions of lost packets), displays frames in order after decode,
and produces the per-frame records from which every latency/stall/QoS
metric in the evaluation is computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.net.packet import Packet, PacketType
from repro.transport.fec import FecDecoder

if TYPE_CHECKING:
    from repro.live.clock import Clock
from repro.transport.feedback import DEFAULT_FEEDBACK_INTERVAL_S, FeedbackBuilder, FeedbackMessage


@dataclass
class FrameRecord:
    """Receiver-side lifecycle of one video frame."""

    frame_id: int
    size_bytes: int = 0
    packet_count: int = 0
    packets_received: int = 0
    first_arrival: Optional[float] = None
    complete_at: Optional[float] = None
    displayed_at: Optional[float] = None
    had_retransmission: bool = False
    #: the sender's previously *sent* frame id (None if not signaled).
    prev_sent_frame_id: Optional[int] = None

    @property
    def complete(self) -> bool:
        return self.complete_at is not None


class TransportReceiver:
    """Receiver endpoint of the RTC session.

    ``decode_time_fn`` supplies the decoder-model latency per frame
    (flat across complexity — the receiver never pays for ACE-C).

    ``loop`` is any :class:`~repro.live.clock.Clock` — the sim
    ``EventLoop`` or a live ``WallClock``; the receiver schedules only
    through the clock protocol (feedback cadence, skip timers).

    ``display_fn`` is handed each :class:`FrameRecord` the moment it is
    displayed — on the arrival that completes it or on a skip timer —
    and is the only report of a display.

    ``fec`` says whether the flow's sender protects media with parity:
    only then is there a :class:`FecDecoder` (``self.fec``, else None)
    tracking every media seq received.
    """

    #: give up on an incomplete frame once a newer complete frame has
    #: been stuck behind it this long — loss recovery has failed and a
    #: real player would resume from the next decodable frame.
    SKIP_TIMEOUT = 0.4

    def __init__(self, loop: "Clock",
                 send_feedback_fn: Callable[[FeedbackMessage], None],
                 display_fn: Callable[[FrameRecord], None],
                 decode_time_fn: Callable[[], float],
                 fec: bool = False) -> None:
        self.loop = loop
        #: optional :class:`repro.obs.Telemetry` for receiver-side span
        #: stages (arrival, reassembly-complete, display).
        self.telemetry = None
        self.send_feedback_fn = send_feedback_fn
        self.display_fn = display_fn
        self.decode_time_fn = decode_time_fn
        self.feedback_builder = FeedbackBuilder()
        self.frames: dict[int, FrameRecord] = {}
        self.skipped_frames = 0
        self._next_display_id = 0
        #: highest frame id ever marked complete (frames never lose
        #: completeness and are never dropped from ``frames``, so this
        #: makes _has_newer_complete O(1)).
        self._max_complete_id = -1
        self._blocked_since: float | None = None
        self._pli_pending = False
        self._started = False
        #: FEC repair state; None for a flow sent without parity.
        self.fec = FecDecoder(on_repair=self._fec_repair) if fec else None
        self._fec_meta: dict[int, tuple[int, int, int, int]] = {}

    def start(self) -> None:
        """Begin the periodic feedback timer."""
        if not self._started:
            self._started = True
            self.loop.call_later(DEFAULT_FEEDBACK_INTERVAL_S, self._feedback_tick,
                                 name="receiver.feedback")

    # ------------------------------------------------------------------
    # packet arrival
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        """Handle a media, retransmitted, or FEC-parity packet arriving."""
        # fec_covers lives only on parity packets, which are always typed
        # PROBE; gating the getattr on ptype avoids a per-media-packet
        # AttributeError inside getattr (Packet is slotted).
        covers = (getattr(packet, "fec_covers", None)
                  if packet.ptype is PacketType.PROBE else None)
        if covers is not None:
            # Parity: report its arrival (it consumes bandwidth the CC
            # must see) and feed the repair machinery, but it is not
            # media — no frame bookkeeping.
            self.feedback_builder.on_packet(packet)
            self._fec_meta.update(getattr(packet, "fec_meta", {}))
            self.fec.on_parity(covers)
            return
        self.feedback_builder.on_packet(packet)
        fec = self.fec
        if (fec is not None and packet.retransmission_of is None
                and packet.seq >= 0 and packet.frame_id >= 0):
            fec.on_media(packet.seq)
        if packet.frame_id < 0:
            return
        record = self.frames.get(packet.frame_id)
        if record is None:
            record = FrameRecord(frame_id=packet.frame_id,
                                 packet_count=packet.frame_packet_count)
            self.frames[packet.frame_id] = record
        if record.first_arrival is None:
            record.first_arrival = packet.t_arrival
            if self.telemetry is not None:
                arrival = packet.t_arrival
                self.telemetry.frame_stage(
                    packet.frame_id, "arrival_first",
                    at=self.loop.now if arrival is None else arrival)
        # prev_sent_frame_id is stamped only on a frame's first packet.
        prev_sent = (getattr(packet, "prev_sent_frame_id", None)
                     if packet.frame_packet_index == 0 else None)
        if prev_sent is not None:
            record.prev_sent_frame_id = prev_sent
            # Frames between prev_sent and this one were never sent
            # (sender-side drop): do not wait for them.
            if prev_sent < self._next_display_id <= packet.frame_id - 1:
                self.skipped_frames += packet.frame_id - self._next_display_id
                self._next_display_id = packet.frame_id
                self._blocked_since = None
        if packet.retransmission_of is not None:
            record.had_retransmission = True
        record.packets_received += 1
        record.size_bytes += packet.size_bytes
        if (not record.complete
                and record.packets_received >= record.packet_count):
            self._complete(record)

    def on_media_chunk(self, frame_id: int, first_seq: int, index0: int,
                       packet_count: int, prev_sent_frame_id: Optional[int],
                       send_times, arrivals, sizes,
                       chunk_bytes: int) -> None:
        """Batch-engine arrival of a contiguous fresh-media packet train.

        Column-oriented twin of :meth:`on_packet` for never-retransmitted
        media packets of one frame, delivered in arrival order. The
        caller guarantees chronological delivery; this method moves the
        clock to the completing packet's arrival before display so
        ``complete_at``/``displayed_at`` match the reference path.
        """
        n = len(sizes)
        self.feedback_builder.on_chunk(
            first_seq, send_times, arrivals, sizes, frame_id)
        # No FEC bookkeeping: the batch engine only installs on sessions
        # without FEC, so no parity packet can ever reference these seqs.
        record = self.frames.get(frame_id)
        if record is None:
            record = FrameRecord(frame_id=frame_id, packet_count=packet_count)
            self.frames[frame_id] = record
        if record.first_arrival is None:
            record.first_arrival = float(arrivals[0])
            if self.telemetry is not None:
                self.telemetry.frame_stage(frame_id, "arrival_first",
                                           at=record.first_arrival)
        if index0 == 0 and prev_sent_frame_id is not None:
            record.prev_sent_frame_id = prev_sent_frame_id
            if prev_sent_frame_id < self._next_display_id <= frame_id - 1:
                self.skipped_frames += frame_id - self._next_display_id
                self._next_display_id = frame_id
                self._blocked_since = None
        prev_received = record.packets_received
        record.packets_received = prev_received + n
        record.size_bytes += chunk_bytes
        if (not record.complete
                and record.packets_received >= record.packet_count):
            completing = record.packet_count - prev_received - 1
            if completing >= n:
                completing = n - 1
            self.loop.now = float(arrivals[completing])
            self._complete(record)

    def _complete(self, record: FrameRecord) -> None:
        """A frame's last packet is in: mark it complete now and display
        whatever that unblocks."""
        record.complete_at = self.loop.now
        if record.frame_id > self._max_complete_id:
            self._max_complete_id = record.frame_id
        if self.telemetry is not None:
            self.telemetry.frame_stage(record.frame_id, "complete")
        self._try_display()

    def _try_display(self) -> None:
        """Display frames strictly in capture order once complete."""
        while True:
            record = self.frames.get(self._next_display_id)
            if record is None or not record.complete:
                # A complete newer frame waiting behind this hole starts
                # the skip clock; _skip_tick abandons the hole on expiry.
                if self._blocked_since is None and self._has_newer_complete():
                    self._blocked_since = self.loop.now
                    self.loop.call_later(self.SKIP_TIMEOUT, self._skip_tick,
                                         name="receiver.skip")
                return
            decode = self.decode_time_fn()
            # Displayed as soon as decoded: the paper's measurement mode.
            display_at = self.loop.now + decode
            record.displayed_at = display_at
            if self.telemetry is not None:
                self.telemetry.frame_stage(record.frame_id, "displayed",
                                           at=display_at)
            self._next_display_id += 1
            self._blocked_since = None
            self.display_fn(record)

    def _has_newer_complete(self) -> bool:
        return self._max_complete_id > self._next_display_id

    def _fec_repair(self, seq: int) -> None:
        """Reconstruct a lost media packet from parity and 'receive' it."""
        meta = self._fec_meta.get(seq)
        if meta is None:
            return
        frame_id, index, count, size = meta
        synthetic = Packet(
            size_bytes=size,
            seq=seq,
            frame_id=frame_id,
            frame_packet_index=index,
            frame_packet_count=count,
            retransmission_of=seq,  # suppresses pending NACKs for it
        )
        synthetic.t_leave_pacer = self.loop.now
        synthetic.t_arrival = self.loop.now
        self.feedback_builder.on_packet(synthetic)
        record = self.frames.get(frame_id)
        if record is None:
            record = FrameRecord(frame_id=frame_id, packet_count=count)
            self.frames[frame_id] = record
        record.packets_received += 1
        record.size_bytes += size
        if not record.complete and record.packets_received >= record.packet_count:
            self._complete(record)

    def _skip_tick(self) -> None:
        if self._blocked_since is None:
            return
        if self.loop.now - self._blocked_since < self.SKIP_TIMEOUT - 1e-9:
            return
        record = self.frames.get(self._next_display_id)
        if record is None or not record.complete:
            self.skipped_frames += 1
            self._next_display_id += 1
            self._blocked_since = None
            # The reference chain is broken: ask for a decoder refresh.
            self._pli_pending = True
            self._try_display()

    def skip_frame(self, frame_id: int) -> None:
        """Advance past a frame the sender never produced (sim bookkeeping)."""
        if frame_id == self._next_display_id:
            self._next_display_id += 1
            self._try_display()

    # ------------------------------------------------------------------
    # feedback
    # ------------------------------------------------------------------
    def _feedback_tick(self) -> None:
        message = self.feedback_builder.build(self.loop.now)
        if self._pli_pending:
            message.pli_requested = True
            self._pli_pending = False
        self.send_feedback_fn(message)
        self.loop.call_later(DEFAULT_FEEDBACK_INTERVAL_S, self._feedback_tick,
                             name="receiver.feedback")


"""Packet model shared by the transport and network layers."""

from __future__ import annotations

import enum
import itertools
from typing import Optional

#: Default RTP payload size used throughout the reproduction. The paper's
#: WebRTC stack packetizes video into ~1200-byte payloads inside a
#: 1500-byte MTU.
DEFAULT_MTU_BYTES = 1500
DEFAULT_PAYLOAD_BYTES = 1200

_packet_ids = itertools.count(1)
_next_packet_id = _packet_ids.__next__


class PacketType(enum.Enum):
    """What a packet carries; the link treats all types identically."""

    VIDEO = "video"
    RETRANSMIT = "rtx"
    PROBE = "probe"
    CROSS = "cross"
    FEEDBACK = "feedback"


class Packet:
    """A single packet travelling sender → receiver (or back, for feedback).

    Timestamps are filled in as the packet moves through the pipeline so
    that latency can be decomposed exactly the way the paper's Fig. 6
    breakdown does (pacing vs. network vs. retransmission).

    ``__slots__`` keeps per-packet allocation cheap — a 30 Mbps session
    creates >100 packets per frame, so this type dominates allocations.
    The trailing slots (``prev_sent_frame_id``, ``audio_seq``,
    ``audio_capture``, ``fec_covers``, ``fec_meta``) are extension
    attributes that substreams stamp on their own packets; they are left
    unassigned here so ``hasattr``/``getattr`` probes behave exactly as
    they did when those were ad-hoc attributes.
    """

    __slots__ = (
        "size_bytes", "ptype", "seq", "frame_id", "frame_packet_index",
        "frame_packet_count", "flow_id", "packet_id",
        "t_enqueue_pacer", "t_leave_pacer", "t_enter_queue",
        "t_leave_queue", "t_arrival",
        "dropped", "retransmission_of",
        # extension attributes (absent until a substream assigns them)
        "prev_sent_frame_id", "audio_seq", "audio_capture",
        "fec_covers", "fec_meta",
    )

    def __init__(self, size_bytes: int,
                 ptype: PacketType = PacketType.VIDEO,
                 seq: int = -1,                 # transport sequence number
                 frame_id: int = -1,            # owning video frame, -1 for non-video
                 frame_packet_index: int = 0,   # index of this packet within its frame
                 frame_packet_count: int = 0,   # total packets in the frame
                 flow_id: int = 0,              # 0 = the RTC flow, >0 = cross traffic
                 t_enqueue_pacer: Optional[float] = None,
                 t_leave_pacer: Optional[float] = None,
                 retransmission_of: Optional[int] = None) -> None:
        self.size_bytes = size_bytes
        self.ptype = ptype
        self.seq = seq
        self.frame_id = frame_id
        self.frame_packet_index = frame_packet_index
        self.frame_packet_count = frame_packet_count
        self.flow_id = flow_id
        self.packet_id = _next_packet_id()
        # --- timestamps (simulation seconds; None until the event happens) ---
        self.t_enqueue_pacer = t_enqueue_pacer
        self.t_leave_pacer = t_leave_pacer
        self.t_enter_queue = None
        self.t_leave_queue = None
        self.t_arrival = None
        # --- bookkeeping ---
        self.dropped = False
        self.retransmission_of = retransmission_of  # original seq for RTX packets

    def __repr__(self) -> str:
        return (f"Packet(id={self.packet_id}, seq={self.seq}, "
                f"type={self.ptype.value}, size={self.size_bytes}, "
                f"frame={self.frame_id})")

    def clone_for_retransmission(self) -> "Packet":
        """Build a fresh packet carrying the same payload metadata."""
        return Packet(
            size_bytes=self.size_bytes,
            ptype=PacketType.RETRANSMIT,
            seq=-1,
            frame_id=self.frame_id,
            frame_packet_index=self.frame_packet_index,
            frame_packet_count=self.frame_packet_count,
            flow_id=self.flow_id,
            retransmission_of=self.seq if self.retransmission_of is None else self.retransmission_of,
        )

"""RTP-style packetization of encoded frames."""

from __future__ import annotations

from typing import List

from repro.net.packet import DEFAULT_PAYLOAD_BYTES, Packet, PacketType
from repro.video.frame import EncodedFrame


class Packetizer:
    """Splits encoded frames into fixed-MTU packets with sequence numbers.

    A 30 Mbps, 30 fps stream yields >100 packets per frame — the
    burstiness the whole paper is about — so the per-frame packet count
    must be faithful.
    """

    def __init__(self, payload_bytes: int = DEFAULT_PAYLOAD_BYTES) -> None:
        if payload_bytes <= 0:
            raise ValueError("payload size must be positive")
        self.payload_bytes = payload_bytes
        self._next_seq = 0

    def reserve(self, count: int) -> int:
        """Take the next ``count`` sequence numbers; return the first."""
        seq = self._next_seq
        self._next_seq = seq + count
        return seq

    def packet_count(self, size_bytes: int) -> int:
        """Number of packets a frame of ``size_bytes`` occupies."""
        count = (size_bytes + self.payload_bytes - 1) // self.payload_bytes
        return count if count > 1 else 1

    def packetize(self, frame: EncodedFrame,
                  prev_sent_frame_id: int | None = None) -> List[Packet]:
        """Produce the packet train for ``frame`` in send order.

        ``prev_sent_frame_id`` is stamped on the first packet so the
        receiver can distinguish sender-dropped frames (a frame-id gap
        it must not wait on) from in-flight loss — the continuity signal
        real RTP gets from sequence numbers.
        """
        count = self.packet_count(frame.size_bytes)
        payload = self.payload_bytes
        frame_id = frame.frame_id
        seq = self.reserve(count)
        packets: List[Packet] = []
        append = packets.append
        remaining = frame.size_bytes
        for index in range(count):
            size = payload if remaining > payload else remaining
            remaining -= size
            append(Packet(
                size_bytes=size,
                ptype=PacketType.VIDEO,
                seq=seq + index,
                frame_id=frame_id,
                frame_packet_index=index,
                frame_packet_count=count,
            ))
        if prev_sent_frame_id is not None:
            packets[0].prev_sent_frame_id = prev_sent_frame_id
        return packets

    def assign_seq(self, packet: Packet) -> Packet:
        """Give a retransmission (or probe) packet a fresh sequence number."""
        packet.seq = self.reserve(1)
        return packet

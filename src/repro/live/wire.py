"""Binary wire format for live (UDP) sessions.

Media packets and feedback messages travel between the live sender and
receiver as self-describing datagrams. Two properties matter:

* **Realistic sizes.** A media datagram is padded to the packet's
  modelled ``size_bytes``, so what crosses the socket is the number of
  bytes the codec model says the packet carries (and the path
  serialized). Payload bytes are zeros — the reproduction cares
  about timing, not pixels.
* **Losslessness of metadata.** Every field the receiver-side stack
  reads off a :class:`~repro.net.packet.Packet` (sequence numbers,
  frame geometry, pacer-exit timestamp, RTX/audio extension attributes)
  round-trips exactly, so the receiver, feedback builder and congestion
  controller behave as they do in simulation.

Timestamps are clock-relative seconds. Both ends of a loopback session
share one :class:`~repro.live.clock.WallClock`, so no clock-sync step
is needed; a future cross-host mode would have to add one (the paper's
testbed sidesteps this the same way — sender and receiver share a
machine behind Mahimahi).

FEC parity packets (``fec_covers``/``fec_meta``) are not encoded; live
sessions reject FEC-enabled baselines rather than silently dropping
protection.
"""

from __future__ import annotations

import struct
from typing import List

from repro.net.packet import Packet, PacketType

#: Datagram kind discriminators (first byte on the wire); any other
#: first byte is malformed.
KIND_MEDIA = 0x01
KIND_FEEDBACK = 0x02

#: Media header flag bits.
_FLAG_RTX = 0x01
_FLAG_PREV_SENT = 0x02
_FLAG_AUDIO = 0x04

#: Feedback flag bits.
_FLAG_PLI = 0x01

#: wire code of each packet type, keyed by the member's ``_value_``: a
#: str hash is cached, an ``Enum`` member's is a Python-level call (and
#: so is ``.value``), once per datagram.
_PTYPE_CODES = {t._value_: i for i, t in enumerate(PacketType)}
_PTYPE_BY_CODE = tuple(PacketType)

# kind, flags, ptype, seq, frame_id, index, count, flow_id, size, t_leave_pacer
_MEDIA_HEADER = struct.Struct("!BBBiiHHHId")
_I32 = struct.Struct("!i")
_AUDIO_EXT = struct.Struct("!id")

# kind, flags, created_at, highest_seq, cumulative_lost, n_reports, n_nacks
_FB_HEADER = struct.Struct("!BBdiIHH")
# seq, send_time, arrival_time, size_bytes, frame_id
_FB_REPORT = struct.Struct("!iddIi")

#: Reports per feedback datagram; keeps every datagram far below the
#: 65507-byte UDP payload ceiling even with the NACK list attached.
MAX_REPORTS_PER_DATAGRAM = 1500


def encode_packet(packet: Packet) -> bytes:
    """Serialize a media packet, padded to its modelled size."""
    flags = 0
    tail = b""
    if packet.retransmission_of is not None:
        flags |= _FLAG_RTX
        tail += _I32.pack(packet.retransmission_of)
    prev_sent = getattr(packet, "prev_sent_frame_id", None)
    if prev_sent is not None:
        flags |= _FLAG_PREV_SENT
        tail += _I32.pack(prev_sent)
    audio_seq = getattr(packet, "audio_seq", None)
    if audio_seq is not None:
        flags |= _FLAG_AUDIO
        tail += _AUDIO_EXT.pack(audio_seq,
                                getattr(packet, "audio_capture", 0.0))
    header = _MEDIA_HEADER.pack(
        KIND_MEDIA, flags, _PTYPE_CODES[packet.ptype._value_],
        packet.seq, packet.frame_id,
        packet.frame_packet_index, packet.frame_packet_count,
        packet.flow_id, packet.size_bytes,
        packet.t_leave_pacer if packet.t_leave_pacer is not None else -1.0,
    )
    data = header + tail
    if len(data) < packet.size_bytes:
        data += bytes(packet.size_bytes - len(data))
    return data


def decode_packet(data: bytes) -> Packet:
    """Rebuild a :class:`Packet` from a media datagram."""
    (_kind, flags, ptype_code, seq, frame_id, index, count, flow_id,
     size_bytes, t_leave) = _MEDIA_HEADER.unpack_from(data)
    offset = _MEDIA_HEADER.size
    retransmission_of = None
    if flags & _FLAG_RTX:
        (retransmission_of,) = _I32.unpack_from(data, offset)
        offset += _I32.size
    packet = Packet(
        size_bytes=size_bytes,
        ptype=_PTYPE_BY_CODE[ptype_code],
        seq=seq,
        frame_id=frame_id,
        frame_packet_index=index,
        frame_packet_count=count,
        flow_id=flow_id,
        t_leave_pacer=t_leave if t_leave >= 0 else None,
        retransmission_of=retransmission_of,
    )
    if flags & _FLAG_PREV_SENT:
        (packet.prev_sent_frame_id,) = _I32.unpack_from(data, offset)
        offset += _I32.size
    if flags & _FLAG_AUDIO:
        packet.audio_seq, packet.audio_capture = _AUDIO_EXT.unpack_from(
            data, offset)
        offset += _AUDIO_EXT.size
    return packet


def encode_feedback(message) -> List[bytes]:
    """Serialize a FeedbackMessage into one or more datagrams.

    Reports are chunked so a datagram never outgrows a UDP payload; the
    NACK list and flags ride on the first chunk only (a NACK repeated
    across chunks would trigger duplicate retransmissions).
    """
    reports = message.reports
    chunks: List[bytes] = []
    first = True
    for start in range(0, max(len(reports), 1), MAX_REPORTS_PER_DATAGRAM):
        batch = reports[start:start + MAX_REPORTS_PER_DATAGRAM]
        nacks = message.nacked_seqs if first else []
        flags = (_FLAG_PLI if (first and message.pli_requested) else 0)
        parts = [_FB_HEADER.pack(
            KIND_FEEDBACK, flags, message.created_at,
            message.highest_seq, message.cumulative_lost,
            len(batch), len(nacks))]
        parts.extend(
            _FB_REPORT.pack(r.seq, r.send_time, r.arrival_time,
                            r.size_bytes, r.frame_id)
            for r in batch)
        parts.extend(_I32.pack(seq) for seq in nacks)
        chunks.append(b"".join(parts))
        first = False
    return chunks


def decode_feedback(data: bytes):
    """Rebuild a FeedbackMessage from one feedback datagram."""
    # Imported here: wire stays importable from the transport layer
    # without dragging the feedback module into every consumer.
    from repro.transport.feedback import FeedbackMessage, PacketReport

    (_kind, flags, created_at, highest_seq, cumulative_lost,
     n_reports, n_nacks) = _FB_HEADER.unpack_from(data)
    offset = _FB_HEADER.size
    reports = []
    for _ in range(n_reports):
        seq, send_time, arrival_time, size_bytes, frame_id = \
            _FB_REPORT.unpack_from(data, offset)
        offset += _FB_REPORT.size
        reports.append(PacketReport(seq, send_time, arrival_time,
                                    size_bytes, frame_id))
    nacks = []
    for _ in range(n_nacks):
        (seq,) = _I32.unpack_from(data, offset)
        offset += _I32.size
        nacks.append(seq)
    return FeedbackMessage(
        created_at=created_at,
        reports=reports,
        nacked_seqs=nacks,
        highest_seq=highest_seq,
        cumulative_lost=cumulative_lost,
        pli_requested=bool(flags & _FLAG_PLI),
    )

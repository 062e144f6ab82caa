"""Roundtrip tests for the live (UDP) wire format."""

from __future__ import annotations

import pytest

from repro.live.wire import (
    KIND_FEEDBACK,
    KIND_MEDIA,
    MAX_REPORTS_PER_DATAGRAM,
    decode_feedback,
    decode_packet,
    encode_feedback,
    encode_packet,
)
from repro.net.packet import Packet, PacketType
from repro.transport.feedback import FeedbackMessage, ReportBatch


def test_media_packet_roundtrip_all_fields():
    packet = Packet(
        size_bytes=1200,
        ptype=PacketType.VIDEO,
        seq=4711,
        frame_id=57,
        frame_packet_index=3,
        frame_packet_count=9,
        flow_id=2,
        t_leave_pacer=1.234567891,
    )
    packet.prev_sent_frame_id = 56
    data = encode_packet(packet)
    assert data[0] == KIND_MEDIA
    # What crosses the socket is the modelled size.
    assert len(data) == packet.size_bytes

    out = decode_packet(data)
    assert out.seq == packet.seq
    assert out.ptype is PacketType.VIDEO
    assert out.frame_id == packet.frame_id
    assert out.frame_packet_index == packet.frame_packet_index
    assert out.frame_packet_count == packet.frame_packet_count
    assert out.flow_id == packet.flow_id
    assert out.size_bytes == packet.size_bytes
    assert out.t_leave_pacer == pytest.approx(packet.t_leave_pacer, abs=0)
    assert out.prev_sent_frame_id == 56
    assert out.retransmission_of is None


def test_retransmission_flag_roundtrip():
    packet = Packet(size_bytes=900, ptype=PacketType.RETRANSMIT, seq=100,
                    frame_id=7, retransmission_of=42)
    out = decode_packet(encode_packet(packet))
    assert out.ptype is PacketType.RETRANSMIT
    assert out.retransmission_of == 42


def test_none_t_leave_pacer_roundtrips_as_none():
    packet = Packet(size_bytes=500, seq=1, t_leave_pacer=None)
    out = decode_packet(encode_packet(packet))
    assert out.t_leave_pacer is None


def test_audio_extension_roundtrip():
    packet = Packet(size_bytes=160, seq=9, frame_id=-1)
    packet.audio_seq = 314
    packet.audio_capture = 2.5
    out = decode_packet(encode_packet(packet))
    assert out.audio_seq == 314
    assert out.audio_capture == 2.5


def test_small_packet_header_may_exceed_modelled_size():
    # Headers are never truncated: a tiny modelled size still decodes.
    packet = Packet(size_bytes=4, seq=1, frame_id=2)
    data = encode_packet(packet)
    assert len(data) >= 4
    out = decode_packet(data)
    assert out.size_bytes == 4


def test_feedback_roundtrip():
    message = FeedbackMessage(
        created_at=3.25,
        reports=ReportBatch(
            seqs=list(range(10)), send_times=[0.1 * i for i in range(10)],
            arrival_times=[0.1 * i + 0.02 for i in range(10)],
            sizes=[1200] * 10, frame_ids=[i // 3 for i in range(10)]),
        nacked_seqs=[2, 5],
        highest_seq=9,
        cumulative_lost=2,
        pli_requested=True,
    )
    chunks = encode_feedback(message)
    assert len(chunks) == 1
    assert chunks[0][0] == KIND_FEEDBACK

    out = decode_feedback(chunks[0])
    assert out.created_at == message.created_at
    assert out.highest_seq == 9
    assert out.cumulative_lost == 2
    assert out.nacked_seqs == [2, 5]
    assert out.pli_requested is True
    for name in ("seqs", "send_times", "arrival_times", "sizes",
                 "frame_ids"):
        assert getattr(out.reports, name) == getattr(message.reports, name)


def test_empty_feedback_still_produces_one_datagram():
    message = FeedbackMessage(created_at=1.0)
    chunks = encode_feedback(message)
    assert len(chunks) == 1
    out = decode_feedback(chunks[0])
    assert len(out.reports) == 0
    assert out.nacked_seqs == []
    assert out.pli_requested is False


def test_feedback_chunking_preserves_reports_and_dedups_nacks():
    n = MAX_REPORTS_PER_DATAGRAM + 50
    message = FeedbackMessage(
        created_at=9.0,
        reports=ReportBatch(
            seqs=list(range(n)), send_times=[float(i) for i in range(n)],
            arrival_times=[float(i) + 0.01 for i in range(n)],
            sizes=[100] * n, frame_ids=[0] * n),
        nacked_seqs=[1, 2, 3],
        highest_seq=n - 1,
        pli_requested=True,
    )
    chunks = encode_feedback(message)
    assert len(chunks) == 2
    assert all(len(c) < 65_507 for c in chunks)  # UDP payload ceiling

    first = decode_feedback(chunks[0])
    second = decode_feedback(chunks[1])
    # NACKs and PLI ride on the first chunk only.
    assert first.nacked_seqs == [1, 2, 3] and first.pli_requested
    assert second.nacked_seqs == [] and not second.pli_requested
    seqs = list(first.reports.seqs) + list(second.reports.seqs)
    assert seqs == list(range(n))

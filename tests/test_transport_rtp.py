"""Tests for RTP-style packetization."""

import pytest

from repro.net.packet import Packet
from repro.transport.rtp import Packetizer
from repro.video.frame import EncodedFrame


def encoded(size_bytes, fid=0):
    return EncodedFrame(
        frame_id=fid, capture_time=0.0, size_bytes=size_bytes,
        encode_time=0.006, quality_vmaf=85.0, complexity_level=0,
        qp=26.0, satd=1.0, planned_bytes=size_bytes,
    )


def test_packet_count_matches_size():
    pk = Packetizer(payload_bytes=1200)
    assert pk.packet_count(1200) == 1
    assert pk.packet_count(1201) == 2
    assert pk.packet_count(120_000) == 100
    assert pk.packet_count(1) == 1


def test_large_frame_yields_many_packets():
    """30 Mbps / 30 fps frame = 125 KB -> over 100 packets (paper §1)."""
    pk = Packetizer()
    packets = pk.packetize(encoded(125_000))
    assert len(packets) > 100


def test_sizes_sum_to_frame_size():
    pk = Packetizer(payload_bytes=1200)
    packets = pk.packetize(encoded(5000))
    assert sum(p.size_bytes for p in packets) == 5000
    assert [p.size_bytes for p in packets] == [1200, 1200, 1200, 1200, 200]


def test_sequence_numbers_contiguous_across_frames():
    pk = Packetizer(payload_bytes=1200)
    first = pk.packetize(encoded(3000, fid=0))
    second = pk.packetize(encoded(3000, fid=1))
    seqs = [p.seq for p in first + second]
    assert seqs == list(range(6))


def test_frame_metadata_on_packets():
    pk = Packetizer(payload_bytes=1200)
    packets = pk.packetize(encoded(3000, fid=7))
    assert all(p.frame_id == 7 for p in packets)
    assert all(p.frame_packet_count == 3 for p in packets)
    assert [p.frame_packet_index for p in packets] == [0, 1, 2]


def test_assign_seq_for_retransmission():
    pk = Packetizer()
    media = pk.packetize(encoded(2400))
    rtx = Packet(size_bytes=1200, retransmission_of=0)
    pk.assign_seq(rtx)
    assert rtx.seq == media[-1].seq + 1
    assert pk.packetize(encoded(1200))[0].seq == rtx.seq + 1


def test_invalid_payload_size():
    with pytest.raises(ValueError):
        Packetizer(payload_bytes=0)

"""Tests for the packet model."""

from repro.net.packet import DEFAULT_PAYLOAD_BYTES, Packet, PacketType


def test_unique_ids():
    a, b = Packet(size_bytes=100), Packet(size_bytes=100)
    assert a.packet_id != b.packet_id


def test_timing_properties_none_until_stamped():
    p = Packet(size_bytes=1200)
    assert (p.t_enqueue_pacer, p.t_leave_pacer, p.t_enter_queue,
            p.t_leave_queue, p.t_arrival) == (None,) * 5


def test_clone_for_retransmission_carries_identity():
    original = Packet(size_bytes=900, seq=42, frame_id=7,
                      frame_packet_index=3, frame_packet_count=10)
    rtx = original.clone_for_retransmission()
    assert rtx.ptype == PacketType.RETRANSMIT
    assert rtx.retransmission_of == 42
    assert rtx.seq == -1  # fresh seq assigned later
    assert rtx.frame_id == 7
    assert rtx.frame_packet_index == 3
    assert rtx.size_bytes == 900
    assert rtx.packet_id != original.packet_id


def test_retransmission_of_retransmission_points_at_original():
    original = Packet(size_bytes=900, seq=42)
    rtx1 = original.clone_for_retransmission()
    rtx1.seq = 100
    rtx2 = rtx1.clone_for_retransmission()
    assert rtx2.retransmission_of == 42


def test_default_payload_fits_mtu():
    assert DEFAULT_PAYLOAD_BYTES <= 1500

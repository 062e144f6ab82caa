"""Tests for the XOR-parity FEC subsystem."""

import pytest

from repro.net.packet import Packet
from repro.net.trace import BandwidthTrace
from repro.rtc.baselines import build_session
from repro.rtc.session import SessionConfig
from repro.transport.fec import FecConfig, FecDecoder, FecEncoder


def media(seq, frame_id=0, count=10, size=1200):
    return Packet(size_bytes=size, seq=seq, frame_id=frame_id,
                  frame_packet_index=seq % count, frame_packet_count=count)


class TestEncoder:
    def test_parity_every_group(self):
        enc = FecEncoder(FecConfig(group_size=5, adaptive=False))
        out = enc.protect([media(i) for i in range(10)])
        parity = [p for p in out if hasattr(p, "fec_covers")]
        assert len(parity) == 2
        assert parity[0].fec_covers == [0, 1, 2, 3, 4]
        assert parity[1].fec_covers == [5, 6, 7, 8, 9]

    def test_partial_group_still_protected(self):
        enc = FecEncoder(FecConfig(group_size=5, adaptive=False))
        out = enc.protect([media(i) for i in range(7)])
        parity = [p for p in out if hasattr(p, "fec_covers")]
        assert len(parity) == 2
        assert parity[1].fec_covers == [5, 6]

    def test_parity_carries_reconstruction_metadata(self):
        enc = FecEncoder(FecConfig(group_size=3, adaptive=False))
        out = enc.protect([media(i, frame_id=7) for i in range(3)])
        parity = [p for p in out if hasattr(p, "fec_covers")][0]
        assert set(parity.fec_meta) == {0, 1, 2}
        assert parity.fec_meta[1][0] == 7  # frame id

    def test_adaptive_redundancy_tightens_under_loss(self):
        enc = FecEncoder(FecConfig(group_size=10, adaptive=True,
                                   min_group_size=4, max_group_size=20))
        for _ in range(20):
            enc.observe_loss_rate(0.10)
        high_loss_group = enc.group_size
        for _ in range(60):
            enc.observe_loss_rate(0.0)
        assert high_loss_group <= 5
        assert enc.group_size == 20

    def test_media_order_preserved(self):
        enc = FecEncoder(FecConfig(group_size=4, adaptive=False))
        out = enc.protect([media(i) for i in range(8)])
        media_seqs = [p.seq for p in out if not hasattr(p, "fec_covers")]
        assert media_seqs == list(range(8))


class TestDecoder:
    def test_single_loss_repaired(self):
        repaired = []
        dec = FecDecoder(on_repair=repaired.append)
        for seq in (0, 1, 3, 4):  # 2 lost
            dec.on_media(seq)
        dec.on_parity([0, 1, 2, 3, 4])
        assert repaired == [2]
        assert dec.stats.repairs == 1

    def test_double_loss_not_repaired(self):
        repaired = []
        dec = FecDecoder(on_repair=repaired.append)
        for seq in (0, 1, 4):  # 2 and 3 lost
            dec.on_media(seq)
        dec.on_parity([0, 1, 2, 3, 4])
        assert repaired == []
        assert len(dec._pending) == 1

    def test_late_media_enables_repair(self):
        """A NACK-recovered packet can unlock the parity's last repair."""
        repaired = []
        dec = FecDecoder(on_repair=repaired.append)
        dec.on_media(0)
        dec.on_parity([0, 1, 2])
        assert repaired == []
        dec.on_media(1)  # now only 2 missing
        assert repaired == [2]

    def test_complete_group_discards_parity(self):
        dec = FecDecoder(on_repair=lambda s: None)
        for seq in range(5):
            dec.on_media(seq)
        dec.on_parity([0, 1, 2, 3, 4])
        assert dec._pending == []


class TestPipelineIntegration:
    def test_fec_repairs_and_cuts_retransmissions(self):
        # At ~1.5% random loss the adaptive group size is wide enough
        # that almost every loss is a single within its group and gets
        # repaired in place instead of NACK-recovered.
        trace = BandwidthTrace.constant(20e6, duration=30.0)
        cfg = SessionConfig(duration=10.0, seed=4, random_loss_rate=0.015,
                            initial_bwe_bps=10e6)
        plain = build_session("ace", trace, cfg)
        m_plain = plain.run()
        fec = build_session("ace-fec", trace, cfg)
        m_fec = fec.run()
        assert fec.receiver.fec.stats.repairs > 50
        assert fec.sender.retransmissions < 0.7 * plain.sender.retransmissions
        # most frames still flow
        assert len(m_fec.displayed_frames()) > 0.9 * len(m_fec.frames)

    def test_fec_repairs_bounded_by_actual_losses(self):
        trace = BandwidthTrace.constant(20e6, duration=15.0)
        cfg = SessionConfig(duration=4.0, seed=4, initial_bwe_bps=10e6)
        session = build_session("ace-fec", trace, cfg)
        session.run()
        stats = session.receiver.fec.stats
        assert stats.parity_received > 0
        # repairs only ever correspond to genuinely lost packets
        assert stats.repairs <= len(session.path.lost_packets)

    def test_plain_sessions_have_no_parity(self):
        trace = BandwidthTrace.constant(20e6, duration=15.0)
        cfg = SessionConfig(duration=3.0, seed=4, initial_bwe_bps=10e6)
        session = build_session("ace", trace, cfg)
        session.run()
        assert session.sender.fec is None
        assert session.receiver.fec.stats.parity_received == 0

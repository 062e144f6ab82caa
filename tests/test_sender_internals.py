"""Focused tests on Sender behaviours not covered by the integration suite."""

import numpy as np
import pytest

from repro.net.trace import BandwidthTrace
from repro.rtc.baselines import build_session
from repro.rtc.session import SessionConfig


def run_session(name, duration=4.0, **kwargs):
    trace = BandwidthTrace.constant(20e6, duration=duration + 10)
    cfg = SessionConfig(duration=duration, seed=6, initial_bwe_bps=8e6)
    session = build_session(name, trace, cfg, **kwargs)
    metrics = session.run()
    return session, metrics


def test_capture_cadence_exact():
    session, m = run_session("webrtc-star")
    captures = [f.capture_time for f in m.frames]
    diffs = np.diff(captures)
    assert np.allclose(diffs, 1 / 30.0)


def test_pacer_enqueue_after_encode():
    _, m = run_session("webrtc-star")
    for f in m.frames:
        if f.pacer_enqueue is not None:
            # frames enter the pacer only after their encode completes
            assert f.pacer_enqueue >= f.capture_time + 0.001


def test_media_pushback_reduces_target_under_backlog():
    session, _ = run_session("webrtc-star", duration=2.0)
    sender = session.sender
    base = sender.target_bitrate_bps()
    # simulate a large pacer backlog
    sender.pacer._queued_bytes += int(sender.cc.bwe_bps * 0.5 / 8)  # 500 ms
    squeezed = sender.target_bitrate_bps()
    assert squeezed < base
    sender.pacer._queued_bytes = 0


def test_google_meet_cap_binds():
    session, m = run_session("google-meet", duration=4.0)
    assert session.sender.target_bitrate_bps() <= 4_000_000.0
    sizes = [f.size_bytes for f in m.frames[-30:]]
    achieved = np.mean(sizes) * 8 * 30
    assert achieved < 6_000_000.0


def test_salsify_double_encode_time():
    s_salsify, m_salsify = run_session("salsify")
    s_star, m_star = run_session("webrtc-star")
    t_salsify = np.mean([f.encode_time for f in m_salsify.frames])
    t_star = np.mean([f.encode_time for f in m_star.frames])
    assert t_salsify > 1.6 * t_star


def test_rtx_packets_get_fresh_seqs():
    trace = BandwidthTrace.constant(20e6, duration=12.0)
    cfg = SessionConfig(duration=4.0, seed=6, random_loss_rate=0.05,
                        initial_bwe_bps=8e6)
    session = build_session("webrtc-star", trace, cfg)
    pacer = session.sender.pacer
    seqs, send = [], pacer.send_fn

    def recording_send(packet):
        seqs.append(packet.seq)
        send(packet)
    pacer.send_fn = recording_send
    session.run()
    assert session.sender.retransmissions > 0
    # one sequence space for media and rtx, never reused
    assert len(seqs) == pacer.stats.sent_packets
    assert len(set(seqs)) == len(seqs)


def test_forget_frame_clears_rtx_state():
    session, m = run_session("webrtc-star", duration=2.0)
    sender = session.sender
    # after the run, displayed frames must have been forgotten
    displayed_ids = {f.frame_id for f in m.displayed_frames()}
    remaining = {frame_id for frame_id, *_entry in sender._rtx_frames}
    assert displayed_ids and not (displayed_ids & remaining)


def test_nacks_are_answered_from_the_frame_table():
    """One entry per frame, looked up by bisection: a NACK inside a
    remembered frame is resent from ``packet_at``; one for a forgotten
    frame, for a seq between frames (an RTX's own) or below the table
    finds nothing; a repeat inside ``rtx_min_interval`` is skipped."""
    from repro.net.packet import Packet

    trace = BandwidthTrace.constant(20e6, duration=5.0)
    sender = build_session("webrtc-star", trace, SessionConfig()).sender
    built = []

    def frame(frame_id, seq0, count):
        def packet_at(k):
            built.append((frame_id, k))
            return Packet(size_bytes=1000 + k, seq=seq0 + k,
                          frame_id=frame_id, frame_packet_index=k,
                          frame_packet_count=count)
        sender.remember_frame(frame_id, seq0, count, packet_at)

    frame(7, 10, 3)         # seqs 10..12
    frame(8, 13, 2)         # 13..14; 15 goes to a retransmission
    frame(9, 16, 4)         # 16..19
    sender.forget_frame(8)
    sender.forget_frame(8)  # already gone: nothing to do
    sender._handle_nacks([3, 12, 13, 15, 17, 40, 12])
    assert built == [(7, 2), (9, 1)]
    assert sender.retransmissions == 2
    queued = list(sender.pacer._rtx_queue)
    assert [(p.retransmission_of, p.size_bytes) for p in queued] == [
        (12, 1002), (17, 1001)]
    assert sorted(sender._rtx_last_sent) == [12, 17]
    sender.forget_frame(7)
    assert sorted(sender._rtx_last_sent) == [17]
    assert [entry[0] for entry in sender._rtx_frames] == [9]


def test_ace_rate_factor_applied_to_pacer():
    session, _ = run_session("ace", duration=4.0)
    pacer = session.sender.pacer
    acen = session.sender.ace_n
    budget = session.sender.target_bitrate_bps() / 30 / 8
    assert pacer.rate_factor == pytest.approx(acen.rate_factor(budget), rel=0.3)

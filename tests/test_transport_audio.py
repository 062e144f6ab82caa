"""Tests for the prioritized audio substream."""

import numpy as np
import pytest

from repro.net.packet import Packet
from repro.net.trace import BandwidthTrace
from repro.rtc.baselines import build_session
from repro.rtc.session import SessionConfig
from repro.sim.events import EventLoop
from repro.transport.audio import AudioReceiver, AudioSource
from repro.transport.pacer.leaky_bucket import LeakyBucketPacer


class TestAudioSource:
    def test_cadence(self):
        loop = EventLoop()
        sent = []
        src = AudioSource(loop, sent.append)
        src.start()
        loop.run(until=0.205)
        assert len(sent) == 11  # t=0 .. t=0.2 inclusive
        seqs = [p.audio_seq for p in sent]
        assert seqs == list(range(11))

    def test_stop_halts_cadence(self):
        loop = EventLoop()
        sent = []
        src = AudioSource(loop, sent.append)
        src.start()
        loop.run(until=0.05)
        src.stop()
        loop.run(until=1.0)
        assert len(sent) <= 4

    def test_audio_packets_outside_video_space(self):
        loop = EventLoop()
        sent = []
        src = AudioSource(loop, sent.append)
        src.start()
        loop.run(until=0.05)
        for p in sent:
            assert p.seq == -1 and p.frame_id == -1


class TestAudioReceiver:
    def test_records_mouth_to_ear_delay(self):
        loop = EventLoop()
        rx = AudioReceiver(loop)
        p = Packet(size_bytes=160, seq=-1, frame_id=-1)
        p.audio_capture = 0.0
        loop.call_at(0.045, lambda: rx.on_packet(p))
        loop.drain()
        assert rx.stats.received == 1
        assert rx.stats.delays[0] == pytest.approx(0.045)

    def test_ignores_video_packets(self):
        loop = EventLoop()
        rx = AudioReceiver(loop)
        assert not rx.on_packet(Packet(size_bytes=1200, seq=5, frame_id=0))
        assert rx.stats.received == 0


class TestPacerPriority:
    def test_audio_jumps_video_backlog(self):
        loop = EventLoop()
        sent = []
        pacer = LeakyBucketPacer(loop, lambda p: sent.append(p))
        pacer.set_pacing_rate(1.2e6)
        video = [Packet(size_bytes=1200, seq=i, frame_id=0,
                        frame_packet_index=i, frame_packet_count=20)
                 for i in range(20)]
        pacer.enqueue(video)
        audio = Packet(size_bytes=160, seq=-1, frame_id=-1)
        audio.audio_capture = 0.0
        pacer.enqueue_audio(audio)
        loop.drain()
        # audio leaves within the first couple of transmissions despite
        # the 20-packet video backlog ahead of it in arrival order
        position = sent.index(audio)
        assert position <= 1


class TestPipelineAudio:
    def test_audio_latency_low_despite_video_backlog(self):
        """The priority queue shields audio from video pacing backlog."""
        trace = BandwidthTrace.constant(12e6, duration=20.0)
        cfg = SessionConfig(duration=8.0, seed=4, audio=True,
                            initial_bwe_bps=8e6)
        session = build_session("webrtc-star", trace, cfg)
        metrics = session.run()
        audio_p95 = session.audio_receiver.p95_delay()
        video_p95 = metrics.p95_latency()
        assert session.audio_receiver.stats.received > 300
        assert audio_p95 < 0.10, "audio stays conversational"
        assert audio_p95 < video_p95, "audio beats backlogged video"

    def test_audio_disabled_by_default(self):
        trace = BandwidthTrace.constant(12e6, duration=12.0)
        session = build_session("webrtc-star", trace,
                                SessionConfig(duration=3.0, seed=4))
        session.run()
        assert session.sender.audio is None
        assert session.audio_receiver.stats.received == 0

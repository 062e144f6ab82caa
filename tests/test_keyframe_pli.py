"""Tests for PLI-triggered keyframe recovery."""

import pytest

from repro.net.trace import BandwidthTrace
from repro.rtc.baselines import build_session
from repro.rtc.session import SessionConfig
from repro.sim.rng import RngStream
from repro.video.codec.presets import make_x264_model
from repro.video.frame import RawFrame


class TestCodecKeyframes:
    def test_keyframe_costs_quality_at_same_bits(self):
        codec = make_x264_model(RngStream(1, "c"))
        frame = RawFrame(frame_id=0, capture_time=0.0, satd=1.5)
        inter = codec.encode(frame, 120_000, 0, is_keyframe=False)
        intra = codec.encode(frame, 120_000, 0, is_keyframe=True)
        assert intra.is_keyframe and not inter.is_keyframe
        assert intra.quality_vmaf < inter.quality_vmaf

    def test_keyframe_at_scaled_bits_recovers_quality(self):
        codec = make_x264_model(RngStream(1, "c"))
        frame = RawFrame(frame_id=0, capture_time=0.0, satd=1.5)
        cost = codec.config.keyframe_cost
        inter = codec.encode(frame, 120_000, 0)
        intra = codec.encode(frame, int(120_000 * cost), 0, is_keyframe=True)
        assert intra.quality_vmaf == pytest.approx(inter.quality_vmaf, abs=6)


class TestPliPipeline:
    def _run(self, keyframe_on_pli, baseline="always-burst",
             queue=15_000, duration=10.0):
        """Blind bursting into a tiny bottleneck queue loses whole frame
        tails repeatedly — the scenario where recovery fails and the
        receiver abandons frames (PLI)."""
        trace = BandwidthTrace.constant(15e6, duration=duration + 10)
        cfg = SessionConfig(duration=duration, seed=6,
                            queue_capacity_bytes=queue, initial_bwe_bps=8e6)
        session = build_session(baseline, trace, cfg)
        session.sender.keyframe_on_pli = keyframe_on_pli
        codec, encoded = session.sender.codec, []
        encode = codec.encode

        def recording_encode(*args, **kwargs):
            encoded.append(encode(*args, **kwargs))
            return encoded[-1]
        codec.encode = recording_encode
        session.run()
        return session, encoded

    def test_pli_disabled_by_default_no_keyframes(self):
        session, _ = self._run(keyframe_on_pli=False)
        assert session.receiver.skipped_frames > 0  # skips happen...
        assert session.sender.keyframes_sent == 0   # ...but no refresh

    def test_skips_trigger_keyframes_when_enabled(self):
        session, encoded = self._run(keyframe_on_pli=True)
        assert session.receiver.skipped_frames > 0
        assert session.sender.keyframes_sent > 0
        keyframes = [f for f in encoded if f.is_keyframe]
        assert len(keyframes) == session.sender.keyframes_sent

    def test_keyframes_bigger_than_neighbors(self):
        _, frames = self._run(keyframe_on_pli=True)
        key_sizes = [f.size_bytes for f in frames if f.is_keyframe]
        inter_sizes = [f.size_bytes for f in frames if not f.is_keyframe]
        if key_sizes:
            import numpy as np
            assert np.mean(key_sizes) > 1.3 * np.mean(inter_sizes)

    def test_clean_network_never_requests_pli(self):
        session, _ = self._run(keyframe_on_pli=True, baseline="webrtc-star",
                               queue=100_000)
        assert session.receiver.skipped_frames == 0
        assert session.sender.keyframes_sent == 0

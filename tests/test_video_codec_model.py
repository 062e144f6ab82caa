"""Tests for codec models and presets."""

import numpy as np
import pytest

from repro.sim.rng import RngStream, SeedSequenceFactory
from repro.video.codec.model import CodecModel
from repro.video.codec.presets import (
    codec_config,
    make_av1_model,
    make_vp8_model,
    make_vp9_model,
    make_x264_model,
    make_x265_model,
)
from repro.video.frame import RawFrame
from repro.video.source import VideoSource

ALL_MAKERS = [make_x264_model, make_x265_model, make_vp8_model,
              make_vp9_model, make_av1_model]


def frame(satd=1.0, fid=0):
    return RawFrame(frame_id=fid, capture_time=0.0, satd=satd)


def test_codec_config_lookup():
    assert codec_config("x264").name == "x264"
    assert codec_config("H264").name == "x264"
    assert codec_config("hevc").name == "x265"
    with pytest.raises(KeyError):
        codec_config("mpeg2")


@pytest.mark.parametrize("maker", ALL_MAKERS)
def test_three_complexity_levels_with_rising_phi_and_time(maker):
    codec = maker(RngStream(1, "c"))
    levels = codec.config.levels
    assert len(levels) == 3
    phis = [l.phi for l in levels]
    times = [l.base_encode_time for l in levels]
    assert phis == sorted(phis) and phis[0] == 0.0
    assert times == sorted(times)


@pytest.mark.parametrize("maker", ALL_MAKERS)
def test_max_complexity_size_reduction_in_paper_range(maker):
    """Fig. 4: highest complexity reduces size by 38-51%."""
    codec = maker(RngStream(1, "c"))
    assert 0.35 <= max(l.phi for l in codec.config.levels) <= 0.55


def test_newer_codecs_more_efficient():
    """The dashed line of Fig. 4: AV1 < HEVC/VP9 < H.264 bitrate."""
    effs = {m("name"): None for m in []}  # placeholder to appease lint
    e264 = codec_config("x264").efficiency
    e265 = codec_config("x265").efficiency
    evp9 = codec_config("vp9").efficiency
    eav1 = codec_config("av1").efficiency
    assert eav1 < e265 <= evp9 < e264


def test_encode_hits_planned_size_approximately():
    codec = make_x264_model(RngStream(1, "c"))
    sizes = [codec.encode(frame(1.0, i), planned_bytes=100_000, level_index=0).size_bytes
             for i in range(200)]
    assert np.mean(sizes) == pytest.approx(100_000, rel=0.05)


def test_encode_time_rises_with_level():
    codec = make_x264_model(RngStream(1, "c"))
    t0 = np.mean([codec.encode(frame(1.0, i), 100_000, 0).encode_time
                  for i in range(100)])
    t2 = np.mean([codec.encode(frame(1.0, i), 100_000, 2).encode_time
                  for i in range(100)])
    assert t2 > t0 * 1.5


def test_decode_time_flat_across_levels():
    """Fig. 5's asymmetry: decode unaffected by encoder complexity."""
    codec = make_x264_model(RngStream(1, "c"))
    times = [codec.decode_time() for _ in range(100)]
    assert np.mean(times) == pytest.approx(codec.config.decode_time, rel=0.2)


def test_same_quality_smaller_size_at_higher_complexity():
    """Encoding the same frame at c2 with a phi-reduced plan keeps
    quality (averaged over the rate-control noise)."""
    codec = make_x264_model(RngStream(1, "c"))
    phi2 = codec.config.level(2).phi
    q0, q2, s0, s2 = [], [], [], []
    for i in range(200):
        f = frame(2.0, i)
        e0 = codec.encode(f, planned_bytes=200_000, level_index=0)
        e2 = codec.encode(f, planned_bytes=200_000 * (1 - phi2), level_index=2)
        q0.append(e0.quality_vmaf); q2.append(e2.quality_vmaf)
        s0.append(e0.size_bytes); s2.append(e2.size_bytes)
    assert np.mean(s2) < np.mean(s0) * (1 - phi2 + 0.05)
    assert np.mean(q2) == pytest.approx(np.mean(q0), abs=2.0)


def test_satd_mean_tracks_content():
    codec = make_x264_model(RngStream(1, "c"))
    assert codec.satd_mean == 1.0  # before any frame
    for satd in (2.0, 2.0, 2.0, 2.0):
        codec.observe_satd(satd)
    assert 1.0 < codec.satd_mean <= 2.0


def test_unknown_level_raises():
    codec = make_x264_model(RngStream(1, "c"))
    with pytest.raises(KeyError):
        codec.config.level(7)


def test_qp_rises_when_squeezed():
    codec = make_x264_model(RngStream(1, "c"))
    fat = codec.encode(frame(2.0, 0), planned_bytes=500_000, level_index=0)
    thin = codec.encode(frame(2.0, 1), planned_bytes=50_000, level_index=0)
    assert thin.qp > fat.qp


def test_minimum_frame_size_floor():
    codec = make_x264_model(RngStream(1, "c"))
    e = codec.encode(frame(0.01), planned_bytes=10, level_index=0)
    assert e.size_bytes >= 200

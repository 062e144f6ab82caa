"""Per-codec presets calibrated to the paper's measurements.

Complexity levels mirror the paper's x264 parameter sets (Table 2):

* c0 — 8x8-only partitions, DIA motion search, subpel 1, no trellis.
* c1 — all partitions, HEX search, subpel 4, no trellis.
* c2 — c1 plus trellis quantization.

Calibration targets: max-complexity size reduction of 38-51% depending
on codec (Fig. 4), encode time rising from ~6 ms to ~12 ms across levels
(Fig. 5), decode time flat, and newer codecs (HEVC/VP9/AV1) having lower
base bitrate at equal quality (the dashed line in Fig. 4).
"""

from __future__ import annotations

from repro.sim.rng import RngStream
from repro.video.codec.model import CodecModel, ComplexityLevel, EncoderConfig


def x264_config() -> EncoderConfig:
    """x264 (H.264) — the paper's primary encoder."""
    return EncoderConfig(
        name="x264",
        efficiency=1.00,
        levels=[
            ComplexityLevel(0, "c0:I8x8/DIA/subpel1/notrellis", phi=0.00,
                            base_encode_time=0.006),
            ComplexityLevel(1, "c1:all/HEX/subpel4/notrellis", phi=0.28,
                            base_encode_time=0.009),
            ComplexityLevel(2, "c2:all/HEX/subpel4/trellis", phi=0.40,
                            base_encode_time=0.012),
        ],
    )


def x265_config() -> EncoderConfig:
    """x265 (HEVC) — complexity via min-cu-size per Appendix A.3."""
    return EncoderConfig(
        name="x265",
        efficiency=0.72,
        levels=[
            ComplexityLevel(0, "c0:min-cu-32", phi=0.00, base_encode_time=0.009),
            ComplexityLevel(1, "c1:min-cu-16", phi=0.30, base_encode_time=0.014),
            ComplexityLevel(2, "c2:min-cu-8", phi=0.45, base_encode_time=0.020),
        ],
    )


def vp8_config() -> EncoderConfig:
    """libvpx VP8 — native WebRTC encoder; modest complexity range."""
    return EncoderConfig(
        name="vp8",
        efficiency=1.10,
        levels=[
            ComplexityLevel(0, "c0:cpu-used-8", phi=0.00, base_encode_time=0.008),
            ComplexityLevel(1, "c1:cpu-used-4", phi=0.22, base_encode_time=0.012),
            ComplexityLevel(2, "c2:cpu-used-0", phi=0.38, base_encode_time=0.017),
        ],
        size_noise_sigma=0.11,
    )


def vp9_config() -> EncoderConfig:
    """libvpx VP9 — speed + block-division control per Appendix A.4."""
    return EncoderConfig(
        name="vp9",
        efficiency=0.78,
        levels=[
            ComplexityLevel(0, "c0:speed-8", phi=0.00, base_encode_time=0.010),
            ComplexityLevel(1, "c1:speed-5", phi=0.26, base_encode_time=0.015),
            ComplexityLevel(2, "c2:speed-2", phi=0.42, base_encode_time=0.022),
        ],
    )


def av1_config() -> EncoderConfig:
    """AV1 — superblock 128->64 and speed control per Appendix A.4."""
    return EncoderConfig(
        name="av1",
        efficiency=0.62,
        levels=[
            ComplexityLevel(0, "c0:sb128/speed-10", phi=0.00, base_encode_time=0.012),
            ComplexityLevel(1, "c1:sb64/speed-7", phi=0.32, base_encode_time=0.019),
            ComplexityLevel(2, "c2:sb64/speed-4", phi=0.51, base_encode_time=0.028),
        ],
    )


_CONFIG_FACTORIES = {
    "x264": x264_config,
    "h264": x264_config,
    "x265": x265_config,
    "h265": x265_config,
    "hevc": x265_config,
    "vp8": vp8_config,
    "vp9": vp9_config,
    "av1": av1_config,
}


def codec_config(name: str) -> EncoderConfig:
    """Look up an :class:`EncoderConfig` by codec name (case-insensitive)."""
    key = name.lower()
    if key not in _CONFIG_FACTORIES:
        raise KeyError(f"unknown codec {name!r}; choose from {sorted(set(_CONFIG_FACTORIES))}")
    return _CONFIG_FACTORIES[key]()


def make_x264_model(rng: RngStream) -> CodecModel:
    return CodecModel(x264_config(), rng)


"""Codec models: frame-size/encode-time/quality behaviour of encoders."""

from repro.video.codec.model import CodecModel, ComplexityLevel, EncoderConfig
from repro.video.codec.presets import (
    make_x264_model,
)
from repro.video.codec.rate_control import (
    AbrVbvRateControl,
    CbrRateControl,
    CqpRateControl,
    RateControl,
)

__all__ = [
    "CodecModel",
    "ComplexityLevel",
    "EncoderConfig",
    "make_x264_model",
    "RateControl",
    "AbrVbvRateControl",
    "CbrRateControl",
    "CqpRateControl",
]

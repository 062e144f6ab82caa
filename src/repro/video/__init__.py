"""Video substrate: content sources, codec models, rate control, quality.

The paper's pipeline feeds real videos (YouTube UGC categories) into
real encoders (x264/VP8/...). Here the same interfaces are served by
stochastic models calibrated to the paper's measurements:

* frame-size heavy tails (Fig. 2: 10% of frames > 2x mean, 1% > 5x),
* per-category variability (Fig. 8: CV 0.56 lecture -> 1.03 gaming),
* the complexity-size-time tradeoff (Fig. 4: 38-51% size reduction at
  max complexity; Fig. 5: encode 6 -> 12 ms, decode flat).
"""

from repro.video.frame import EncodedFrame, RawFrame
from repro.video.source import CONTENT_CATEGORIES, ContentProfile, VideoSource
from repro.video.quality import QualityModel
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
    "RawFrame",
    "EncodedFrame",
    "VideoSource",
    "ContentProfile",
    "CONTENT_CATEGORIES",
    "QualityModel",
    "CodecModel",
    "ComplexityLevel",
    "EncoderConfig",
    "make_x264_model",
    "RateControl",
    "AbrVbvRateControl",
    "CbrRateControl",
    "CqpRateControl",
]

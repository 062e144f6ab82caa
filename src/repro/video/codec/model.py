"""Core encoder model: complexity levels, size, time and quality.

The model captures the three encoder properties ACE exploits:

1. **Content-proportional size.** At a fixed quality, the bits a frame
   needs scale with its SATD (standard rate-control assumption, Eq. 4 of
   the paper models rate as linear in SATD).
2. **Complexity-size tradeoff.** Higher complexity levels compress
   better: level ``c`` needs ``(1 - phi(c))`` of the base-level bits for
   the same quality, at the cost of extra encoding time (Fig. 4/5).
3. **Rate-control authority.** Given a planned size, the encoder adjusts
   QP to hit it (up to noise); quality then follows from the achieved
   bits via the :class:`~repro.video.quality.QualityModel`.

Decoding time is modelled flat across complexity — the asymmetry §2
highlights (Fig. 5) and which makes complexity adaptation receiver-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.sim.rng import RngStream
from repro.video.frame import EncodedFrame, RawFrame
from repro.video.quality import QualityModel


@dataclass(frozen=True)
class ComplexityLevel:
    """One complexity operating point of an encoder.

    ``phi`` is the paper's compression-reduction factor: the fractional
    size saving over the base level at equal quality (phi = 0 for c0).
    ``base_encode_time``/``TIME_PER_MEGABIT`` give the encode-time model;
    ``label`` mirrors the parameter sets of Table 2 (x264) / Appendix A.
    """

    index: int
    label: str
    phi: float
    base_encode_time: float

    TIME_PER_MEGABIT = 0.0005

    def encode_time(self, size_bits: float, jitter: float = 0.0) -> float:
        """Encoding wall time for a frame of ``size_bits``."""
        t = self.base_encode_time + self.TIME_PER_MEGABIT * size_bits / 1e6
        return max(1e-4, t * (1.0 + jitter))


@dataclass
class EncoderConfig:
    """Static configuration of a :class:`CodecModel` instance."""

    name: str
    #: Relative bitrate efficiency vs. H.264 at base complexity
    #: (smaller = better compression; the dashed line in Fig. 4).
    efficiency: float
    levels: Sequence[ComplexityLevel]
    #: intra (key) frames cost this many times the bits of an inter
    #: frame at equal quality — no temporal prediction to lean on.
    keyframe_cost: float = 2.5
    #: lognormal sigma of rate-control miss (actual vs planned size).
    size_noise_sigma: float = 0.08

    def level(self, index: int) -> ComplexityLevel:
        for lvl in self.levels:
            if lvl.index == index:
                return lvl
        raise KeyError(f"{self.name} has no complexity level {index}")


class CodecModel:
    """Stateful encoder model for one stream.

    The encoder keeps a running mean of SATD (its own rate-control
    statistic, which ACE-C also reads — §5.1 notes size prediction is
    already an x264 rate-control feature) and exposes :meth:`encode`.
    """

    #: frames the running SATD means average over (EWMA span).
    SATD_WINDOW = 240
    #: mean decode time (seconds), and the encode- and decode-time
    #: jitter (uniform +/-, relative).
    DECODE_TIME = 0.0025
    TIME_JITTER = 0.10
    DECODE_TIME_JITTER = 0.15

    def __init__(self, config: EncoderConfig, rng: RngStream) -> None:
        self.config = config
        self.rng = rng
        self.quality_model = QualityModel()
        self._satd_mean: Optional[float] = None
        self._rc_satd_mean: Optional[float] = None

    # ------------------------------------------------------------------
    # rate-control statistics
    # ------------------------------------------------------------------
    @property
    def satd_mean(self) -> float:
        """Running mean SATD (1.0 before any frame is seen)."""
        return self._satd_mean if self._satd_mean is not None else 1.0

    def observe_satd(self, satd: float) -> None:
        """Update the running SATD means (EWMA over ~SATD_WINDOW frames)."""
        alpha = 2.0 / (self.SATD_WINDOW + 1)
        if self._satd_mean is None:
            self._satd_mean = satd
        else:
            self._satd_mean = alpha * satd + (1 - alpha) * self._satd_mean
        rc = self.quality_model.difficulty(satd)
        if self._rc_satd_mean is None:
            self._rc_satd_mean = rc
        else:
            self._rc_satd_mean = alpha * rc + (1 - alpha) * self._rc_satd_mean

    # ------------------------------------------------------------------
    # rate-control SATD statistic (what ACE-C reads, §5.1)
    # ------------------------------------------------------------------
    def rc_satd(self, frame: RawFrame) -> float:
        """The encoder rate-control's SATD statistic for a frame.

        x264's rate-control SATD is (by construction of its linear
        rate model) proportional to the frame's bit demand, which in
        this model grows as ``satd^difficulty_exponent``. ACE-C's
        linear size predictor (Eq. 4) is calibrated against exactly
        this statistic.
        """
        return self.quality_model.difficulty(frame.satd)

    @property
    def rc_satd_mean(self) -> float:
        """Running mean of the rate-control SATD statistic.

        Tracked as the mean *of* the statistic (not the statistic of the
        mean): the difficulty map is convex, so the two differ by a
        Jensen gap that would bias every relative-size prediction high.
        """
        if self._rc_satd_mean is not None:
            return self._rc_satd_mean
        return self.quality_model.difficulty(self.satd_mean)

    # ------------------------------------------------------------------
    # size model
    # ------------------------------------------------------------------
    def natural_bits(self, frame: RawFrame, level_index: int,
                     reference_quality: float = 85.0) -> float:
        """Bits this frame needs at ``reference_quality`` and given level.

        "Natural" size before any rate-control squeezing: proportional
        to SATD, scaled by codec efficiency and the level's phi.
        """
        level = self.config.level(level_index)
        eff = self.config.efficiency * (1.0 - level.phi)
        return self.quality_model.bits_for_score(reference_quality, frame.satd, eff)

    def encode(self, frame: RawFrame, planned_bytes: float, level_index: int,
               encode_start: float = 0.0,
               is_keyframe: bool = False) -> EncodedFrame:
        """Encode ``frame`` aiming at ``planned_bytes`` with the given level.

        The achieved size is the plan perturbed by rate-control noise;
        quality follows from the achieved bits and the level's effective
        efficiency; encode time follows the level's time model. Keyframes
        pay the intra-coding bit cost: the same bits buy less quality.
        """
        level = self.config.level(level_index)
        noise = self.rng.lognormal(0.0, self.config.size_noise_sigma)
        actual_bytes = max(200, int(planned_bytes * noise))
        eff = self.config.efficiency * (1.0 - level.phi)
        if is_keyframe:
            eff *= self.config.keyframe_cost
        quality = self.quality_model.score(actual_bytes * 8, frame.satd, eff)
        time_jitter = self.rng.uniform(-self.TIME_JITTER, self.TIME_JITTER)
        encode_time = level.encode_time(actual_bytes * 8, jitter=time_jitter)
        self.observe_satd(frame.satd)
        # QP proxy: log ratio of natural mid-quality bits to achieved bits;
        # bigger = coarser quantization.
        natural = self.natural_bits(frame, level_index)
        qp = 26.0 + 6.0 * math.log2(max(natural / max(actual_bytes * 8, 1), 1e-6))
        return EncodedFrame(
            frame_id=frame.frame_id,
            capture_time=frame.capture_time,
            size_bytes=actual_bytes,
            encode_time=encode_time,
            quality_vmaf=quality,
            complexity_level=level_index,
            qp=qp,
            satd=frame.satd,
            planned_bytes=int(planned_bytes),
            is_keyframe=is_keyframe,
            encode_start=encode_start,
            encode_end=encode_start + encode_time,
        )

    def decode_time(self) -> float:
        """Decode wall time — flat across complexity levels (Fig. 5)."""
        jitter = self.rng.uniform(-self.DECODE_TIME_JITTER,
                                  self.DECODE_TIME_JITTER)
        return max(1e-4, self.DECODE_TIME * (1.0 + jitter))

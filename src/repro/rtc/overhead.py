"""Runtime CPU/memory overhead model (Figs. 22, 27-31, Appendix B).

The paper measures sender/receiver CPU and memory while sweeping
bitrate, frame rate, and encoding complexity. We model those costs
analytically from the encoder/decoder time models:

* CPU% is (work seconds per wall second) x one core: fps x per-frame
  processing time, plus a bitrate-proportional packetization/crypto term.
* Memory is a base footprint plus reference-frame buffers (complexity
  adds motion-estimation scratch on the sender only).

The asymmetry the paper highlights — sender cost grows with complexity,
receiver cost does not — falls directly out of the flat decode time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.video.codec.model import CodecModel, EncoderConfig

#: the complexity level ACE-C's elevated frames encode at (the highest
#: of the three).
ELEVATED_LEVEL = 2


@dataclass
class OverheadSample:
    """Overhead at one operating point."""

    cpu_percent: float
    memory_mb: float


class OverheadModel:
    """CPU/memory estimates for an encoder/decoder at an operating point."""

    def __init__(self, codec_config: EncoderConfig) -> None:
        self.codec_config = codec_config
        #: packetization/pacing/crypto CPU per Mbps of media.
        self.cpu_per_mbps = 0.8
        #: base process footprints (player/engine overheads), MB.
        self.sender_base_mb = 180.0
        self.receiver_base_mb = 150.0

    # ------------------------------------------------------------------
    # sender
    # ------------------------------------------------------------------
    def sender_cpu(self, bitrate_bps: float, fps: float,
                   level_index: int = 0,
                   elevated_fraction: float = 0.0) -> OverheadSample:
        """Sender CPU%/memory at the given operating point.

        ``elevated_fraction`` models ACE-C: that share of frames pays the
        :data:`ELEVATED_LEVEL` encode time instead of ``level_index``'s.
        """
        frame_bits = bitrate_bps / fps
        base_level = self.codec_config.level(level_index)
        time_base = base_level.encode_time(frame_bits)
        time_elevated = self.codec_config.level(ELEVATED_LEVEL).encode_time(frame_bits)
        mean_encode = ((1 - elevated_fraction) * time_base
                       + elevated_fraction * time_elevated)
        cpu = fps * mean_encode * 100.0 + self.cpu_per_mbps * bitrate_bps / 1e6
        memory = (self.sender_base_mb
                  + 40.0 * (1 + level_index)  # ME scratch per level
                  + 25.0 * bitrate_bps / 30e6)
        return OverheadSample(cpu_percent=cpu, memory_mb=memory)

    # ------------------------------------------------------------------
    # receiver
    # ------------------------------------------------------------------
    def receiver_cpu(self, bitrate_bps: float, fps: float,
                     level_index: int = 0) -> OverheadSample:
        """Receiver cost — flat in complexity (decode is unaffected)."""
        decode = CodecModel.DECODE_TIME
        cpu = fps * decode * 100.0 + 0.5 * self.cpu_per_mbps * bitrate_bps / 1e6
        memory = self.receiver_base_mb + 20.0 * bitrate_bps / 30e6
        return OverheadSample(cpu_percent=cpu, memory_mb=memory)

"""Rate control strategies: ABR+VBV, CBR, CQP.

These mirror the x264 modes the paper discusses (§5.1):

* **ABR + VBV** — average-bitrate coding: per-frame size follows content
  difficulty (bits proportional to SATD at near-constant quality) with a
  slow correction so the long-run average meets the target, plus a VBV
  (hypothetical decoder buffer) that caps how far a frame may overshoot.
  This is the paper's recommended real-time mode and the WebRTC*
  baseline's strategy: highest quality, but oversized frames survive.
* **CBR** — every frame is forced to the per-frame budget by aggressive
  QP adjustment: lowest burstiness, but complex frames are starved of
  bits and lose quality (the 7-15 VMAF gap in Fig. 12).
* **CQP** — constant quantizer: size follows content with no feedback at
  all (used for codec characterization benches, not as an RTC baseline).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.video.codec.model import CodecModel
from repro.video.frame import RawFrame


class RateControl(abc.ABC):
    """Strategy that plans the encoded size of each frame."""

    @abc.abstractmethod
    def plan_bytes(self, codec: CodecModel, frame: RawFrame,
                   target_bitrate_bps: float, fps: float) -> float:
        """Planned size in bytes for ``frame`` at the current target rate."""

    @abc.abstractmethod
    def on_encoded(self, actual_bytes: int, target_bitrate_bps: float,
                   fps: float) -> None:
        """Feed back the achieved size so the controller can correct."""

    @staticmethod
    def target_frame_bytes(target_bitrate_bps: float, fps: float) -> float:
        """The per-frame budget F-bar = bitrate / fps, in bytes."""
        return target_bitrate_bps / fps / 8.0


@dataclass
class VbvState:
    """Video Buffering Verifier state (leaky decoder-buffer model)."""

    buffer_size_bytes: float
    fill_bytes: float = 0.0

    def headroom(self) -> float:
        return self.buffer_size_bytes - self.fill_bytes

    def account_frame(self, frame_bytes: float, drain_bytes: float) -> None:
        """Add a frame, drain one frame interval's worth of budget."""
        self.fill_bytes = max(0.0, self.fill_bytes + frame_bytes - drain_bytes)


class AbrVbvRateControl(RateControl):
    """Average bitrate with VBV overshoot control.

    Works the way x264's ABR actually does: it maintains a slowly
    adapting *quality setpoint* (a quantizer scale, here expressed as a
    normalized-rate setpoint ``u``). Every frame is planned at the bits
    that setpoint demands for the frame's difficulty — so per-frame
    quality is flat by construction and frame sizes inherit the content's
    heavy-tailed difficulty distribution (Fig. 2). The setpoint drifts
    multiplicatively so the achieved-bitrate EWMA converges to the
    target; a VBV (hypothetical decoder buffer) hard-caps how far a
    burst of frames may overshoot.

    ``vbv_seconds`` sizes the buffer in seconds of target bitrate;
    ``max_rho`` hard-caps a single frame at that multiple of the budget.
    """

    def __init__(self, vbv_seconds: float = 0.3, max_rho: float = 8.0,
                 setpoint_gain: float = 0.05, rate_window: float = 0.10) -> None:
        self.vbv_seconds = vbv_seconds
        self.max_rho = max_rho
        self.setpoint_gain = setpoint_gain
        self.rate_window = rate_window
        self._vbv: VbvState | None = None
        self._u_setpoint: float | None = None
        self._rate_ewma: float | None = None

    def _bytes_per_u(self, codec: CodecModel, satd: float) -> float:
        """Bytes one unit of normalized rate costs for this frame."""
        qm = codec.quality_model
        eff = codec.config.efficiency  # base complexity level
        return qm.bits_per_satd * qm.difficulty(satd) * eff / 8.0

    def plan_bytes(self, codec: CodecModel, frame: RawFrame,
                   target_bitrate_bps: float, fps: float) -> float:
        budget = self.target_frame_bytes(target_bitrate_bps, fps)
        if self._vbv is None:
            self._vbv = VbvState(buffer_size_bytes=self.vbv_seconds
                                 * target_bitrate_bps / 8.0)
        else:
            self._vbv.buffer_size_bytes = self.vbv_seconds * target_bitrate_bps / 8.0
        per_u = self._bytes_per_u(codec, frame.satd)
        if self._u_setpoint is None:
            # Bootstrap: the setpoint that spends the budget on a frame
            # of running-mean difficulty.
            mean_per_u = self._bytes_per_u(codec, codec.satd_mean)
            self._u_setpoint = budget / max(mean_per_u, 1.0)
        planned = self._u_setpoint * per_u
        # Hard VBV wall: a frame may never push the buffer past its size.
        vbv_cap = budget + max(0.0, self._vbv.headroom())
        planned = min(planned, vbv_cap, budget * self.max_rho)
        return max(planned, budget * 0.05)

    def on_encoded(self, actual_bytes: int, target_bitrate_bps: float,
                   fps: float) -> None:
        budget = self.target_frame_bytes(target_bitrate_bps, fps)
        if self._vbv is not None:
            self._vbv.account_frame(actual_bytes, budget)
        if self._rate_ewma is None:
            self._rate_ewma = float(actual_bytes)
        else:
            self._rate_ewma = (self.rate_window * actual_bytes
                               + (1 - self.rate_window) * self._rate_ewma)
        if self._u_setpoint is None:
            return
        # Multiplicative setpoint drift toward the rate target: spending
        # above budget lowers quality slightly, below raises it.
        error = self._rate_ewma / max(budget, 1.0)
        self._u_setpoint *= error ** (-self.setpoint_gain)
        self._u_setpoint = min(max(self._u_setpoint, 0.05), 50.0)


class CbrRateControl(RateControl):
    """Near-constant bitrate: every frame pinned to the per-frame budget.

    ``tolerance`` allows a small fluctuation band (pure CBR is
    impossible; x264's tightest VBV still wobbles a few percent).
    """

    def __init__(self, tolerance: float = 0.10) -> None:
        self.tolerance = tolerance
        self._debt = 0.0  # bytes over/under target carried to next frame

    def plan_bytes(self, codec: CodecModel, frame: RawFrame,
                   target_bitrate_bps: float, fps: float) -> float:
        budget = self.target_frame_bytes(target_bitrate_bps, fps)
        planned = budget - self._debt
        low = budget * (1.0 - self.tolerance)
        high = budget * (1.0 + self.tolerance)
        return min(max(planned, low), high)

    def on_encoded(self, actual_bytes: int, target_bitrate_bps: float,
                   fps: float) -> None:
        budget = self.target_frame_bytes(target_bitrate_bps, fps)
        self._debt = 0.7 * self._debt + (actual_bytes - budget)


class CqpRateControl(RateControl):
    """Constant quantizer: bits follow content with no rate feedback.

    ``quality`` is the per-frame quality setpoint; the plan is whatever
    the codec's natural size at that quality is.
    """

    def __init__(self, quality: float = 85.0, level_index: int = 0) -> None:
        self.quality = quality
        self.level_index = level_index

    def plan_bytes(self, codec: CodecModel, frame: RawFrame,
                   target_bitrate_bps: float, fps: float) -> float:
        return codec.natural_bits(frame, self.level_index, self.quality) / 8.0

    def on_encoded(self, actual_bytes: int, target_bitrate_bps: float,
                   fps: float) -> None:
        pass  # open loop by definition

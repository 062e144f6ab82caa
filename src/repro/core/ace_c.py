"""ACE-C: complexity-adaptive encoding controller (paper §4.2).

Before each frame is encoded, ACE-C:

1. predicts the frame's relative size rho-hat from the SATD against the
   previous frame (linear model: ``rho_hat = w * S / S_bar + offset``),
2. evaluates, for every complexity level ``c``, the latency gain of
   encoding at that level::

       Gain(c) = rho_hat * phi(c) / f  -  delta_Te(c)

   (frame-size reduction converted to transmission time at the per-frame
   budget implied by the BWE, minus the extra encoding time), and
3. picks the gain-maximizing level (c0 when no level has positive gain —
   which is the case for ~97% of frames; only oversized frames justify
   the extra encoding effort).

All learned quantities — ``w``, ``offset``, the per-level compression
factors ``phi(c)`` and encode-time deltas ``delta_Te(c)`` — start at
empirical values and are EWMA-updated (alpha = 0.5, Eq. 5) from the
actual outcome of every encoded frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.decisions import DecisionLog


@dataclass
class AceCConfig:
    """Tunables of ACE-C."""

    #: EWMA smoothing (Eq. 5; the paper sets alpha = 0.5).
    ewma_alpha: float = 0.5
    #: initial SATD->rho linear-model parameters.
    initial_w: float = 1.0
    initial_offset: float = 0.0
    #: initial per-level compression factors phi(c) (index-aligned).
    initial_phi: Sequence[float] = (0.0, 0.25, 0.38)
    #: initial per-level extra encode time over c0, seconds.
    initial_delta_te: Sequence[float] = (0.0, 0.003, 0.006)
    #: refuse levels whose predicted extra encode time would exceed this
    #: bound (practicality guard, §1 challenge (i)).
    max_extra_encode_time: float = 0.030
    #: only frames predicted oversized are considered for elevation —
    #: §4.2: "ACE-C selects only the oversized frames (less than 5%)";
    #: Fig. 17 shows elevation kicking in around 1.6x the average size.
    oversize_gate_rho: float = 1.6
    #: whether to update phi online from achieved sizes. Off by default:
    #: when the encoder's rate control hits whatever plan it is given,
    #: the achieved size reflects the plan (which already applied phi),
    #: not the codec's true compression gain — the online signal is
    #: circular. The paper's "empirical values" are the offline Fig. 4
    #: calibration, which the pipeline takes from the codec preset.
    update_phi: bool = False


class AceCController:
    """Per-frame complexity selector with online model updates."""

    def __init__(self, num_levels: int = 3, fps: float = 30.0,
                 config: Optional[AceCConfig] = None) -> None:
        if num_levels < 1:
            raise ValueError("need at least one complexity level")
        self.config = config or AceCConfig()
        self.num_levels = num_levels
        self.fps = fps
        self.w = self.config.initial_w
        self.offset = self.config.initial_offset
        self.phi = list(self.config.initial_phi[:num_levels])
        while len(self.phi) < num_levels:
            self.phi.append(self.phi[-1])
        self.delta_te = list(self.config.initial_delta_te[:num_levels])
        while len(self.delta_te) < num_levels:
            self.delta_te.append(self.delta_te[-1])
        #: one row per frame: the previous and the chosen level, input rho-hat.
        self.log = DecisionLog()
        #: (rho_hat, rho_actual) pairs for the Fig. 19 accuracy bench.
        self.prediction_log: list[tuple[float, float]] = []
        #: frame_id -> (level, rho_hat, satd_ratio) until the frame is encoded.
        self._pending: dict[int, tuple[int, float, float]] = {}
        #: per-level last observed c0-equivalent stats for phi updates.
        self._c0_time_ewma: Optional[float] = None

    # ------------------------------------------------------------------
    # prediction (Eq. 4)
    # ------------------------------------------------------------------
    def predict_rho(self, satd: float, satd_mean: float) -> float:
        """Predicted relative frame size rho-hat from the SATD ratio."""
        ratio = satd / max(satd_mean, 1e-9)
        return max(0.05, self.w * ratio + self.offset)

    # ------------------------------------------------------------------
    # gain maximization (Eq. 2)
    # ------------------------------------------------------------------
    def gain(self, level: int, rho_hat: float) -> float:
        """Gain(c) = rho_hat * phi(c) / f - delta_Te(c)."""
        return rho_hat * self.phi[level] / self.fps - self.delta_te[level]

    def select_complexity(self, frame_id: int, satd: float,
                          satd_mean: float, now: float,
                          backlogged: bool = False) -> int:
        """Choose (and log) the complexity level for the next frame.

        ``backlogged`` signals that the pacer already holds a backlog —
        then the transmission-time saving of a smaller frame is realized
        even for average-sized frames, so the oversize gate is waived.
        """
        rho_hat = self.predict_rho(satd, satd_mean)
        if rho_hat >= self.config.oversize_gate_rho:
            branch = "oversize"
        elif backlogged and rho_hat >= 1.0:
            branch = "backlog-waiver"
        else:
            # Not oversized and nothing queued: the size reduction would
            # not shorten any queueing, so the gain is illusory -> c0.
            branch = "below-gate"
        best = 0
        if branch != "below-gate":
            gains = [float("-inf")
                     if self.delta_te[level] > self.config.max_extra_encode_time
                     else self.gain(level, rho_hat)
                     for level in range(self.num_levels)]
            best = max(range(self.num_levels), key=lambda i: gains[i])
            # c0 has gain exactly 0; prefer it unless a level strictly wins.
            if gains[best] <= 0.0:
                best = 0
        self.log.append(now, branch, self.log.after[-1] if self.log else 0,
                        best, rho_hat)
        self._pending[frame_id] = (best, rho_hat, satd / max(satd_mean, 1e-9))
        return best

    # ------------------------------------------------------------------
    # online updates (Eq. 5)
    # ------------------------------------------------------------------
    def _ewma(self, old: float, new: float) -> float:
        a = self.config.ewma_alpha
        return a * new + (1 - a) * old

    def on_encoded(self, frame_id: int, actual_bytes: int,
                   target_frame_bytes: float, encode_time: float,
                   c0_plan_bytes: Optional[float] = None) -> None:
        """Update w/offset/phi/delta_Te from the frame's actual outcome.

        ``c0_plan_bytes`` is the rate control's pre-reduction plan for
        the frame — the size a base-complexity encode would have aimed
        at. The x264 integration exposes it (§5.1 plans the frame at c0
        first, then ACE scales the plan), and it is the unbiased
        reference for learning phi: comparing the achieved size against
        a prediction that itself used phi would be circular.
        """
        pending = self._pending.pop(frame_id, None)
        if pending is None or target_frame_bytes <= 0:
            return
        level, rho_hat, satd_ratio = pending
        rho_actual = actual_bytes / target_frame_bytes

        if level == 0:
            # Base-level frames (the ~97% majority) are the ground truth
            # for the SATD->size model. The slope is estimated through
            # the origin (rho ~ w * ratio holds per frame up to noise),
            # which stays stable under heavy-tailed ratios where a
            # two-parameter moment fit would wander; the offset mops up
            # the small residual bias and is tightly bounded.
            self.prediction_log.append((rho_hat, rho_actual))
            x, y = satd_ratio, rho_actual
            if x > 1e-6:
                slope_obs = min(max((y - self.offset) / x, 0.1), 5.0)
                self.w = self._ewma(self.w, slope_obs)
            residual = y - (self.w * x + self.offset)
            offset_target = self.offset + 0.2 * residual
            self.offset = self._ewma(self.offset,
                                     min(max(offset_target, -0.5), 0.5))
            self._c0_time_ewma = (encode_time if self._c0_time_ewma is None
                                  else self._ewma(self._c0_time_ewma, encode_time))
        else:
            # Elevated frames: learn phi against the c0-equivalent
            # reference and delta_Te against the c0 encode-time EWMA.
            c0_rho = (c0_plan_bytes / target_frame_bytes
                      if c0_plan_bytes else rho_hat)
            if self.config.update_phi and c0_rho > 1e-6:
                phi_obs = 1.0 - rho_actual / c0_rho
                phi_obs = min(max(phi_obs, 0.0), 0.9)
                self.phi[level] = self._ewma(self.phi[level], phi_obs)
            if self._c0_time_ewma is not None:
                extra = max(0.0, encode_time - self._c0_time_ewma)
                self.delta_te[level] = self._ewma(self.delta_te[level], extra)
            # The size model must also learn from these frames — fitting
            # w only on the sub-gate (small) frames selection-biases the
            # slope upward, which in turn widens the gate: a runaway.
            x = satd_ratio
            if x > 1e-6 and c0_rho > 1e-6:
                slope_obs = min(max((c0_rho - self.offset) / x, 0.1), 5.0)
                self.w = self._ewma(self.w, slope_obs)

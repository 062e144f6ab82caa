"""Analytic VMAF-like quality proxy.

The pipeline needs a quality score that (a) rises with the bits spent on
a frame relative to how hard the frame is, (b) saturates near 100, and
(c) credits higher encoding complexity with better compression
efficiency (same quality from fewer bits). A Hill-type saturating curve
in "effective bits per unit difficulty" provides exactly that ordering,
which is all the paper's comparisons rely on (e.g. CBR losing 7-15 VMAF
by starving complex frames, ACE-C matching WebRTC* quality).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class QualityModel:
    """Maps (bits, frame difficulty, codec efficiency) to a VMAF-like score.

    ``u`` is the normalized rate: actual bits divided by the bits a
    reference encode of this frame would need for mid-quality. The score
    is ``vmax * u^h / (u^h + 1)`` — at ``u = 1`` the score is ``vmax/2``;
    typical RTC operating points sit at ``u`` of 4-10 (scores in the
    80s-90s), so halving the bits of an oversized frame costs several
    points while small perturbations cost little.
    """

    vmax: float = 100.0
    #: Steepness of the rate-quality saturation (real VMAF saturates
    #: hard near the top: over-spending on easy frames buys ~nothing).
    hill: float = 3.0
    #: Bits a reference-efficiency codec needs per unit *difficulty*
    #: (satd^difficulty_exponent) for u = 1. Calibrated so a ~30 Mbps
    #: gaming stream sits in the mid 80s VMAF.
    bits_per_satd: float = 300_000.0
    #: Quality cost grows superlinearly with content difference: a frame
    #: twice as different needs ~3.5x the bits for the same perceptual
    #: score. This is what makes difficulty-proportional (ABR) allocation
    #: keep quality flat while starving a hard frame under CBR is
    #: catastrophic — the asymmetry behind CBR's VMAF deficit (Fig. 12)
    #: and ACE-C's free lunch on oversized frames.
    difficulty_exponent: float = 1.8

    def difficulty(self, satd: float) -> float:
        """Bits-demand scale of a frame with the given SATD."""
        if satd <= 0:
            satd = 1e-9
        return satd ** self.difficulty_exponent

    def normalized_rate(self, bits: float, satd: float,
                        efficiency: float = 1.0) -> float:
        """Effective bits per unit difficulty (higher = better quality).

        ``efficiency`` < 1 means the codec/complexity combination needs
        fewer bits for the same quality (e.g. AV1, or x264 at c2).
        """
        if bits <= 0:
            return 0.0
        return bits / (self.bits_per_satd * self.difficulty(satd) * efficiency)

    def score(self, bits: float, satd: float, efficiency: float = 1.0) -> float:
        """VMAF-like score in [0, vmax]."""
        u = self.normalized_rate(bits, satd, efficiency)
        if u <= 0:
            return 0.0
        uh = u ** self.hill
        score = self.vmax * uh / (uh + 1.0)
        # Clamp float rounding at the saturation plateau.
        return min(max(score, 0.0), self.vmax)

    def bits_for_score(self, target_score: float, satd: float,
                       efficiency: float = 1.0) -> float:
        """Invert :meth:`score`: bits needed to reach ``target_score``."""
        if not 0 < target_score < self.vmax:
            raise ValueError("target score must be inside (0, vmax)")
        ratio = target_score / (self.vmax - target_score)
        u = ratio ** (1.0 / self.hill)
        return u * self.bits_per_satd * self.difficulty(satd) * efficiency


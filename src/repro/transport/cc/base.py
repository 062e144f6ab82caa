"""Congestion controller interface.

The controllers run at the sender, consume transport feedback, and
expose a bandwidth estimate (BWE). As the paper stresses, ACE is
orthogonal to the CCA: the CCA decides *how much* may be sent per RTT;
the pacer/ACE-N decide *when* within the RTT. The pipeline therefore
wires the BWE to both the encoder target bitrate and the pacer's token
rate, exactly as WebRTC does.
"""

from __future__ import annotations

import abc

from repro.core.decisions import DecisionLog
from repro.transport.feedback import FeedbackMessage


class CongestionController(abc.ABC):
    """Base congestion controller; every BWE change is a row of ``log``."""

    def __init__(self, initial_bwe_bps: float = 2_000_000.0,
                 min_bwe_bps: float = 150_000.0,
                 max_bwe_bps: float = 500_000_000.0) -> None:
        self._bwe_bps = initial_bwe_bps
        self.min_bwe_bps = min_bwe_bps
        self.max_bwe_bps = max_bwe_bps
        #: one row per BWE update, bits/s (the session's ``bwe_history``)
        self.log = DecisionLog()
        self.rtt_min: float | None = None
        self.rtt_last: float | None = None

    @property
    def bwe_bps(self) -> float:
        """Current bandwidth estimate in bits/second."""
        return self._bwe_bps

    def _set_bwe(self, value: float, now: float, branch: str,
                 input: float) -> None:
        """Clamp and apply a BWE update, logging the law that made it."""
        value = min(max(value, self.min_bwe_bps), self.max_bwe_bps)
        self.log.append(now, branch, self._bwe_bps, value, input)
        self._bwe_bps = value

    def observe_rtt(self, rtt: float) -> None:
        """Track RTT (the pipeline reports it from feedback round trips)."""
        self.rtt_last = rtt
        if self.rtt_min is None or rtt < self.rtt_min:
            self.rtt_min = rtt

    def observe_rtt_array(self, rtts) -> None:
        """Vectorized ``observe_rtt`` over a non-empty array of samples.

        Equivalent to calling :meth:`observe_rtt` per element in order:
        ``rtt_last`` ends at the final sample and ``rtt_min`` absorbs
        the minimum.
        """
        self.rtt_last = float(rtts[-1])
        low = float(rtts.min())
        if self.rtt_min is None or low < self.rtt_min:
            self.rtt_min = low

    @abc.abstractmethod
    def on_feedback(self, message: FeedbackMessage, now: float) -> None:
        """Consume one transport feedback message."""

    def target_bitrate_bps(self) -> float:
        """Encoder target derived from the BWE (WebRTC uses ~the BWE)."""
        return self._bwe_bps

"""Burst pacer: release every packet immediately (no pacing).

This is the "AlwaysBurst" production baseline and the configuration of
the blind-bursting experiment (Fig. 10): latency is excellent while the
network buffer absorbs the bursts, and collapses once it cannot.
"""

from __future__ import annotations

import numpy as np

from repro.net.packet import Packet
from repro.transport.pacer.base import Pacer


class BurstPacer(Pacer):
    """Zero-delay release; the network queue does all the shaping."""

    __slots__ = ()

    def _take(self, packet: Packet) -> float:
        return 0.0

    def release_train(self, sizes, cum, floor, target):
        return np.full(len(sizes), floor)

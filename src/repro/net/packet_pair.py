"""PacketPair bottleneck-capacity estimation (Keshav, 1995).

ACE-N needs the bottleneck link capacity to convert queueing *delay*
into queue *size* (§4.1: "queue size is calculated by multiplying RTT
with the current link capacity, which is determined using the
widely-used PacketPair algorithm"). When two back-to-back packets cross
a bottleneck, their arrival spacing equals the serialization time of the
second packet at the bottleneck rate; capacity = size / spacing.

The estimator consumes (send_time, arrival_time, size) observations from
transport feedback, selects pairs that were sent back-to-back, and
applies a robust filter (windowed median) over the implied capacities.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Optional

import numpy as np

#: Pairs must be sent within this gap to count as back-to-back.
BACK_TO_BACK_GAP_S = 0.0005


class PacketPairEstimator:
    """Windowed-median PacketPair capacity estimator.

    The previous observation is kept as two plain floats instead of an
    allocated record — ``on_packet`` runs once per received packet.
    """

    def __init__(self, window: int = 50, min_samples: int = 3) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.min_samples = min_samples
        self._last_send: Optional[float] = None
        self._last_arrival = 0.0
        self._samples: Deque[float] = deque(maxlen=window)

    def on_packet(self, send_time: float, arrival_time: float,
                  size_bytes: int) -> None:
        """Feed one (send, arrival, size) observation, in arrival order."""
        last_send = self._last_send
        last_arrival = self._last_arrival
        self._last_send = send_time
        self._last_arrival = arrival_time
        if last_send is None:
            return
        send_gap = send_time - last_send
        arrival_gap = arrival_time - last_arrival
        if send_gap < 0 or arrival_gap <= 0:
            return  # reordered or simultaneous; unusable
        if send_gap > BACK_TO_BACK_GAP_S:
            return  # not a back-to-back pair
        capacity = size_bytes * 8 / arrival_gap
        if capacity < math.inf:     # a subnormal gap overflows to inf
            self._samples.append(capacity)

    def on_packet_arrays(self, send_times, arrival_times,
                         sizes) -> None:
        """Vectorized :meth:`on_packet` over arrival-ordered columns.

        Applies the same pair-selection predicate element-wise, with the
        previous observation carried across calls, and appends the same
        capacity samples in the same order.
        """
        n = len(send_times)
        if n == 0:
            return
        last_send = self._last_send
        last_arrival = self._last_arrival
        self._last_send = float(send_times[-1])
        self._last_arrival = float(arrival_times[-1])
        send_gaps = np.empty(n)
        send_gaps[0] = (send_times[0] - last_send
                        if last_send is not None else -1.0)
        np.subtract(send_times[1:], send_times[:-1], out=send_gaps[1:])
        arrival_gaps = np.empty(n)
        arrival_gaps[0] = arrival_times[0] - last_arrival
        np.subtract(arrival_times[1:], arrival_times[:-1],
                    out=arrival_gaps[1:])
        mask = ((send_gaps >= 0) & (send_gaps <= BACK_TO_BACK_GAP_S)
                & (arrival_gaps > 0))
        if mask.any():
            capacities = (sizes[mask] * 8) / arrival_gaps[mask]
            self._samples.extend(capacities[capacities < math.inf].tolist())

    def capacity_bps(self) -> Optional[float]:
        """Current capacity estimate, or None before ``min_samples`` pairs."""
        n = len(self._samples)
        if n < self.min_samples:
            return None
        # Inline median over the (small) window: called on every feedback
        # batch, where np.median's array conversion dominates. Matches
        # np.median bit-for-bit (middle element, or mean of the two).
        ordered = sorted(self._samples)
        mid = n >> 1
        if n & 1:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0

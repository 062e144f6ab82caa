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

#: Capacity samples the median spans.
WINDOW = 50

#: Samples needed before the estimator answers.
MIN_SAMPLES = 3


class PacketPairEstimator:
    """Windowed-median PacketPair capacity estimator, fed one feedback
    interval at a time in its report form (:meth:`on_lists` or
    :meth:`on_arrays`), the previous observation carried across calls."""

    def __init__(self) -> None:
        # An infinite previous send time makes the first report's send
        # gap -inf, which no pair passes: no sample before two reports.
        self._last_send = math.inf
        self._last_arrival = 0.0
        self._samples: Deque[float] = deque(maxlen=WINDOW)

    def on_lists(self, send_times, arrival_times, sizes) -> None:
        """Feed arrival-ordered (send, arrival, size) lists."""
        last_send, last_arrival = self._last_send, self._last_arrival
        append = self._samples.append
        for send, arrival, size in zip(send_times, arrival_times, sizes):
            arrival_gap = arrival - last_arrival
            # Reordered, simultaneous or not back-to-back: unusable.
            if (0 <= send - last_send <= BACK_TO_BACK_GAP_S
                    and arrival_gap > 0):
                capacity = size * 8 / arrival_gap
                if capacity < math.inf:     # a subnormal gap overflows
                    append(capacity)
            last_send, last_arrival = send, arrival
        self._last_send, self._last_arrival = last_send, last_arrival

    def on_arrays(self, send_times, arrival_times, sizes) -> None:
        """:meth:`on_lists` over non-empty arrays: the same pair test
        element-wise, the same samples in the same order."""
        send_gaps = send_times - np.concatenate(
            ((self._last_send,), send_times[:-1]))
        arrival_gaps = arrival_times - np.concatenate(
            ((self._last_arrival,), arrival_times[:-1]))
        self._last_send = float(send_times[-1])
        self._last_arrival = float(arrival_times[-1])
        mask = ((send_gaps >= 0) & (send_gaps <= BACK_TO_BACK_GAP_S)
                & (arrival_gaps > 0))
        if mask.any():
            capacities = (sizes[mask] * 8) / arrival_gaps[mask]
            self._samples.extend(capacities[capacities < math.inf].tolist())

    def capacity_bps(self) -> Optional[float]:
        """Current capacity estimate, or None before ``MIN_SAMPLES`` pairs."""
        n = len(self._samples)
        if n < MIN_SAMPLES:
            return None
        # Inline median over the (small) window: called on every feedback
        # batch, where np.median's array conversion dominates. Matches
        # np.median bit-for-bit (middle element, or mean of the two).
        ordered = sorted(self._samples)
        mid = n >> 1
        if n & 1:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0

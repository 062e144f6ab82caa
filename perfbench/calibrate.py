"""Host-speed calibration kernel.

The sandbox this benchmark runs on changes speed under our feet: a pure
arithmetic loop measured back to back read 0.31-0.55 s, in regimes that
last a second or two, and drifted by half again over a minute (see
README, "Noise"). Timing a workload in absolute seconds there gates
nothing. So every timed repetition is bracketed by this fixed kernel,
and a time is reported in *calibrated seconds*::

    t_cal = t_measured * NOMINAL_S / mean(kernel before, kernel after)

The kernel uses only the standard library and lives in the benchmark, so
no change to ``repro`` can make it faster: it measures the host, not the
program. Its mix (heap pushes and pops of tuples, small-object
allocation, dict reads and writes, float arithmetic) is the mix of the
simulator's hot loop, so contention that slows one slows the other.
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from time import process_time

#: what the kernel takes on the sandbox the benchmark was sized on, when
#: the host is at its usual speed. Calibrated seconds equal measured
#: seconds on a host that runs the kernel in exactly this time.
NOMINAL_S = 0.100

_N = 100_000


class _Slot:
    __slots__ = ("when", "payload")

    def __init__(self, when: float, payload: int) -> None:
        self.when = when
        self.payload = payload


def kernel() -> float:
    """Run the fixed kernel once; the return value only defeats elision."""
    heap: list = []
    acc = 0.0
    for i in range(_N):
        when = (i * 7919) % 1000 * 0.001
        heappush(heap, (when, i, _Slot(when, i)))
        if i & 1:
            when, _seq, slot = heappop(heap)
            acc += when * 1.0001 + slot.payload
    table: dict = {}
    for i in range(_N // 4):
        table[i] = acc
        acc += table.get(i - 3, 0.0) * 1e-9
    return acc


def measure() -> float:
    """CPU seconds one kernel run takes right now.

    The collector is off for the kernel: a generation-2 pass walks every
    live object, so with it on the kernel would time how much the last
    repetition left on the heap, not the host.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = process_time()
        kernel()
        return process_time() - t0
    finally:
        if was_enabled:
            gc.enable()


def calibrated(seconds: float, kernel_s: float) -> float:
    """Rescale measured ``seconds`` by the host speed ``kernel_s`` shows."""
    return seconds * NOMINAL_S / kernel_s

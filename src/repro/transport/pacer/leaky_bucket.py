"""WebRTC-style leaky-bucket pacer.

Flattens each frame into a uniform packet stream at ``pacing_factor x``
the estimated bandwidth. With factor 1.0 this is the conservative
pacing the paper calls "Pace"; with factor 2.5 it is the WebRTC-B
strawman (the deprecated high-pacing-rate WebRTC setting).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.net.packet import Packet
from repro.transport.pacer.base import Pacer

if TYPE_CHECKING:
    from repro.live.clock import Clock


class LeakyBucketPacer(Pacer):
    """Constant-rate drain: one packet every ``size * 8 / rate`` seconds.

    WebRTC's queue-time valve (drain faster once the backlog would take
    too long) is left out on purpose: on a congested bottleneck a forced
    drain converts pacer queueing into packet loss, which costs more
    than the wait (the media pushback in the sender handles sustained
    backlog instead).
    """

    __slots__ = ("pacing_factor", "_next_send_time")

    def __init__(self, loop: "Clock", send_fn: Callable[[Packet], None],
                 pacing_factor: float = 1.0) -> None:
        super().__init__(loop, send_fn)
        if pacing_factor <= 0:
            raise ValueError("pacing factor must be positive")
        self.pacing_factor = pacing_factor
        self._next_send_time = 0.0

    @property
    def effective_rate_bps(self) -> float:
        return self.pacing_rate_bps * self.pacing_factor

    def _take(self, packet: Packet) -> float:
        now = self.loop.now
        if self._next_send_time > now:
            return self._next_send_time - now
        rate = self.effective_rate_bps
        self._next_send_time = now + packet.size_bytes * 8 / rate
        return 0.0

    on_send = Pacer.on_send

    def release_train(self, sizes, cum, floor, target):
        """Departures one serialization apart, from the later of
        ``floor`` and the slot the last send left open."""
        ser = sizes * (8.0 / self.effective_rate_bps)
        first = self._next_send_time
        if first < floor:
            first = floor
        d = np.empty(len(ser))
        d[0] = first
        np.cumsum(ser[:-1], out=d[1:])
        d[1:] += first
        if d[-1] > target:
            d = d[:int(np.searchsorted(d, target, side="right"))]
        n = len(d)
        if n:
            self._next_send_time = float(d[-1]) + float(ser[n - 1])
        return d

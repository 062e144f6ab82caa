"""Token-bucket pacer — the sending machinery ACE-N controls.

Token rate tracks the CCA's estimate (set via ``set_pacing_rate``);
bucket size is set externally, by either a fixed policy or the
:class:`~repro.core.ace_n.AceNController`. With a bucket of one MTU the
behaviour degenerates to leaky-bucket pacing; with a bucket larger than
a frame, whole frames burst out back-to-back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.token_bucket import TokenBucket
from repro.net.packet import Packet
from repro.transport.pacer.base import Pacer

if TYPE_CHECKING:
    from repro.live.clock import Clock


class TokenBucketPacer(Pacer):
    """Pacer gated by a byte-denominated token bucket."""

    __slots__ = ("rate_factor", "bucket")

    #: Token rate = rate_factor x the CCA's estimate, until ACE-N sets
    #: its own factor. WebRTC's CC stack configures its pacer at 2.5x the
    #: target bitrate so the sender never self-throttles below the
    #: network's ability to drain; the token *bucket size* (ACE-N's knob)
    #: is what bounds instantaneous bursts.
    RATE_FACTOR = 2.5

    def __init__(self, loop: "Clock", send_fn: Callable[[Packet], None],
                 initial_bucket_bytes: float = 30_000.0) -> None:
        super().__init__(loop, send_fn)
        self.rate_factor = self.RATE_FACTOR
        self.bucket = TokenBucket(
            rate_bps=self.pacing_rate_bps * self.rate_factor,
            bucket_bytes=initial_bucket_bytes,
            now=loop.now,
        )

    # ------------------------------------------------------------------
    # control surface
    # ------------------------------------------------------------------
    def set_pacing_rate(self, rate_bps: float) -> None:
        super().set_pacing_rate(rate_bps)
        self.bucket.set_rate(self.pacing_rate_bps * self.rate_factor,
                             self.loop.now)
        # Rate changes can unblock the head packet sooner.
        self._schedule_pump(0.0)

    def set_bucket_size(self, bucket_bytes: float) -> None:
        """Resize the bucket (ACE-N's controller floors the size)."""
        self.bucket.set_bucket_size(bucket_bytes, self.loop.now)
        self._schedule_pump(0.0)

    def retune(self, rate_bps: float, rate_factor: float,
               bucket_bytes: float) -> None:
        """ACE-N's update in one write: the token rate (``rate_factor``
        x ``rate_bps``), then the bucket size, one refill, one pump."""
        Pacer.set_pacing_rate(self, rate_bps)
        self.rate_factor = rate_factor
        self.bucket.set_rate(self.pacing_rate_bps * rate_factor,
                             self.loop.now)
        # refilled to ``now`` just above: the resize refills nothing
        self.set_bucket_size(bucket_bytes)

    @property
    def bucket_bytes(self) -> float:
        return self.bucket.bucket_bytes

    # ------------------------------------------------------------------
    # pacing policy
    # ------------------------------------------------------------------
    def _take(self, packet: Packet) -> float:
        return self.bucket.take(packet.size_bytes, self.loop.now)

    on_send = Pacer.on_send

    def release_train(self, sizes, cum, floor, target):
        return self.bucket.drain_train(cum, floor, target)

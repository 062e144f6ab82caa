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
from repro.net.packet import DEFAULT_PAYLOAD_BYTES, Packet
from repro.transport.pacer.base import Pacer

if TYPE_CHECKING:
    from repro.live.clock import Clock


class TokenBucketPacer(Pacer):
    """Pacer gated by a byte-denominated token bucket."""

    __slots__ = ("min_bucket_bytes", "rate_factor", "bucket")

    def __init__(self, loop: "Clock", send_fn: Callable[[Packet], None],
                 initial_bucket_bytes: float = 30_000.0,
                 min_bucket_bytes: float = 2 * DEFAULT_PAYLOAD_BYTES,
                 rate_factor: float = 2.5) -> None:
        super().__init__(loop, send_fn)
        self.min_bucket_bytes = min_bucket_bytes
        #: Token rate = rate_factor x the CCA's estimate. WebRTC's CC
        #: stack configures its pacer at 2.5x the target bitrate so the
        #: sender never self-throttles below the network's ability to
        #: drain; the token *bucket size* (ACE-N's knob) is what bounds
        #: instantaneous bursts.
        self.rate_factor = rate_factor
        self.bucket = TokenBucket(
            rate_bps=self.pacing_rate_bps * rate_factor,
            bucket_bytes=max(initial_bucket_bytes, min_bucket_bytes),
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
        """Resize the bucket (floored at ``min_bucket_bytes``)."""
        size = max(bucket_bytes, self.min_bucket_bytes)
        self.bucket.set_bucket_size(size, self.loop.now)
        self._schedule_pump(0.0)

    @property
    def bucket_bytes(self) -> float:
        return self.bucket.bucket_bytes

    # ------------------------------------------------------------------
    # pacing policy
    # ------------------------------------------------------------------
    def _next_send_delay(self, packet: Packet) -> float:
        return self.bucket.time_until_available(packet.size_bytes, self.loop.now)

    def on_send(self, packet: Packet) -> None:
        # time_until_available() clamps oversize demands to the bucket, so
        # consume() may legitimately fail only for packets larger than the
        # bucket; treat the bucket as drained in that case.
        if not self.bucket.consume(packet.size_bytes, self.loop.now):
            self.bucket.consume(self.bucket.tokens(self.loop.now), self.loop.now)

    def release_train(self, sizes, cum, floor, target):
        return self.bucket.drain_train(cum, floor, target)

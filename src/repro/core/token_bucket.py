"""Token bucket primitive used by the ACE-N pacer.

The paper deliberately reuses the classic token-bucket filter (§4.1,
"we do not propose any new token bucket design"): tokens accrue at
``rate_bps`` up to ``bucket_bytes``; a packet may be sent when the
bucket holds at least its size in tokens. The *bucket size* is the knob
ACE-N adapts — a large bucket lets a whole frame burst out, a small one
degenerates to plain pacing.

Tokens here are denominated in bytes (1 token = 1 byte) so bucket sizes
compare directly with frame and queue sizes.
"""

from __future__ import annotations

import numpy as np

#: Tolerance (bytes) absorbing float rounding in refill arithmetic, so a
#: bucket that is short by 1e-10 bytes does not stall the pacer on a
#: sub-representable wait time.
EPSILON_BYTES = 1e-6


class TokenBucket:
    """Byte-denominated token bucket with lazy refill.

    The refill arithmetic is inlined into :meth:`consume`, :meth:`take`
    (the per-packet hot path) and :meth:`drain_train` (the per-train
    one) — keep any change to the formula mirrored across the three
    copies, bit-for-bit, or fixed-seed sessions stop being reproducible.
    No other module restates it.
    """

    __slots__ = ("_rate_bps", "_bucket_bytes", "_tokens", "_last_refill")

    def __init__(self, rate_bps: float, bucket_bytes: float,
                 now: float = 0.0) -> None:
        """A full bucket of ``bucket_bytes`` at time ``now``."""
        if rate_bps <= 0:
            raise ValueError("token rate must be positive")
        if bucket_bytes <= 0:
            raise ValueError("bucket size must be positive")
        self._rate_bps = rate_bps
        self._bucket_bytes = bucket_bytes
        self._tokens = bucket_bytes
        self._last_refill = now

    # ------------------------------------------------------------------
    # parameters
    # ------------------------------------------------------------------
    @property
    def rate_bps(self) -> float:
        return self._rate_bps

    def set_rate(self, rate_bps: float, now: float) -> None:
        """Change the token rate (refills at the old rate up to ``now`` first).

        Rejects non-positive rates exactly like the constructor — a
        silent floor here would let a miscomputed rate masquerade as a
        (glacial) 1 bps pacer instead of failing loudly.
        """
        if rate_bps <= 0:
            raise ValueError("token rate must be positive")
        self._refill(now)
        self._rate_bps = rate_bps

    @property
    def bucket_bytes(self) -> float:
        return self._bucket_bytes

    def set_bucket_size(self, bucket_bytes: float, now: float) -> None:
        """Resize the bucket; excess tokens spill (never negative)."""
        self._refill(now)
        self._bucket_bytes = max(bucket_bytes, 1.0)
        self._tokens = min(self._tokens, self._bucket_bytes)

    # ------------------------------------------------------------------
    # token accounting
    # ------------------------------------------------------------------
    def level_at(self, now: float) -> float:
        """Token count at ``now`` as a pure read, for observers: a lazy
        refill between two sends would shift float rounding and break
        bit-identical fixed-seed runs."""
        elapsed = now - self._last_refill
        if elapsed > 0:
            return min(self._bucket_bytes,
                       self._tokens + elapsed * self._rate_bps / 8.0)
        return self._tokens

    def _refill(self, now: float) -> None:
        self._tokens = self.level_at(now)
        self._last_refill = max(self._last_refill, now)

    def consume(self, size_bytes: float, now: float) -> bool:
        """Take ``size_bytes`` tokens if available; returns success.

        No pacer calls this (``take`` commits); it is kept because
        ``perfbench/trace.py`` wraps it by name."""
        elapsed = now - self._last_refill
        if elapsed > 0:
            filled = self._tokens + elapsed * self._rate_bps / 8.0
            cap = self._bucket_bytes
            self._tokens = cap if filled > cap else filled
            self._last_refill = now
        if self._tokens < size_bytes - EPSILON_BYTES:
            return False
        left = self._tokens - size_bytes
        self._tokens = left if left > 0.0 else 0.0
        return True

    def take(self, size_bytes: float, now: float) -> float:
        """Take ``size_bytes`` tokens now and return 0.0, or return the
        seconds until they will be there and take nothing.

        Demand beyond the bucket size is clamped: a packet larger than
        the bucket waits for a full bucket and then drains it, where
        :meth:`consume` would refuse it (size buckets above the MTU).
        """
        elapsed = now - self._last_refill
        if elapsed > 0:
            filled = self._tokens + elapsed * self._rate_bps / 8.0
            cap = self._bucket_bytes
            self._tokens = cap if filled > cap else filled
            self._last_refill = now
        tokens = self._tokens
        demand = size_bytes if size_bytes < self._bucket_bytes else self._bucket_bytes
        needed = demand - tokens
        if needed > EPSILON_BYTES:
            return needed * 8.0 / self._rate_bps
        left = tokens - size_bytes
        self._tokens = left if left > 0.0 else 0.0
        return 0.0

    def drain_train(self, cum: np.ndarray, floor: float,
                    target: float) -> np.ndarray:
        """Release times, up to ``target``, of a backlog whose cumulative
        bytes are ``cum`` and that may start leaving at ``floor``; the
        released bytes are consumed.

        Release times follow the per-packet path exactly: packet ``j``
        leaves once cumulative tokens cover its cumulative bytes, i.e. at
        ``floor + (cum_j - tokens(floor)) * 8 / rate`` (clamped to
        ``floor``). The cap cannot bind mid-backlog — tokens stay below
        one payload (< the bucket floor) while packets wait — so refill
        is linear and the drain is exactly piecewise linear.
        """
        rate = self._rate_bps
        elapsed = floor - self._last_refill
        if elapsed > 0:
            filled = self._tokens + elapsed * rate / 8.0
            cap = self._bucket_bytes
            self._tokens = cap if filled > cap else filled
            self._last_refill = floor
        tokens = self._tokens
        d = floor + (cum - tokens) * (8.0 / rate)
        if d[0] < floor:
            np.maximum(d, floor, out=d)
        if d[-1] > target:
            d = d[:int(np.searchsorted(d, target, side="right"))]
        n = len(d)
        if n:
            last = float(d[-1])
            left = tokens + (last - floor) * (rate / 8.0) - float(cum[n - 1])
            self._tokens = left if left > 0.0 else 0.0
            self._last_refill = last
        return d

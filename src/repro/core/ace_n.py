"""ACE-N: burstiness-adaptive pacing controller (paper §4.1, Algorithm 1).

ACE-N governs the *bucket size* of a token-bucket pacer whose token rate
tracks the CCA's bandwidth estimate. The bucket size determines how
much of a frame may burst into the network at once:

* **Increase** (when the network can absorb more):
  - *Additive increase* while no history is available — probe the
    available buffer one step at a time.
  - *Fast recovery* once the estimated queue has drained — jump to
    ``min(bucket size last seen with an empty buffer,
    alpha * queue size just before the most recent loss)``.
  - *Application limit* — never grow the bucket beyond the previous
    frame's size (a bigger bucket than a frame buys nothing and only
    adds risk).
* **Decrease** (to protect the bottleneck buffer):
  - *Queue-size-triggered*: if the estimated queue exceeds the
    threshold ``T``, shrink the bucket by the excess.
  - *Packet-loss-triggered*: halve the bucket on loss.

The controller is deliberately separable from the pacer: it consumes
feedback/queue signals and emits bucket sizes, so it can be unit-tested
against synthetic signals and attached to any token-bucket pacer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.decisions import DecisionLog
from repro.core.queue_estimator import QueueEstimator
from repro.net.packet import DEFAULT_PAYLOAD_BYTES
from repro.transport.feedback import FeedbackMessage


@dataclass
class AceNConfig:
    """Tunables of the ACE-N controller.

    ``threshold_packets`` is the paper's ``T`` (§6.5 sweeps 7.5, 10,
    12.5, 15 — not particularly sensitive; default 10). ``alpha`` is the
    conservative scaling of the pre-loss queue in fast recovery
    (0 < alpha < 1). ``additive_step_bytes`` is the per-update probe
    increment (one MTU-ish).
    """

    threshold_packets: float = 10.0
    packet_bytes: int = DEFAULT_PAYLOAD_BYTES
    alpha: float = 0.8
    #: conservative probing: one packet per update (fast recovery, not
    #: the additive step, does the heavy lifting after losses).
    additive_step_bytes: float = 1.0 * DEFAULT_PAYLOAD_BYTES
    min_bucket_bytes: float = 2.0 * DEFAULT_PAYLOAD_BYTES
    max_bucket_bytes: float = 2_000_000.0
    initial_bucket_bytes: float = 30_000.0
    #: at most one loss-triggered halving per this interval (an RTT-ish
    #: guard so one overflow episode, reported across several feedback
    #: batches, does not collapse the bucket to the floor).
    min_halve_interval_s: float = 0.06
    #: Per-halving decay of the "bucket last seen with an empty buffer"
    #: ratchet. The ratchet otherwise only grows, so after a capacity
    #: drop fast recovery would jump to a bucket from the old
    #: high-capacity regime; decaying it on each applied loss-halve
    #: forgets that regime geometrically (one loss still recovers to
    #: ~decay x the pre-loss level, sustained losses converge to the new
    #: regime). 0 < decay < 1.
    empty_ratchet_decay: float = 0.8
    #: Token-rate factor range for the burstiness level: with a healthy
    #: (large) bucket the pacer drains at up to ``max_rate_factor`` x BWE
    #: (WebRTC's CC stack paces at 2.5x the target for the same reason);
    #: as the bucket shrinks toward the floor the sending pattern decays
    #: to plain pacing at 1x BWE — the bursty->pacing switch of Fig. 25.
    min_rate_factor: float = 1.0
    max_rate_factor: float = 2.0
    #: bucket size (as a multiple of the frame budget) at which the rate
    #: factor saturates at its maximum.
    rate_factor_bucket_scale: float = 2.0

    @property
    def threshold_bytes(self) -> float:
        return self.threshold_packets * self.packet_bytes


class AceNController:
    """Adaptive bucket-size state machine (Algorithm 1)."""

    def __init__(self, config: Optional[AceNConfig] = None,
                 queue_estimator: Optional[QueueEstimator] = None) -> None:
        self.config = config or AceNConfig()
        self.queue_estimator = queue_estimator or QueueEstimator()
        self._bucket_bytes = self.config.initial_bucket_bytes
        #: bucket size last observed while the network buffer was empty.
        self._bucket_when_empty: Optional[float] = None
        #: estimated queue size just before the most recent packet loss.
        self._queue_before_loss: Optional[float] = None
        self._loss_outstanding = False
        self._last_frame_bytes: Optional[float] = None
        self._last_halve_at: Optional[float] = None
        #: one row per bucket move or app-limit hold (input: est. queue)
        self.log = DecisionLog()

    # ------------------------------------------------------------------
    # outputs
    # ------------------------------------------------------------------
    @property
    def bucket_bytes(self) -> float:
        return self._bucket_bytes

    def rate_factor(self, frame_budget_bytes: float) -> float:
        """Burstiness level: token-rate multiple of the BWE.

        Interpolates between pacing (1x) and burst-mode drain (2.5x)
        according to how large the adapted bucket is relative to the
        per-frame budget — the bucket is ACE-N's measure of how much the
        network can currently absorb.
        """
        cfg = self.config
        scale = max(cfg.rate_factor_bucket_scale * frame_budget_bytes, 1.0)
        fraction = min(1.0, self._bucket_bytes / scale)
        return (cfg.min_rate_factor
                + (cfg.max_rate_factor - cfg.min_rate_factor) * fraction)

    def _set_bucket(self, value: float, now: float, est_queue: float,
                    reason: str) -> None:
        value = min(max(value, self.config.min_bucket_bytes),
                    self.config.max_bucket_bytes)
        self.log.append(now, reason, self._bucket_bytes, value, est_queue)
        self._bucket_bytes = value

    # ------------------------------------------------------------------
    # signal ingestion
    # ------------------------------------------------------------------
    def on_feedback(self, message: FeedbackMessage, now: float,
                    reverse_delay: float = 0.0) -> None:
        """Feed transport feedback: update queue estimate, react to loss."""
        self.queue_estimator.on_feedback(message, now, reverse_delay=reverse_delay)
        est_queue = self.queue_estimator.estimate(now).queue_bytes
        loss_detected = bool(message.nacked_seqs)
        if loss_detected:
            # The queue level that preceded the overflow is the *peak*
            # of the recent estimates — at drop time the buffer was full.
            peak = self.queue_estimator.peak_queue_bytes()
            self._queue_before_loss = max(peak, est_queue)
            self._loss_outstanding = True
            self._decrease_on_loss(now, est_queue)
            return
        self._decrease_on_queue(now, est_queue)
        self._increase(now, est_queue)

    def on_frame_enqueued(self, frame_bytes: float) -> None:
        """Record the latest frame size (drives the application limit)."""
        self._last_frame_bytes = frame_bytes

    # ------------------------------------------------------------------
    # Algorithm 1: Increase
    # ------------------------------------------------------------------
    def _increase(self, now: float, est_queue: float) -> None:
        cfg = self.config
        buffer_empty = self.queue_estimator.queue_is_empty()
        if buffer_empty:
            # Track the largest bucket that coexisted with an empty buffer.
            if (self._bucket_when_empty is None
                    or self._bucket_bytes > self._bucket_when_empty):
                self._bucket_when_empty = self._bucket_bytes

        if self._loss_outstanding:
            # Fast recovery fires once queued packets have cleared.
            if not buffer_empty:
                return
            candidates = []
            if self._bucket_when_empty is not None:
                candidates.append(self._bucket_when_empty)
            if self._queue_before_loss is not None:
                candidates.append(cfg.alpha * self._queue_before_loss)
            if candidates:
                target = min(candidates)
                self._loss_outstanding = False
                if target > self._bucket_bytes:
                    self._grow(target, now, est_queue, "fast-recovery")
                return
            self._loss_outstanding = False

        # Additive increase (no usable history, or recovering slowly).
        self._grow(self._bucket_bytes + cfg.additive_step_bytes, now,
                   est_queue, "additive-increase")

    def _grow(self, target: float, now: float, est_queue: float,
              branch: str) -> None:
        """Grow the bucket toward ``target``, but not past the previous
        frame's size (§4.1): "if the bucket size exceeds the previous
        frame's size, no increase is applied". A clamped increase that
        cannot grow the bucket writes the ``app-limit`` hold instead."""
        bucket, last_frame = self._bucket_bytes, self._last_frame_bytes
        limited = target
        if last_frame is not None and target > last_frame:
            limited = max(bucket, last_frame)
        if limited > bucket:
            self._set_bucket(limited, now, est_queue, branch)
        elif limited != target:
            self.log.append(now, "app-limit", bucket, bucket, est_queue)

    # ------------------------------------------------------------------
    # Algorithm 1: Decrease
    # ------------------------------------------------------------------
    def _decrease_on_queue(self, now: float, est_queue: float) -> None:
        threshold = self.config.threshold_bytes
        if est_queue > threshold:
            excess = est_queue - threshold
            self._set_bucket(self._bucket_bytes - excess, now, est_queue,
                             "queue-threshold")

    def _decrease_on_loss(self, now: float, est_queue: float) -> None:
        if (self._last_halve_at is not None
                and now - self._last_halve_at < self.config.min_halve_interval_s):
            return
        self._last_halve_at = now
        self._set_bucket(self._bucket_bytes / 2.0, now, est_queue, "loss-halve")
        # A loss is evidence the regime the empty-buffer ratchet was
        # learned in may no longer hold: decay it (never below the
        # post-halve bucket) so fast recovery cannot keep jumping to a
        # stale high-capacity value.
        if self._bucket_when_empty is not None:
            self._bucket_when_empty = max(
                self._bucket_bytes,
                self.config.empty_ratchet_decay * self._bucket_when_empty)

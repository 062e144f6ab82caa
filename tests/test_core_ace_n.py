"""Tests for the ACE-N adaptive bucket controller (Algorithm 1)."""

import pytest

from repro.core.ace_n import AceNConfig, AceNController
from repro.core.queue_estimator import QueueEstimator
from repro.transport.feedback import FeedbackMessage, ReportBatch


def message(now, owds=(0.02,), nacks=(), start_seq=0, spacing=0.005):
    sends = [now - 0.05 + i * spacing for i in range(len(owds))]
    reports = ReportBatch(
        seqs=list(range(start_seq, start_seq + len(owds))), send_times=sends,
        arrival_times=[send + owd for send, owd in zip(sends, owds)],
        sizes=[1200] * len(owds))
    return FeedbackMessage(created_at=now, reports=reports,
                           nacked_seqs=list(nacks),
                           highest_seq=start_seq + len(owds) - 1)


def make_controller(**cfg):
    config = AceNConfig(**cfg)
    est = QueueEstimator()
    return AceNController(config, est)


def drive_clean(ctrl, rounds, t0=0.0, seq0=0, owd=0.02):
    """Feed loss-free feedback with floor OWDs (empty network queue)."""
    t, seq = t0, seq0
    for _ in range(rounds):
        ctrl.on_feedback(message(t, owds=(owd, owd), start_seq=seq),
                         now=t, reverse_delay=0.01)
        seq += 2
        t += 0.05
    return t, seq


class TestIncrease:
    def test_additive_increase_without_history(self):
        ctrl = make_controller(initial_bucket_bytes=10_000,
                               additive_step_bytes=1_000)
        ctrl.on_frame_enqueued(1_000_000)  # large frame: app limit inert
        drive_clean(ctrl, rounds=5)
        assert ctrl.bucket_bytes == pytest.approx(15_000)
        assert set(ctrl.log.branch) == {"additive-increase"}

    def test_application_limit_blocks_growth_past_frame_size(self):
        ctrl = make_controller(initial_bucket_bytes=10_000,
                               additive_step_bytes=5_000)
        ctrl.on_frame_enqueued(11_000)  # small previous frame
        drive_clean(ctrl, rounds=5)
        assert ctrl.bucket_bytes <= 11_000

    def test_no_application_limit_before_first_frame(self):
        ctrl = make_controller(initial_bucket_bytes=10_000,
                               additive_step_bytes=1_000)
        drive_clean(ctrl, rounds=3)
        assert ctrl.bucket_bytes == pytest.approx(13_000)


class TestDecrease:
    def test_loss_halves_bucket(self):
        ctrl = make_controller(initial_bucket_bytes=40_000)
        ctrl.on_feedback(message(0.0, nacks=[5]), now=0.0, reverse_delay=0.01)
        assert ctrl.bucket_bytes == pytest.approx(20_000)
        assert ctrl.log.branch[-1] == "loss-halve"

    def test_halving_rate_limited(self):
        ctrl = make_controller(initial_bucket_bytes=40_000,
                               min_halve_interval_s=0.1)
        ctrl.on_feedback(message(0.00, nacks=[1]), now=0.00, reverse_delay=0.01)
        ctrl.on_feedback(message(0.05, nacks=[2], start_seq=10), now=0.05,
                         reverse_delay=0.01)
        assert ctrl.bucket_bytes == pytest.approx(20_000)  # only one halving
        ctrl.on_feedback(message(0.20, nacks=[3], start_seq=20), now=0.20,
                         reverse_delay=0.01)
        assert ctrl.bucket_bytes == pytest.approx(10_000)

    def test_queue_threshold_shrinks_by_excess(self):
        ctrl = make_controller(initial_bucket_bytes=60_000,
                               threshold_packets=10)  # T = 12 KB
        # Establish the RTT floor first, then a persistent +20 ms queue:
        # 20 ms x 10 Mbps = 25 KB estimated queue, 13 KB over threshold.
        t, seq = drive_clean(ctrl, rounds=3)
        before = ctrl.bucket_bytes
        for i in range(4):
            ctrl.on_feedback(message(t, owds=(0.04, 0.04), start_seq=seq),
                             now=t, reverse_delay=0.01)
            t += 0.05
            seq += 2
        threshold_events = [b for b in ctrl.log.branch
                            if b == "queue-threshold"]
        assert threshold_events, "expected queue-triggered decreases"
        assert ctrl.bucket_bytes < before

    def test_bucket_floor_respected(self):
        ctrl = make_controller(initial_bucket_bytes=5_000,
                               min_bucket_bytes=2_400)
        for i in range(10):
            ctrl.on_feedback(message(i * 0.2, nacks=[i], start_seq=i * 10),
                             now=i * 0.2, reverse_delay=0.01)
        assert ctrl.bucket_bytes == 2_400


class TestFastRecovery:
    def test_recovers_after_queue_clears(self):
        ctrl = make_controller(initial_bucket_bytes=80_000, alpha=0.8)
        ctrl.on_frame_enqueued(1_000_000)
        # Grow some history with an empty buffer.
        t, seq = drive_clean(ctrl, rounds=3)
        bucket_when_empty = ctrl.bucket_bytes
        # Loss with a big pre-loss queue spike (80 ms over floor).
        ctrl.on_feedback(message(t, owds=(0.10, 0.10), nacks=[seq + 1],
                                 start_seq=seq), now=t, reverse_delay=0.01)
        halved = ctrl.bucket_bytes
        assert halved == pytest.approx(bucket_when_empty / 2)
        # Queue clears -> fast recovery jumps back up.
        t += 0.2
        ctrl.on_feedback(message(t, owds=(0.02, 0.02), start_seq=seq + 10),
                         now=t, reverse_delay=0.01)
        assert ctrl.bucket_bytes > halved
        assert "fast-recovery" in ctrl.log.branch

    def test_recovery_clamped_by_the_application_limit_holds_the_bucket(
            self):
        """A recovery the previous frame's size clamps to the current
        bucket does not grow it: it writes the ``app-limit`` hold
        (``before == after``), not a ``fast-recovery`` row."""
        ctrl = make_controller(initial_bucket_bytes=80_000, alpha=0.8)
        ctrl.on_frame_enqueued(1_000_000)
        t, seq = drive_clean(ctrl, rounds=3)
        ctrl.on_feedback(message(t, owds=(0.10, 0.10), nacks=[seq + 1],
                                 start_seq=seq), now=t, reverse_delay=0.01)
        halved = ctrl.bucket_bytes
        ctrl.on_frame_enqueued(halved / 2)      # a small previous frame
        t += 0.2
        ctrl.on_feedback(message(t, owds=(0.02, 0.02), start_seq=seq + 10),
                         now=t, reverse_delay=0.01)
        assert ctrl.bucket_bytes == halved
        assert "fast-recovery" not in ctrl.log.branch
        assert ctrl.log.branch[-1] == "app-limit"
        assert ctrl.log.before[-1] == ctrl.log.after[-1] == halved
        assert not ctrl._loss_outstanding

    def test_recovery_target_is_min_of_candidates(self):
        """Bucket recovers to min(empty-buffer bucket, alpha x pre-loss
        queue) — the conservative choice."""
        ctrl = make_controller(initial_bucket_bytes=200_000, alpha=0.5)
        ctrl.on_frame_enqueued(1_000_000)
        t, seq = drive_clean(ctrl, rounds=2)
        # pre-loss peak queue: 40 ms x 10 Mbps = 50 KB; alpha x = 25 KB
        ctrl.on_feedback(message(t, owds=(0.06, 0.06), nacks=[seq],
                                 start_seq=seq), now=t, reverse_delay=0.01)
        t += 0.2
        ctrl.on_feedback(message(t, owds=(0.02, 0.02), start_seq=seq + 10),
                         now=t, reverse_delay=0.01)
        # after halving (100K), recovery target 25K < current -> stays put
        assert ctrl.bucket_bytes <= 110_000


class TestEmptyRatchetDecay:
    """Regression: ``_bucket_when_empty`` only ever grew, so after a
    capacity drop fast recovery kept jumping back to a bucket size from
    the old high-capacity regime."""

    def test_ratchet_decays_on_loss_halve(self):
        ctrl = make_controller(initial_bucket_bytes=100_000,
                               empty_ratchet_decay=0.8)
        ctrl.on_frame_enqueued(1_000_000)
        t, seq = drive_clean(ctrl, rounds=2)
        ratchet = ctrl._bucket_when_empty
        assert ratchet is not None
        ctrl.on_feedback(message(t, owds=(0.06, 0.06), nacks=[seq],
                                 start_seq=seq), now=t, reverse_delay=0.01)
        halved = ctrl.bucket_bytes
        assert ctrl._bucket_when_empty == pytest.approx(
            max(halved, 0.8 * ratchet))

    def test_repeated_losses_forget_the_old_regime(self):
        """Sustained losses (a capacity drop) must decay the ratchet
        geometrically instead of pinning it at the old regime's value."""
        ctrl = make_controller(initial_bucket_bytes=400_000,
                               empty_ratchet_decay=0.8,
                               min_halve_interval_s=0.06)
        ctrl.on_frame_enqueued(1_000_000)
        t, seq = drive_clean(ctrl, rounds=2)
        old_ratchet = ctrl._bucket_when_empty
        # Losses arrive with a standing queue (never empty), so nothing
        # refreshes the ratchet upward between halvings.
        for i in range(5):
            ctrl.on_feedback(message(t, owds=(0.08, 0.08), nacks=[seq],
                                     start_seq=seq), now=t,
                             reverse_delay=0.01)
            t += 0.2
            seq += 10
        assert ctrl._bucket_when_empty < 0.5 * old_ratchet

    def test_fast_recovery_still_fires_after_decay(self):
        """The decay must not break recovery itself (the ratchet stays at
        or above the post-halve bucket)."""
        ctrl = make_controller(initial_bucket_bytes=80_000, alpha=0.8)
        ctrl.on_frame_enqueued(1_000_000)
        t, seq = drive_clean(ctrl, rounds=3)
        ctrl.on_feedback(message(t, owds=(0.10, 0.10), nacks=[seq + 1],
                                 start_seq=seq), now=t, reverse_delay=0.01)
        halved = ctrl.bucket_bytes
        assert ctrl._bucket_when_empty >= halved
        t += 0.2
        ctrl.on_feedback(message(t, owds=(0.02, 0.02), start_seq=seq + 10),
                         now=t, reverse_delay=0.01)
        assert ctrl.bucket_bytes > halved
        assert "fast-recovery" in ctrl.log.branch


class TestRateFactor:
    def test_interpolates_between_pace_and_burst(self):
        ctrl = make_controller(initial_bucket_bytes=30_000,
                               min_rate_factor=1.0, max_rate_factor=2.0,
                               rate_factor_bucket_scale=2.0)
        budget = 30_000.0  # bucket is half of 2x budget
        assert ctrl.rate_factor(budget) == pytest.approx(1.5)

    def test_saturates_at_max(self):
        ctrl = make_controller(initial_bucket_bytes=500_000,
                               max_rate_factor=2.0)
        assert ctrl.rate_factor(10_000.0) == 2.0

    def test_floor_at_min(self):
        ctrl = make_controller(initial_bucket_bytes=2_400,
                               min_rate_factor=1.0, max_rate_factor=2.0)
        assert ctrl.rate_factor(1_000_000.0) == pytest.approx(1.0, abs=0.01)


def test_decisions_record_context():
    ctrl = make_controller(initial_bucket_bytes=20_000)
    drive_clean(ctrl, rounds=2)
    log = ctrl.log
    for time, bucket, branch in zip(log.time, log.after, log.branch):
        assert time >= 0
        assert bucket > 0
        assert branch

"""Tests for the runtime invariant auditor.

Two halves: clean sessions across the seed scenario grid must audit
with zero violations (the auditor is a pure observer and must not
false-positive), and each invariant in the catalogue, violated on
purpose by corrupting live state mid-run, must be flagged.
"""

import math

import pytest

from repro.audit import InvariantViolation, SessionAuditor, attach_audit
from repro.net.trace import (BandwidthTrace, make_4g_trace,
                              make_wifi_trace, trace_by_kind)
from repro.rtc.baselines import build_session
from repro.rtc.session import SessionConfig
from repro.sim.events import EventLoop
from repro.sim.rng import RngStream
from repro.transport.pacer.token_bucket_pacer import TokenBucketPacer


def make_audited_session(baseline="ace", duration=1.0, seed=7, **cfg):
    trace = BandwidthTrace.constant(3e6, duration=duration + 5)
    config = SessionConfig(duration=duration, seed=seed, **cfg)
    session = build_session(baseline, trace, config)
    auditor = attach_audit(session, strict=True)
    return session, auditor


def expect_violation(corrupt, invariant, baseline="ace", at=0.6):
    """Run a session, corrupt state at ``at``, and assert the auditor
    flags ``invariant`` on the very next event."""
    session, auditor = make_audited_session(baseline=baseline)
    session.loop.call_at(at, lambda: corrupt(session, auditor),
                         "test.corrupt")
    with pytest.raises(InvariantViolation) as excinfo:
        session.run()
    violation = excinfo.value.violation
    assert violation.invariant == invariant, str(violation)
    assert violation.time == pytest.approx(at, abs=1e-9)
    return violation


# ----------------------------------------------------------------------
# clean runs: the auditor must be a silent passenger on correct code
# ----------------------------------------------------------------------
class TestCleanAudit:
    @pytest.mark.parametrize("baseline", ["ace", "ace-n", "webrtc-star",
                                          "always-burst", "salsify"])
    def test_constant_trace_session_is_clean(self, baseline):
        session, auditor = make_audited_session(baseline, duration=1.5)
        session.run()
        violations = auditor.finalize()
        assert violations == []
        assert auditor.events_checked > 100

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("trace_kind", ["wifi", "4g"])
    def test_variable_trace_grid_is_clean(self, trace_kind, seed):
        maker = {"wifi": make_wifi_trace, "4g": make_4g_trace}[trace_kind]
        trace = maker(RngStream(seed, "trace"), duration=8.0)
        config = SessionConfig(duration=2.0, seed=seed)
        session = build_session("ace", trace, config)
        auditor = attach_audit(session, strict=False)
        session.run()
        assert auditor.finalize() == []

    def test_a_recovery_the_application_limit_clamps_audits_clean(self):
        """4g, seed 1, 15 s: a fast recovery that the previous frame's
        size clamps to the current bucket writes the ``app-limit`` hold,
        so the recovery law (it grows the bucket) holds on every row."""
        trace = trace_by_kind("4g", RngStream(1, "t"), 30)
        session = build_session("ace", trace,
                                SessionConfig(duration=15.0, seed=1))
        auditor = attach_audit(session, strict=False)
        session.run()
        assert auditor.finalize() == []
        log = session.sender.ace_n.log
        assert all(after > before for branch, before, after
                   in zip(log.branch, log.before, log.after)
                   if branch == "fast-recovery")

    def test_clean_under_impairments(self):
        session, auditor = make_audited_session(
            "ace", duration=1.5,
            random_loss_rate=0.03, delay_jitter_std=0.002,
            cross_traffic=True, audio=True)
        session.run()
        assert auditor.finalize() == []

    def test_metrics_identical_with_auditor_attached(self):
        """Pure-observer property: auditing must not perturb the run.

        Since the closed-form link this is also an end-to-end check of
        the two link paths: the plain session computes drop-tail
        departures at enqueue, the audited one is switched to the
        evented link on attach (its seams count per packet at the
        departure instant), and the two must still agree.
        """
        trace = BandwidthTrace.constant(3e6, duration=7.0)

        def run(audited):
            session = build_session(
                "ace", trace, SessionConfig(duration=1.5, seed=11))
            auditor = attach_audit(session) if audited else None
            metrics = session.run()
            if auditor is not None:
                auditor.finalize()
            return metrics

        plain, audited = run(False), run(True)
        assert plain.packets_sent == audited.packets_sent
        assert len(plain.frames) == len(audited.frames)
        assert plain.send_events == audited.send_events
        assert plain.bwe_history == audited.bwe_history

    def test_detach_restores_seams(self):
        session, auditor = make_audited_session()
        pacer = session.sender.pacer
        wrapped = pacer.send_fn
        auditor.detach()
        assert pacer.send_fn is not wrapped
        assert session.loop.on_event is None
        # Link method wrapper removed: back to the class implementation.
        assert "send" not in vars(session.path.link)


# ----------------------------------------------------------------------
# every invariant, violated on purpose
# ----------------------------------------------------------------------
class TestConservationViolations:
    def test_pacer_byte_conservation(self):
        expect_violation(
            lambda s, a: setattr(s.sender.pacer, "_queued_bytes",
                                 s.sender.pacer.queued_bytes + 777),
            "pacer.conservation")

    def test_pacer_negative_queue(self):
        expect_violation(
            lambda s, a: setattr(s.sender.pacer, "_queued_bytes", -5),
            "pacer.queue.nonneg")

    def test_pacer_stats_disagree_with_wire(self):
        def corrupt(s, a):
            s.sender.pacer.stats.sent_packets += 3
        expect_violation(corrupt, "pacer.conservation")

    def test_link_stats_disagree_with_wire(self):
        def corrupt(s, a):
            s.path.link.stats.delivered_packets += 2
        expect_violation(corrupt, "link.conservation")

    def test_link_queue_overflows_capacity(self):
        def corrupt(s, a):
            s.path.link.queue._bytes = s.path.link.queue.capacity_bytes + 1
        expect_violation(corrupt, "link.queue.bounds")

    def test_phantom_arrival(self):
        def corrupt(s, a):
            a._counters.arrived_media += 1000  # receiver got packets the
            # link never delivered
        expect_violation(corrupt, "path.inflight.nonneg")


class TestStateViolations:
    def test_token_count_above_bucket(self):
        def corrupt(s, a):
            bucket = s.sender.pacer.bucket
            bucket._tokens = bucket._bucket_bytes * 2
        expect_violation(corrupt, "bucket.tokens.range")

    def test_token_rate_decoupled_from_pacing_rate(self):
        def corrupt(s, a):
            bucket = s.sender.pacer.bucket
            bucket._rate_bps = bucket._rate_bps * 100
        expect_violation(corrupt, "pacer.token-rate")

    def test_bwe_not_finite(self):
        expect_violation(
            lambda s, a: setattr(s.flow.cc, "_bwe_bps", math.inf),
            "cc.bwe.finite")

    def test_rtt_below_propagation_floor(self):
        def corrupt(s, a):
            s.sender.ace_n.queue_estimator._rtt_min = 0.001
        expect_violation(corrupt, "rtt.floor")

    def test_ace_bucket_outside_range(self):
        def corrupt(s, a):
            s.sender.ace_n._bucket_bytes = -10.0
        expect_violation(corrupt, "ace.bucket.range")

    def test_pacer_desynced_from_controller(self):
        def corrupt(s, a):
            s.sender.pacer.bucket.set_bucket_size(999_999, s.loop.now)
        expect_violation(corrupt, "ace.pacer.sync")

    def test_clock_going_backwards(self):
        loop = EventLoop()
        pacer = TokenBucketPacer(loop, lambda p: None)
        auditor = SessionAuditor(loop, pacer).attach()
        auditor.check_now()
        loop.now = -1.0
        with pytest.raises(InvariantViolation) as excinfo:
            auditor.check_now()
        assert excinfo.value.violation.invariant == "time.monotone"


class TestControlLawViolations:
    def test_bucket_mutated_without_decision(self):
        def corrupt(s, a):
            s.sender.ace_n._bucket_bytes += 4000.0
        expect_violation(corrupt, "ace.decision.trajectory")

    def test_loss_halve_that_does_not_halve(self):
        def corrupt(s, a):
            ace = s.sender.ace_n
            old = ace.bucket_bytes
            wrong = old + 1000.0  # grows instead of halving
            ace._bucket_bytes = wrong
            ace.log.append(s.loop.now, "loss-halve", old, wrong, 0.0)
        expect_violation(corrupt, "ace.law.loss-halve")

    def test_queue_decrease_without_excess(self):
        def corrupt(s, a):
            ace = s.sender.ace_n
            # A decrease recorded while the estimated queue is *below*
            # the threshold; bucket unchanged so only the excess check
            # can fire.
            ace.log.append(s.loop.now, "queue-threshold", ace.bucket_bytes,
                           ace.bucket_bytes, ace.config.threshold_bytes / 2)
        expect_violation(corrupt, "ace.law.queue-threshold")

    def test_additive_increase_overshoots_step(self):
        def corrupt(s, a):
            ace = s.sender.ace_n
            old = ace.bucket_bytes
            new = old + 10 * ace.config.additive_step_bytes
            ace._bucket_bytes = new
            ace.log.append(s.loop.now, "additive-increase", old, new, 0.0)
        expect_violation(corrupt, "ace.law.additive-increase")

    def test_fast_recovery_without_evidence(self):
        """The queue_is_empty() bug class: recovery firing while the
        recent-RTT window is empty (feedback silence)."""
        def corrupt(s, a):
            ace = s.sender.ace_n
            est = ace.queue_estimator
            # Feedback silence = the whole recent window aged out; the
            # monotonic companions are trimmed in lockstep with it.
            for column in (*est._standing, *est._peaks):
                column.clear()
            old = ace.bucket_bytes
            new = old + 2000.0
            ace._bucket_bytes = new
            ace.log.append(s.loop.now, "fast-recovery", old, new, 0.0)
        expect_violation(corrupt, "ace.law.fast-recovery")

    def test_fast_recovery_past_regime_bound(self):
        """The stale-ratchet bug class: recovery jumping far past any
        justified candidate value."""
        def corrupt(s, a):
            ace = s.sender.ace_n
            ace._queue_before_loss = 5000.0
            old = ace.bucket_bytes
            new = old + 500_000.0
            ace._bucket_bytes = new
            ace.log.append(s.loop.now, "fast-recovery", old, new, 0.0)
        expect_violation(corrupt, "ace.law.fast-recovery")

    def test_increase_past_application_limit(self):
        def corrupt(s, a):
            ace = s.sender.ace_n
            ace._last_frame_bytes = 100.0  # tiny previous frame
            old = ace.bucket_bytes
            new = old + ace.config.additive_step_bytes / 2
            ace._bucket_bytes = new
            ace.log.append(s.loop.now, "additive-increase", old, new, 0.0)
        expect_violation(corrupt, "ace.law.app-limit")


# ----------------------------------------------------------------------
# collection mode
# ----------------------------------------------------------------------
class TestCollectMode:
    def test_non_strict_collects_and_reports(self):
        trace = BandwidthTrace.constant(3e6, duration=6.0)
        session = build_session("ace", trace,
                                SessionConfig(duration=1.0, seed=7))
        auditor = attach_audit(session, strict=False, max_violations=5)
        session.loop.call_at(
            0.5, lambda: setattr(session.sender.pacer, "_queued_bytes", -1),
            "test.corrupt")
        session.run()  # must not raise
        violations = auditor.finalize()
        assert violations
        assert violations[0].invariant == "pacer.queue.nonneg"
        assert len(violations) <= 5  # saturates instead of flooding
        assert "FAILED" in auditor.report()

    def test_report_mentions_clean_run(self):
        session, auditor = make_audited_session(duration=0.5)
        session.run()
        auditor.finalize()
        assert "clean" in auditor.report()

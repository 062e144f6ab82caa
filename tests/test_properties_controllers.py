"""Property-based tests on the ACE controllers and GCC state machines."""

from hypothesis import given, settings, strategies as st

from repro.core.ace_c import AceCConfig, AceCController
from repro.core.ace_n import AceNConfig, AceNController
from repro.core.queue_estimator import QueueEstimator
from repro.transport.cc.gcc import GccController, OveruseDetector
from repro.transport.feedback import FeedbackMessage, ReportBatch


def make_feedback(now, owds, nacks, start_seq):
    sends = [now - 0.05 + i * 0.004 for i in range(len(owds))]
    reports = ReportBatch(
        seqs=list(range(start_seq, start_seq + len(owds))), send_times=sends,
        arrival_times=[send + owd for send, owd in zip(sends, owds)],
        sizes=[1200] * len(owds))
    highest = start_seq + len(owds) - 1 if owds else start_seq
    return FeedbackMessage(created_at=now, reports=reports,
                           nacked_seqs=list(nacks), highest_seq=highest)


owd_lists = st.lists(st.floats(min_value=0.011, max_value=0.5), min_size=1,
                     max_size=8)
feedback_scripts = st.lists(
    st.tuples(owd_lists, st.booleans()), min_size=1, max_size=40)


# ----------------------------------------------------------------------
# ACE-N invariants
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(script=feedback_scripts)
def test_ace_n_bucket_always_within_bounds(script):
    cfg = AceNConfig()
    ctrl = AceNController(cfg)
    ctrl.on_frame_enqueued(150_000)
    t, seq = 0.0, 0
    for owds, lossy in script:
        nacks = [seq + 999] if lossy else []
        ctrl.on_feedback(make_feedback(t, owds, nacks, seq), now=t,
                         reverse_delay=0.01)
        assert cfg.min_bucket_bytes <= ctrl.bucket_bytes <= cfg.max_bucket_bytes
        seq += len(owds)
        t += 0.05


@settings(max_examples=40, deadline=None)
@given(script=feedback_scripts,
       budget=st.floats(min_value=1_000, max_value=1_000_000))
def test_ace_n_rate_factor_within_configured_range(script, budget):
    cfg = AceNConfig()
    ctrl = AceNController(cfg)
    t, seq = 0.0, 0
    for owds, lossy in script:
        nacks = [seq + 999] if lossy else []
        ctrl.on_feedback(make_feedback(t, owds, nacks, seq), now=t,
                         reverse_delay=0.01)
        factor = ctrl.rate_factor(budget)
        assert cfg.min_rate_factor <= factor <= cfg.max_rate_factor
        seq += len(owds)
        t += 0.05


@settings(max_examples=30, deadline=None)
@given(owds=owd_lists)
def test_loss_always_shrinks_or_floors_bucket(owds):
    ctrl = AceNController(AceNConfig(initial_bucket_bytes=100_000))
    ctrl.on_feedback(make_feedback(0.0, owds, [], 0), now=0.0,
                     reverse_delay=0.01)
    before = ctrl.bucket_bytes
    ctrl.on_feedback(make_feedback(0.2, owds, [777], 100), now=0.2,
                     reverse_delay=0.01)
    assert ctrl.bucket_bytes <= before


# ----------------------------------------------------------------------
# queue estimator invariants
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(script=feedback_scripts)
def test_queue_estimates_nonnegative_and_peak_dominates(script):
    est = QueueEstimator()
    t, seq = 0.0, 0
    for owds, _ in script:
        est.on_feedback(make_feedback(t, owds, [], seq), now=t,
                        reverse_delay=0.01)
        queue = est.estimate(now=t).queue_bytes
        peak = est.peak_queue_bytes()
        assert queue >= 0.0
        assert peak >= 0.0
        assert peak >= queue - 1e-6, "peak estimate dominates standing"
        seq += len(owds)
        t += 0.05


@settings(max_examples=40, deadline=None)
@given(script=feedback_scripts)
def test_rtt_min_is_monotone_nonincreasing(script):
    est = QueueEstimator()
    t, seq = 0.0, 0
    last_min = None
    for owds, _ in script:
        est.on_feedback(make_feedback(t, owds, [], seq), now=t,
                        reverse_delay=0.01)
        if est.rtt_min is not None:
            if last_min is not None:
                assert est.rtt_min <= last_min + 1e-12
            last_min = est.rtt_min
        seq += len(owds)
        t += 0.05


# ----------------------------------------------------------------------
# GCC invariants
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(script=feedback_scripts)
def test_gcc_estimate_respects_bounds(script):
    cc = GccController(initial_bwe_bps=2e6, min_bwe_bps=1e5, max_bwe_bps=50e6)
    t, seq = 0.0, 0
    lost = 0
    for owds, lossy in script:
        if lossy:
            lost += 1
        msg = make_feedback(t, owds, [], seq)
        msg.cumulative_lost = lost
        cc.on_feedback(msg, now=t)
        assert 1e5 <= cc.bwe_bps <= 50e6
        seq += len(owds)
        t += 0.05


@settings(max_examples=50, deadline=None)
@given(trends=st.lists(st.floats(min_value=-100, max_value=100),
                       min_size=1, max_size=50))
def test_overuse_detector_threshold_bounded(trends):
    det = OveruseDetector()
    for i, trend in enumerate(trends):
        state = det.detect(trend, now=i * 0.05)
        assert state in ("normal", "overuse", "underuse")
        assert 6.0 <= det.threshold <= 600.0


# ----------------------------------------------------------------------
# ACE-C invariants
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(observations=st.lists(
    st.tuples(st.floats(min_value=0.05, max_value=10.0),    # satd ratio
              st.floats(min_value=0.05, max_value=10.0)),   # actual rho
    min_size=1, max_size=60))
def test_ace_c_model_parameters_stay_bounded(observations):
    ctrl = AceCController(num_levels=3, fps=30.0, config=AceCConfig())
    for i, (ratio, rho) in enumerate(observations):
        ctrl.select_complexity(i, satd=ratio, satd_mean=1.0, now=0.0)
        ctrl.on_encoded(i, actual_bytes=int(rho * 100_000),
                        target_frame_bytes=100_000, encode_time=0.006,
                        c0_plan_bytes=rho * 100_000)
        assert 0.1 <= ctrl.w <= 5.0
        assert -0.5 <= ctrl.offset <= 0.5
        for level in range(3):
            assert 0.0 <= ctrl.phi[level] <= 0.9
            assert ctrl.delta_te[level] >= 0.0

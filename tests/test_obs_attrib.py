"""Causal latency attribution: frame blame over the ACE-N decision log."""

import math

import pytest

from repro.core.decisions import DecisionLog
from repro.net import make_wifi_trace
from repro.obs import (
    BLAME_CATEGORIES,
    SessionAttribution,
    attribute_frames,
    attribute_session,
    render_frame_blame,
    render_rollup,
)
from repro.obs.attrib import STARTUP, UNCONTROLLED
from repro.rtc.baselines import build_session
from repro.rtc.session import SessionConfig
from repro.sim import RngStream


def d(time, reason, bucket=10_000.0, queue=0.0):
    return (time, reason, bucket, bucket, queue)


def log(*rows):
    """An ACE-N decision log holding ``rows`` (each a ``d(...)``)."""
    out = DecisionLog()
    for row in rows:
        out.append(*row)
    return out


# ----------------------------------------------------------------------
# attribute_frames partitioning
# ----------------------------------------------------------------------
class TestAttributeFrames:
    def test_single_decision_covers_whole_span(self):
        [blame] = attribute_frames([(0, 1.0, 1.5)],
                                   log(d(0.5, "additive-increase")))
        assert blame.breakdown() == {"additive-increase": pytest.approx(0.5)}
        assert blame.dominant() == "additive-increase"

    def test_span_split_across_decision_boundary(self):
        decisions = log(d(0.0, "additive-increase"), d(1.2, "loss-halve"))
        [blame] = attribute_frames([(7, 1.0, 1.5)], decisions)
        assert blame.breakdown() == {
            "additive-increase": pytest.approx(0.2),
            "loss-halve": pytest.approx(0.3),
        }
        assert blame.dominant() == "loss-halve"
        # segments partition [enqueue, exit] contiguously
        assert blame.segments[0].start == 1.0
        assert blame.segments[0].end == blame.segments[1].start == 1.2
        assert blame.segments[1].end == 1.5

    def test_breakdown_sums_to_pacer_span(self):
        decisions = log(*[d(0.1 * i, r) for i, r in enumerate(
            ["additive-increase", "app-limit", "queue-threshold",
             "loss-halve", "fast-recovery"] * 4)])
        frames = [(i, 0.05 + 0.13 * i, 0.05 + 0.13 * i + 0.21)
                  for i in range(12)]
        for blame in attribute_frames(frames, decisions):
            assert sum(blame.breakdown().values()) == \
                pytest.approx(blame.pacer_span, abs=1e-12)
            assert sum(s.duration for s in blame.segments) == \
                pytest.approx(blame.pacer_span, abs=1e-12)

    def test_before_first_decision_is_startup(self):
        [blame] = attribute_frames([(0, 0.0, 0.4)],
                                   log(d(0.3, "additive-increase")))
        assert blame.breakdown() == {
            STARTUP: pytest.approx(0.3),
            "additive-increase": pytest.approx(0.1),
        }

    def test_no_decisions_is_uncontrolled(self):
        [blame] = attribute_frames([(0, 1.0, 2.0)], log())
        assert blame.breakdown() == {UNCONTROLLED: pytest.approx(1.0)}
        assert blame.dominant() == UNCONTROLLED

    def test_zero_span_frame_gets_one_segment(self):
        [blame] = attribute_frames([(3, 1.0, 1.0)],
                                   log(d(0.0, "app-limit")))
        assert blame.pacer_span == 0.0
        assert [s.reason for s in blame.segments] == ["app-limit"]
        assert blame.breakdown() == {"app-limit": 0.0}

    def test_duplicate_decision_timestamps_terminate(self):
        decisions = log(d(1.0, "loss-halve"), d(1.0, "fast-recovery"),
                        d(1.0, "additive-increase"))
        [blame] = attribute_frames([(0, 0.5, 1.5)], decisions)
        assert sum(blame.breakdown().values()) == pytest.approx(1.0)
        # the last same-time decision wins for the post-1.0 interval
        assert blame.breakdown()["additive-increase"] == pytest.approx(0.5)

    def test_bwe_annotation(self):
        [blame] = attribute_frames([(0, 1.0, 1.5)],
                                   log(d(0.0, "app-limit")),
                                   bwe_history=[(0.0, 1e6), (1.2, 2e6)])
        assert blame.segments[0].bwe_bps == 1e6


# ----------------------------------------------------------------------
# rollups and rendering
# ----------------------------------------------------------------------
class TestSessionAttribution:
    def make(self):
        decisions = log(d(0.0, "additive-increase"), d(1.0, "loss-halve"))
        frames = [(0, 0.1, 0.3), (1, 0.9, 1.4), (2, 1.1, 1.2)]
        return SessionAttribution(attribute_frames(frames, decisions))

    def test_worst_orders_by_span(self):
        attr = self.make()
        assert [b.frame_id for b in attr.worst(2)] == [1, 0]

    def test_get_and_len(self):
        attr = self.make()
        assert len(attr) == 3
        assert attr.get(2).frame_id == 2
        assert attr.get(99) is None

    def test_rollup_totals_match_pacer_seconds(self):
        attr = self.make()
        rollup = attr.rollup()
        assert sum(v["seconds"] for v in rollup.values()) == \
            pytest.approx(attr.total_pacer_seconds())
        assert sum(int(v["frames"]) for v in rollup.values()) == len(attr)

    def test_renderers_are_text(self):
        attr = self.make()
        text = render_frame_blame(attr.worst(1)[0])
        assert "pacer residence" in text and "dominant" in text
        roll = render_rollup(attr)
        assert "attribution over 3 frames" in roll
        for reason in ("additive-increase", "loss-halve"):
            assert reason in roll


# ----------------------------------------------------------------------
# real sessions
# ----------------------------------------------------------------------
def run_session(baseline="ace", duration=4.0, seed=5):
    trace = make_wifi_trace(RngStream(11, "trace"), duration=duration + 10)
    session = build_session(baseline, trace,
                            SessionConfig(duration=duration, seed=seed))
    metrics = session.run()
    return session, metrics


class TestSessionIntegration:
    def test_ace_session_blames_sum_and_categorize(self):
        session, _ = run_session()
        attr = attribute_session(session)
        assert len(attr) > 50
        for blame in attr.blames:
            assert sum(blame.breakdown().values()) == \
                pytest.approx(blame.pacer_span, abs=1e-9)
            for seg in blame.segments:
                assert seg.reason in BLAME_CATEGORIES
                assert seg.end >= seg.start

    def test_non_ace_baseline_is_uncontrolled(self):
        session, _ = run_session(baseline="webrtc", duration=2.0)
        attr = attribute_session(session)
        assert len(attr) > 0
        assert all(b.dominant() == UNCONTROLLED for b in attr.blames)

    def test_rollup_never_exceeds_total(self):
        session, _ = run_session(duration=3.0)
        attr = attribute_session(session)
        total = attr.total_pacer_seconds()
        assert math.isfinite(total)
        assert sum(v["seconds"] for v in attr.rollup().values()) == \
            pytest.approx(total, rel=1e-9)

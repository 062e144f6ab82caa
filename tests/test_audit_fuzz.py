"""Tests for the seeded fuzz harness (repro.audit.fuzz)."""

import dataclasses

from repro.audit import fuzz as fuzz_module
from repro.audit.auditor import Violation
from repro.audit.fuzz import (
    FUZZ_BASELINES,
    FUZZ_TRACES,
    FuzzFailure,
    FuzzResult,
    build_case_trace,
    case_from_seed,
    fuzz,
    run_case,
    shrink,
)
from repro.cli import main


def with_config(case, **changes):
    return dataclasses.replace(
        case, config=dataclasses.replace(case.config, **changes))


class TestCaseGeneration:
    def test_deterministic_from_seed_and_index(self):
        a = case_from_seed(42, 7)
        b = case_from_seed(42, 7)
        assert a == b
        assert a.label == "42:7"

    def test_different_indices_differ(self):
        cases = [case_from_seed(1, i) for i in range(20)]
        assert len(set(cases)) > 1
        # Each case's session seed is its own, and set where it is drawn.
        assert len({case.config.seed for case in cases}) == len(cases)
        for case in cases:
            assert case.baseline in FUZZ_BASELINES
            assert case.trace_kind in FUZZ_TRACES
            assert 1.5 <= case.config.duration <= 4.0
            assert case.config.queue_capacity_bytes in (25_000, 100_000,
                                                        400_000)

    def test_every_trace_kind_builds(self):
        for kind in FUZZ_TRACES:
            case = dataclasses.replace(case_from_seed(1, 0), trace_kind=kind)
            trace = build_case_trace(case)
            assert trace.rate_at(0.5) > 0

    def test_describe_mentions_impairments(self):
        case = with_config(case_from_seed(1, 0), random_loss_rate=0.05,
                           cross_traffic=True)
        text = case.describe()
        assert "loss=0.050" in text
        assert "cross" in text


class TestRunCase:
    def test_known_case_is_clean(self):
        case = case_from_seed(1, 0)
        violations, events = run_case(case)
        assert violations == []
        assert events > 500


class TestShrink:
    def test_keeps_only_simplifications_that_still_fail(self):
        case = with_config(
            case_from_seed(1, 0), duration=3.5, cross_traffic=True,
            audio=True, random_loss_rate=0.05, delay_jitter_std=0.003)

        # Pretend the failure needs random loss but nothing else.
        def fails(c):
            return c.config.random_loss_rate > 0

        shrunk = shrink(case, fails=fails)
        assert shrunk.config.random_loss_rate == 0.05  # the culprit is kept
        assert shrunk.config.duration == 1.5
        assert not shrunk.config.cross_traffic
        assert not shrunk.config.audio
        assert shrunk.config.delay_jitter_std == 0.0
        assert shrunk.trace_kind == "const:3"
        assert shrunk.config.seed == case.config.seed

    def test_unshrinkable_case_returned_unchanged(self):
        case = case_from_seed(1, 0)

        def fails(c):
            return c == case  # any change "fixes" it

        assert shrink(case, fails=fails) == case


class TestFuzzLoop:
    def test_small_run_is_clean_and_counts_events(self):
        progressed = []
        result = fuzz(2, root_seed=1,
                      on_progress=lambda c, v: progressed.append(c.label))
        assert result.ok
        assert result.cases_run == 2
        assert result.events_checked > 1000
        assert progressed == ["1:0", "1:1"]

    def test_the_cli_reports_a_failure_with_its_dump_and_replay_line(
            self, monkeypatch, capsys):
        case = case_from_seed(1, 4)
        shrunk = with_config(case, duration=1.0)
        failure = FuzzFailure(case, shrunk, [
            Violation(2.0, "y", "breach", flight_dump="the dumped rows")])
        monkeypatch.setattr(fuzz_module, "fuzz", lambda *args, **kwargs:
                            FuzzResult(1, 10, [failure]))
        assert main(["fuzz", "--cases", "1"]) == 1
        out = capsys.readouterr().out
        assert out.endswith(
            f"\nfailing case {case.describe()}\n"
            f"  {failure.violations[0]}\n"
            f"shrunk to {shrunk.describe()}\n"
            "flight recorder (last records before the first violation):\n"
            "the dumped rows\n"
            f"replay: python -m repro fuzz --replay {case.label}\n")

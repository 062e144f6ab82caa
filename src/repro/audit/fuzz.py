"""Seeded random-scenario fuzzing under the invariant auditor.

Each fuzz *case* is a short simulated session whose workload — baseline,
trace class, path impairments, timing — is derived deterministically
from ``(root_seed, index)`` through the repo's named RNG streams, so any
failure reproduces from two integers. The harness runs every case with a
collecting :class:`~repro.audit.auditor.SessionAuditor` attached and, on
a violation, *shrinks* the case: it greedily re-runs simplified variants
(shorter, lossless, jitterless, constant-rate, ...) and keeps each
simplification that still fails, ending at a minimal reproducible case.

CLI::

    python -m repro fuzz --cases 20 --seed 1      # exit 1 on violation
    python -m repro fuzz --replay 1:7             # re-run one case
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

from repro.audit.auditor import SessionAuditor, Violation, attach_audit
from repro.net.trace import BandwidthTrace, trace_by_kind
from repro.rtc.baselines import build_session
from repro.rtc.session import SessionConfig
from repro.sim.rng import RngStream

#: Baselines worth fuzzing: both ACE variants (the control laws under
#: test), the token-bucket extremes, and the frame-paced outlier.
FUZZ_BASELINES = ("ace", "ace-n", "webrtc-star", "always-burst", "salsify",
                  "always-pace")

FUZZ_TRACES = ("wifi", "4g", "5g", "campus", "const:2", "const:6",
               "weak:canteen", "weak:airport")

@dataclass(frozen=True)
class FuzzCase:
    """One randomized scenario, fully determined by its fields."""

    root_seed: int
    index: int
    baseline: str
    trace_kind: str
    #: the session's workload and path (its seed included).
    config: SessionConfig = field(hash=False)

    @property
    def label(self) -> str:
        return f"{self.root_seed}:{self.index}"

    def describe(self) -> str:
        c = self.config
        extras = []
        if c.random_loss_rate:
            extras.append(f"loss={c.random_loss_rate:.3f}")
        if c.contention_loss_rate:
            extras.append(f"contention={c.contention_loss_rate:.2f}")
        if c.delay_jitter_std:
            extras.append(f"jitter={c.delay_jitter_std * 1000:.1f}ms")
        if c.cross_traffic:
            extras.append("cross")
        if c.audio:
            extras.append("audio")
        tail = (", " + ", ".join(extras)) if extras else ""
        return (f"[{self.label}] {self.baseline} over {self.trace_kind} "
                f"({c.duration:.1f}s, rtt {c.base_rtt * 1000:.0f}ms, "
                f"queue {c.queue_capacity_bytes // 1000}KB{tail})")


def case_from_seed(root_seed: int, index: int) -> FuzzCase:
    """Derive case ``index`` of the ``root_seed`` fuzz run, stably."""
    rng = RngStream(root_seed, f"audit.fuzz.{index}")
    baseline = str(rng.choice(FUZZ_BASELINES))
    trace_kind = str(rng.choice(FUZZ_TRACES))
    # Short sessions: the invariants are per-event, so violations show up
    # within a few seconds of simulated time; breadth beats depth.
    config = SessionConfig(
        duration=round(rng.uniform(1.5, 4.0), 2),
        seed=root_seed * 1_000_003 + index,
        base_rtt=float(rng.choice((0.01, 0.03, 0.08, 0.16))),
        queue_capacity_bytes=int(rng.choice((25_000, 100_000, 400_000))),
        random_loss_rate=float(rng.choice((0.0, 0.0, 0.01, 0.05))),
        contention_loss_rate=float(rng.choice((0.0, 0.0, 0.0, 0.3))),
        delay_jitter_std=float(rng.choice((0.0, 0.0, 0.001, 0.003))),
        cross_traffic=bool(rng.random() < 0.25),
        audio=bool(rng.random() < 0.25),
    )
    return FuzzCase(root_seed=root_seed, index=index, baseline=baseline,
                    trace_kind=trace_kind, config=config)


def build_case_trace(case: FuzzCase) -> BandwidthTrace:
    kind = case.trace_kind
    rng = RngStream(case.root_seed, f"audit.fuzz.trace.{case.index}.{kind}")
    return trace_by_kind(kind, rng, case.config.duration + 5.0)


def run_case(case: FuzzCase,
             max_violations: int = 20) -> Tuple[List[Violation], int]:
    """Run one case under a collecting auditor.

    The session runs with flight-recorder-only telemetry (the full event
    log is not kept — fuzzing runs thousands of frames), so every
    violation carries a :attr:`Violation.flight_dump` of the records
    leading up to it. Returns ``(violations, events_checked)``.
    """
    from repro.obs import Telemetry

    session = build_session(case.baseline, build_case_trace(case),
                            case.config)
    session.enable_telemetry(Telemetry(keep_events=False))
    auditor = attach_audit(session, strict=False,
                           max_violations=max_violations)
    session.run()
    return auditor.finalize(), auditor.events_checked


#: Greedy shrink moves, most-simplifying first: a ``SessionConfig``
#: field (or the case's ``trace_kind``) and its simpler value. Each is
#: kept only if the simplified case still fails.
_SHRINK_MOVES: Tuple[Tuple[str, str, object], ...] = (
    ("shorten to 1.5s", "duration", 1.5),
    ("drop cross traffic", "cross_traffic", False),
    ("drop audio", "audio", False),
    ("remove random loss", "random_loss_rate", 0.0),
    ("remove contention loss", "contention_loss_rate", 0.0),
    ("remove jitter", "delay_jitter_std", 0.0),
    ("constant 3 Mbps trace", "trace_kind", "const:3"),
    ("default 30ms RTT", "base_rtt", 0.03),
    ("default 100KB queue", "queue_capacity_bytes", 100_000),
)


def shrink(case: FuzzCase,
           fails: Optional[Callable[[FuzzCase], bool]] = None) -> FuzzCase:
    """Greedily simplify a failing case while it keeps failing.

    ``fails`` is injectable for tests; the default re-runs the case under
    the auditor and reports whether any violation was found.
    """
    if fails is None:
        def fails(c: FuzzCase) -> bool:
            return bool(run_case(c)[0])
    current = case
    for _label, name, value in _SHRINK_MOVES:
        if name == "trace_kind":
            candidate = replace(current, trace_kind=value)
        else:
            candidate = replace(current, config=replace(current.config,
                                                        **{name: value}))
        if candidate != current and fails(candidate):
            current = candidate
    return current


@dataclass
class FuzzFailure:
    case: FuzzCase
    shrunk: FuzzCase
    violations: List[Violation]

    @property
    def flight_dump(self) -> Optional[str]:
        """Flight-recorder dump from the first violation carrying one."""
        return next((v.flight_dump for v in self.violations
                     if v.flight_dump), None)


@dataclass
class FuzzResult:
    cases_run: int
    events_checked: int
    failures: List[FuzzFailure]

    @property
    def ok(self) -> bool:
        return not self.failures


def fuzz(num_cases: int, root_seed: int = 1, start_index: int = 0,
         do_shrink: bool = True,
         on_progress: Optional[Callable[[FuzzCase, List[Violation]], None]]
         = None) -> FuzzResult:
    """Run ``num_cases`` seeded scenarios under the auditor."""
    failures: List[FuzzFailure] = []
    events_total = 0
    for index in range(start_index, start_index + num_cases):
        case = case_from_seed(root_seed, index)
        violations, events = run_case(case)
        events_total += events
        if on_progress is not None:
            on_progress(case, violations)
        if violations:
            shrunk = shrink(case) if do_shrink else case
            if shrunk != case:
                # Re-run the shrunk reproduction so the reported
                # violations (and their flight dumps) describe the
                # minimal case, not the original.
                rerun, _ = run_case(shrunk)
                if rerun:
                    violations = rerun
            failures.append(FuzzFailure(case, shrunk, violations))
    return FuzzResult(cases_run=num_cases, events_checked=events_total,
                      failures=failures)

"""The decision log: every controller's choices, as rows of one shape.

ACE-N, ACE-C and each congestion controller own a ``DecisionLog``
(``controller.log``). On real sessions — both engines, a constant and a
Wi-Fi trace, every controller family — each log's rows must be in time
order, chain (a row starts where the previous one ended, the first
where the controller started), end at the controller's live value, and
name only branches DESIGN §6's register lists; the session's
``bwe_history`` is the congestion controller's log. The BWE step lookup
reads the later of two same-instant writes.
"""

import re
from pathlib import Path

import pytest

from repro.core.decisions import step_function
from repro.net.trace import BandwidthTrace, make_wifi_trace
from repro.rtc.baselines import build_session
from repro.rtc.metrics import SessionMetrics
from repro.rtc.session import SessionConfig
from repro.sim.rng import RngStream
from tests.test_audit import expect_violation

DESIGN = Path(__file__).resolve().parent.parent / "DESIGN.md"

#: the register's controller column, by controller class
CONTROLLER = {"AceNController": "ACE-N", "AceCController": "ACE-C",
              "GccController": "GCC", "CopaController": "Copa",
              "BbrController": "BBR", "DeliveryRateController": "delivery-rate"}

#: (baseline, congestion-controller override): the ACE variants and a
#: baseline on each of GCC, Copa, BBR and the delivery-rate controller
SESSIONS = [("ace", None), ("ace-n", None), ("webrtc-star", None),
            ("salsify", None), ("webrtc-star", "copa"), ("ace", "bbr"),
            ("ace-n-prod", None)]
CASES = [(baseline, cc, trace, engine)
         for baseline, cc in SESSIONS
         for trace in ("const:20", "wifi")
         for engine in ("reference", "batch")]


def registered_branches() -> set:
    """``(controller, branch)`` pairs of DESIGN §6's branch register."""
    text = DESIGN.read_text()
    section = text[text.index("\n## 6."):text.index("\n## 7.")]
    return set(re.findall(r"^\| ([\w-]+) \| `([\w-]+)` \|", section,
                          flags=re.M))


def logs(session, config):
    """``(controller, log, initial value, live value)`` per controller."""
    sender = session.sender
    out = [(sender.cc, sender.cc.log, config.initial_bwe_bps,
            sender.cc.bwe_bps)]
    if sender.ace_n is not None:
        ace_n = sender.ace_n
        out.append((ace_n, ace_n.log, ace_n.config.initial_bucket_bytes,
                    ace_n.bucket_bytes))
    if sender.ace_c is not None:
        out.append((sender.ace_c, sender.ace_c.log, 0,
                     sender.encoded_frames[-1].complexity_level))
    return out


@pytest.mark.parametrize("baseline, cc, trace_name, engine", CASES)
def test_every_log_chains_and_ends_at_the_live_value(baseline, cc,
                                                     trace_name, engine):
    if trace_name == "wifi":
        trace = make_wifi_trace(RngStream(11, "trace"), duration=14.0)
    else:
        trace = BandwidthTrace.constant(20e6, duration=14.0, name=trace_name)
    config = SessionConfig(duration=4.0, seed=2, initial_bwe_bps=8e6)
    session = build_session(baseline, trace, config, cc_override=cc,
                            engine=engine)
    metrics = session.run()
    register = registered_branches()
    for controller, log, initial, live in logs(session, config):
        name = CONTROLLER[type(controller).__name__]
        assert len(log) > 0, name
        assert all(a <= b for a, b in zip(log.time, log.time[1:])), name
        assert log.before == [initial] + log.after[:-1], name
        assert log.after[-1] == live, name
        assert {(name, b) for b in log.branch} <= register, name
    cc_log = session.sender.cc.log
    assert metrics.bwe_history == list(zip(cc_log.time, cc_log.after))


def test_register_names_every_controller():
    controllers = {name for name, _ in registered_branches()}
    assert controllers == set(CONTROLLER.values())


def test_step_lookup_reads_the_later_same_instant_write():
    history = [(0.0, 1e6), (1.0, 3e6), (1.0, 2e6)]
    at = step_function(history)
    assert [at(t) for t in (-1.0, 0.5, 1.0, 1.5)] == [1e6, 1e6, 2e6, 2e6]
    metrics = SessionMetrics(duration=2.0)
    metrics.bwe_history = history
    metrics.bandwidth_fn = lambda t: 1e6
    assert metrics.bwe_accuracy_samples(bin_s=0.5) == [1.0, 1.0, 2.0, 2.0]


def test_a_row_that_does_not_chain_is_a_trajectory_violation():
    """The bucket moved without a row, then a row recorded the moved
    value as its start: the gap between the rows is the violation."""
    def corrupt(s, a):
        ace = s.sender.ace_n
        moved = ace.bucket_bytes + 4000.0
        ace._bucket_bytes = moved
        ace.log.append(s.loop.now, "app-limit", moved, moved, 0.0)
    expect_violation(corrupt, "ace.decision.trajectory")

"""Extension — RTC-vs-RTC fairness on a shared bottleneck.

The paper's fairness experiment (Fig. 24) measures impact on web
traffic; the natural follow-up is two RTC flows sharing a drop-tail
bottleneck. This bench runs (a) two identical ACE flows and (b) an ACE
flow against a paced WebRTC* flow, and checks that ACE's bursts do not
starve the co-flow: both flows get a usable share of the link and
comparable loss.
"""

import numpy as np

from repro.bench import fmt_ms, fmt_pct, print_table
from repro.arena import ArenaFlowSpec, ArenaSession
from repro.bench.workloads import once
from repro.net.trace import BandwidthTrace
from repro.rtc.session import SessionConfig

LINK_MBPS = 30.0


def flow_rate(metrics, fps=30.0):
    sizes = [f.size_bytes for f in metrics.frames[-150:]]
    return float(np.mean(sizes) * 8 * fps) if sizes else 0.0


def run_pair(label_a: str, label_b: str):
    trace = BandwidthTrace.constant(LINK_MBPS * 1e6, duration=40.0)
    cfg = SessionConfig(duration=20.0, seed=5, initial_bwe_bps=5e6)
    session = ArenaSession(
        [ArenaFlowSpec(label_a, flow_id=1), ArenaFlowSpec(label_b, flow_id=2)],
        trace, cfg)
    results = session.run()
    return {
        1: (label_a, flow_rate(results[1]), results[1].p95_latency(),
            results[1].loss_rate()),
        2: (label_b, flow_rate(results[2]), results[2].p95_latency(),
            results[2].loss_rate()),
    }


def run_experiment():
    return {
        "ace+ace": run_pair("ace", "ace"),
        "ace+webrtc-star": run_pair("ace", "webrtc-star"),
    }


def test_ext_rtc_fairness(benchmark):
    results = once(benchmark, run_experiment)
    rows = []
    for scenario, flows in results.items():
        for fid, (name, rate, p95, loss) in flows.items():
            rows.append([scenario, f"{fid}:{name}", f"{rate / 1e6:.1f}",
                         fmt_ms(p95), fmt_pct(loss)])
    print_table(
        "Extension: two RTC flows on one 30 Mbps bottleneck "
        "(ACE must not starve the co-flow)",
        ["scenario", "flow", "rate Mbps", "p95", "loss"],
        rows,
    )
    # (a) identical flows converge near fairness
    same = results["ace+ace"]
    rates = [same[1][1], same[2][1]]
    assert max(rates) / max(min(rates), 1.0) < 2.5
    # (b) the paced co-flow still gets a usable share against ACE
    mixed = results["ace+webrtc-star"]
    star_rate = mixed[2][1]
    assert star_rate > 0.2 * LINK_MBPS * 1e6 / 2, \
        "the paced flow keeps a usable share of its half"
    # neither flow suffers runaway loss
    for scenario, flows in results.items():
        for fid, (name, rate, p95, loss) in flows.items():
            assert loss < 0.08, f"{scenario}/{name}: loss {loss:.3f}"

"""Fig. 20 — GCC's reaction to a sudden bandwidth drop, with and without ACE.

Paper: the BWE reaction curves of ACE and the pacing baseline nearly
overlap after a sharp drop — ACE's bursts do not blunt the congestion
controller's responsiveness.
"""

import numpy as np

from repro.bench import print_series, print_table
from repro.bench.workloads import once, run_baseline
from repro.core.decisions import step_function
from repro.net.trace import make_step_trace

DROP_AT = 10.0


def reaction_metrics(metrics):
    hist = metrics.bwe_history
    before = np.mean([v for t, v in hist if DROP_AT - 2 < t < DROP_AT])
    # time until the estimate falls below half its pre-drop value
    settle = None
    for t, v in hist:
        if t > DROP_AT and v < 0.5 * before:
            settle = t - DROP_AT
            break
    after = np.mean([v for t, v in hist if DROP_AT + 4 < t < DROP_AT + 8])
    return before, after, settle, hist


def run_experiment():
    trace = make_step_trace(high_mbps=25, low_mbps=5, step_at=DROP_AT,
                            duration=30.0)
    ace = run_baseline("ace", trace, duration=20.0)
    pace = run_baseline("webrtc-star", trace, duration=20.0)
    return {"ace": reaction_metrics(ace), "pace": reaction_metrics(pace)}


def test_fig20_bandwidth_drop(benchmark):
    r = once(benchmark, run_experiment)
    rows = []
    for name, (before, after, settle, _) in r.items():
        rows.append([name, f"{before / 1e6:.1f}", f"{after / 1e6:.1f}",
                     f"{settle:.2f}s" if settle else "n/a"])
    print_table(
        "Fig. 20: GCC reaction to a 25->5 Mbps drop at t=10 s "
        "(paper: ACE and Pace curves nearly overlap)",
        ["scheme", "BWE before (Mbps)", "BWE after (Mbps)", "time to halve"],
        rows,
    )
    ts = [DROP_AT + dt for dt in (0.5, 1, 2, 3, 4)]
    ace_bwe = step_function(r["ace"][3])
    print_series("BWE after the drop (ace)", ts,
                 [ace_bwe(t) / 1e6 for t in ts],
                 "time s", "Mbps")
    for name, (before, after, settle, _) in r.items():
        assert after < 0.6 * before, f"{name}: estimate must fall after the drop"
        assert settle is not None and settle < 5.0, f"{name}: must react quickly"
    # similar reaction speed: within 2.5 s of each other
    assert abs(r["ace"][2] - r["pace"][2]) < 2.5

"""Fig. 17 — understanding ACE's joint decisions per frame.

Paper (gaming stream): most frames burst out completely (pacing only
when the network buffer is near overflow); most frames encode at c0 and
only oversized frames (~>1.6x the average) are elevated — the two
actions that jointly smooth the send pattern.
"""

import numpy as np

from repro.bench import print_table
from repro.bench.workloads import once, run_baseline, trace_library


def run_experiment():
    trace = trace_library().by_class("wifi")[0]
    metrics, session = run_baseline("ace", trace, duration=25.0,
                                    return_session=True)
    frames = metrics.frames
    # "burst" = the frame cleared the pacer within half a frame interval
    # (a fully-paced frame takes at least one full interval).
    pacing = np.array([f.pacing_latency if f.pacing_latency is not None else 1.0
                       for f in frames])
    burst_frac = float((pacing < 0.5 / 30.0).mean())
    levels = np.array([f.complexity_level for f in frames])
    elevated = levels > 0
    elevated_frac = float(elevated.mean())
    # Compare frames on their *pre-reduction* demand: elevated frames were
    # already shrunk by (1 - phi), so use the content-difficulty signal.
    satd = np.array([f.satd for f in frames])
    mean_satd = satd.mean()
    rel_elevated = (float((satd[elevated] / mean_satd).mean())
                    if elevated.any() else 0.0)
    rel_base = float((satd[~elevated] / mean_satd).mean())
    return {
        "burst_frac": burst_frac,
        "elevated_frac": elevated_frac,
        "rel_demand_elevated": rel_elevated,
        "rel_demand_base": rel_base,
        "ace_c": float(np.mean(np.array(session.sender.ace_c.log.after) > 0)),
    }


def test_fig17_decision_scatter(benchmark):
    r = once(benchmark, run_experiment)
    print_table(
        "Fig. 17: ACE per-frame decisions "
        "(paper: most frames burst; only oversized frames elevated)",
        ["quantity", "value"],
        [["frames fully burst", f"{r['burst_frac'] * 100:.1f}%"],
         ["frames elevated (ACE-C)", f"{r['elevated_frac'] * 100:.1f}%"],
         ["mean rel. demand of elevated frames", f"{r['rel_demand_elevated']:.2f}x"],
         ["mean rel. demand of base frames", f"{r['rel_demand_base']:.2f}x"]],
    )
    assert r["burst_frac"] > 0.4, "a large share of frames bursts out " \
        "completely (GCC ramp and congestion episodes pace the rest)"
    assert r["elevated_frac"] < 0.5, "elevation reserved for a minority"
    assert r["rel_demand_elevated"] > r["rel_demand_base"], \
        "elevated frames are the (pre-reduction) demanding ones"

"""Fig. 25 — ACE-N adaptive pacing deep dive (timeline).

Paper (1-second window): while the BWE underestimates, frames burst
(sharp spikes in network-buffer occupancy) with a large token bucket;
when the predicted queue exceeds the threshold T the bucket shrinks and
the send pattern degrades to pacing; once the queue drains, fast
recovery restores the bucket — one full increase/decrease cycle.
"""

import numpy as np

from repro.bench import print_series, print_table
from repro.bench.workloads import once, run_baseline, trace_library


def run_experiment():
    trace = trace_library().by_class("wifi")[0]
    _, session = run_baseline("ace-n", trace, duration=25.0,
                              return_session=True)
    acen = session.sender.ace_n
    log = acen.log
    reasons = {}
    for branch in log.branch:
        reasons[branch] = reasons.get(branch, 0) + 1
    return {
        "buckets": list(zip(log.time, log.after)),
        # the queue estimate each decision read (one row per feedback
        # that moved or held the bucket)
        "queues": list(zip(log.time, log.input)),
        "reasons": reasons,
        "threshold": acen.config.threshold_bytes,
    }


def test_fig25_acen_timeline(benchmark):
    r = once(benchmark, run_experiment)
    times = [t for t, _ in r["buckets"]]
    sizes = [b / 1000 for _, b in r["buckets"]]
    print_series("Fig. 25(c): token bucket size over time (KB)",
                 times, sizes, "time s", "bucket KB")
    qt = [t for t, _ in r["queues"]]
    qv = [q / 1000 for _, q in r["queues"]]
    print_series("Fig. 25(b): estimated network queue (KB, threshold "
                 f"T={r['threshold'] / 1000:.1f} KB)", qt, qv,
                 "time s", "est queue KB")
    print_table(
        "Fig. 25: adaptation events",
        ["reason", "count"],
        [[k, str(v)] for k, v in sorted(r["reasons"].items())],
    )
    assert "additive-increase" in r["reasons"], "probing must occur"
    decrease_events = (r["reasons"].get("queue-threshold", 0)
                       + r["reasons"].get("loss-halve", 0))
    assert decrease_events > 0, "the decrease side of the cycle must fire"
    # bucket actually cycles: spread between min and max is substantial
    assert max(sizes) > 2 * min(sizes)

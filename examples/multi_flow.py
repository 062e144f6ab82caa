#!/usr/bin/env python
"""Two RTC flows on one bottleneck: does ACE play fair with a co-flow?

The paper measures fairness against web traffic; this example asks the
RTC-vs-RTC question. Two sender/receiver pairs share a single 30 Mbps
drop-tail bottleneck: first two identical ACE flows, then ACE against a
paced WebRTC* flow.

Run:  python examples/multi_flow.py
"""

import sys
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without installing
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro.net.trace import BandwidthTrace
from repro.arena import ArenaFlowSpec, ArenaSession
from repro.rtc import SessionConfig

LINK_MBPS = 30.0
#: fair-share convergence is a multi-GCC-cycle process; give it time
DURATION = 30.0


def flow_rate_mbps(metrics) -> float:
    sizes = [f.size_bytes for f in metrics.frames[-120:]]
    return float(np.mean(sizes) * 8 * 30 / 1e6) if sizes else 0.0


def run_pair(name_a: str, name_b: str) -> None:
    trace = BandwidthTrace.constant(LINK_MBPS * 1e6, duration=DURATION + 10)
    session = ArenaSession(
        [ArenaFlowSpec(name_a, flow_id=1), ArenaFlowSpec(name_b, flow_id=2)],
        trace,
        SessionConfig(duration=DURATION, seed=9, initial_bwe_bps=5e6),
    )
    results = session.run()
    print(f"\n{name_a} vs {name_b} on {LINK_MBPS:.0f} Mbps:")
    for fid, name in ((1, name_a), (2, name_b)):
        m = results[fid]
        print(f"  flow {fid} ({name:<12}): {flow_rate_mbps(m):5.1f} Mbps, "
              f"p95 {m.p95_latency() * 1000:6.1f} ms, "
              f"loss {m.loss_rate() * 100:.2f}%, "
              f"VMAF {m.mean_vmaf():.1f}")


def main() -> None:
    print("RTC-vs-RTC fairness on a shared drop-tail bottleneck")
    run_pair("ace", "ace")
    run_pair("ace", "webrtc-star")
    print("\nExpected shape: identical flows split the link roughly "
          "evenly; against a paced co-flow, ACE takes its share without "
          "starving it.")


if __name__ == "__main__":
    main()

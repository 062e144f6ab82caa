#!/usr/bin/env python
"""Loss-recovery co-design: ACE with adaptive FEC on lossy wireless links.

The paper's §8 notes that random wireless loss is noise to ACE-N's
loss-triggered halving and leaves FEC co-design as future work. This
example sweeps a random-loss rate and shows the division of labor:

* plain ACE recovers losses by NACK retransmission (a round trip each),
* ACE+FEC repairs most single losses in-place from XOR parity, cutting
  retransmissions and the latency tail on lossy links.

Run:  python examples/fec_resilience.py
"""

import sys
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without installing
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.net import make_wifi_trace
from repro.rtc import SessionConfig, build_session
from repro.sim import RngStream

LOSS_RATES = (0.0, 0.01, 0.02, 0.04)
DURATION = 15.0


def run(scheme: str, loss: float):
    trace = make_wifi_trace(RngStream(13, "trace"), duration=DURATION + 10)
    cfg = SessionConfig(duration=DURATION, seed=21, random_loss_rate=loss,
                        initial_bwe_bps=6e6)
    session = build_session(scheme, trace, cfg)
    metrics = session.run()
    return {
        "p95": metrics.p95_latency(),
        "stall": metrics.stall_rate(),
        "rtx": session.sender.retransmissions,
        "repairs": (0 if session.receiver.fec is None     # plain ACE
                    else session.receiver.fec.stats.repairs),
        "vmaf": metrics.mean_vmaf(),
    }


def main() -> None:
    print("ACE vs ACE+FEC under random wireless loss\n")
    header = (f"{'loss':>6}{'scheme':>10}{'p95':>10}{'VMAF':>8}"
              f"{'rtx':>7}{'repairs':>9}{'stalls':>9}")
    print(header)
    print("-" * len(header))
    for loss in LOSS_RATES:
        for scheme in ("ace", "ace-fec"):
            r = run(scheme, loss)
            print(f"{loss * 100:>5.0f}%{scheme:>10}"
                  f"{r['p95'] * 1000:>8.1f}ms{r['vmaf']:>8.1f}"
                  f"{r['rtx']:>7}{r['repairs']:>9}"
                  f"{r['stall'] * 100:>8.2f}%")
    print("\nExpected shape: as loss grows, plain ACE's retransmissions "
          "and stalls climb; FEC repairs most losses in-place at a small "
          "parity-bandwidth cost.")


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Live mode: the ACE stack in real time over real UDP sockets.

Everything else in this repo runs inside the discrete-event simulator.
This example runs the *same* sender/receiver components on a wall
clock: the simulator's network path (8 Mbps bottleneck, 30 ms RTT,
0.5% random loss here) stands in for the paper's Mahimahi on that
clock, packets and feedback then cross actual UDP datagram sockets on
loopback, and timers are real asyncio timers.

Each scheme streams for a few wall-clock seconds, so this example takes
roughly ``DURATION x len(SCHEMES)`` seconds to finish.

Run:  python examples/live_loopback.py
"""

import sys
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without installing
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.live import LiveConfig, run_live
from repro.net.trace import BandwidthTrace

DURATION = 5.0
SCHEMES = ("ace", "webrtc-star")


def main() -> None:
    trace = BandwidthTrace.constant(8e6, duration=DURATION + 10)
    config = LiveConfig(
        duration=DURATION,
        base_rtt=0.03,
        random_loss_rate=0.005,
        seed=7,
    )

    print(f"Streaming {DURATION:.0f} s per scheme over UDP loopback "
          f"(8 Mbps bottleneck, 30 ms RTT, 0.5% loss)\n")
    header = (f"{'scheme':<14}{'P95 latency':>14}{'mean VMAF':>12}"
              f"{'loss':>9}{'rtx':>7}{'fps':>7}")
    print(header)
    print("-" * len(header))

    for scheme in SCHEMES:
        metrics = run_live(scheme, config=config, trace=trace)
        displayed = sum(1 for f in metrics.frames
                        if f.displayed_at is not None)
        print(f"{scheme:<14}"
              f"{metrics.p95_latency() * 1000:>11.1f} ms"
              f"{metrics.mean_vmaf():>12.1f}"
              f"{metrics.loss_rate():>8.2%}"
              f"{metrics.packets_retransmitted:>7d}"
              f"{displayed / DURATION:>7.1f}")

    print("\nSame control logic as the simulator, but with real socket "
          "latency and OS timer jitter in the loop.")


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Extending the library: plug a custom pacing policy into the pipeline.

Demonstrates the extension surface a downstream user would touch:

1. a custom ``Pacer`` subclass (here, a half-frame burst-then-pace
   hybrid) dropped into a session via ``RtcSession``'s factories;
2. direct use of the ACE-N controller against synthetic feedback, for
   controller-level experiments without the full pipeline;
3. a parameter-sweep loop over the ACE-N threshold ``T``.

Run:  python examples/custom_controller.py
"""

import sys
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without installing
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core import AceNConfig, AceNController
from repro.net import make_wifi_trace
from repro.net.packet import Packet
from repro.rtc import SessionConfig
from repro.rtc.session import RtcSession
from repro.sim import RngStream, SeedSequenceFactory
from repro.transport.feedback import FeedbackMessage, PacketReport
from repro.transport.pacer.base import Pacer
from repro.video import AbrVbvRateControl, CodecModel, VideoSource
from repro.video.codec.presets import x264_config


class HalfBurstPacer(Pacer):
    """Custom policy: burst the first half of each frame, pace the rest.

    A minimal example of the sub-RTT design space the paper studies —
    it needs only ``_take(packet)``, the release rule in one call: return
    0.0 and commit the release to the policy's state, or return the
    seconds to wait (the pump asks again then, and nothing is committed).
    That is enough for the reference loop and live mode; ``--engine
    batch`` falls back to the reference loop for it ("unsupported pacer
    type HalfBurstPacer"). To put a custom pacer on the batch engine's
    fast path, also state the policy over a whole train:
    ``release_train(sizes, cum, floor, target)`` returns the release
    times of the packets that leave by ``target`` and commits them —
    see ``LeakyBucketPacer.release_train`` for the shape.
    """

    def __init__(self, loop, send_fn):
        super().__init__(loop, send_fn)
        self._next_send_time = 0.0

    def _take(self, packet: Packet) -> float:
        if packet.frame_packet_index < packet.frame_packet_count / 2:
            return 0.0  # first half: burst
        now = self.loop.now
        if self._next_send_time > now:
            return self._next_send_time - now
        serialization = packet.size_bytes * 8 / self.pacing_rate_bps
        self._next_send_time = now + serialization
        return 0.0


def run_custom_pacer() -> None:
    trace = make_wifi_trace(RngStream(5, "trace"), duration=25.0)
    session = RtcSession(
        trace=trace,
        config=SessionConfig(duration=15.0, seed=2, initial_bwe_bps=6e6),
        source_factory=lambda rngs: VideoSource.from_category(
            "gaming", rngs.stream("source")),
        codec_factory=lambda rngs: CodecModel(x264_config(),
                                              rngs.stream("codec")),
        rate_control_factory=AbrVbvRateControl,
        pacer_factory=HalfBurstPacer,
    )
    metrics = session.run()
    print("custom HalfBurstPacer: "
          f"p95 {metrics.p95_latency() * 1000:.1f} ms, "
          f"VMAF {metrics.mean_vmaf():.1f}, "
          f"loss {metrics.loss_rate() * 100:.2f}%")


def drive_ace_n_directly() -> None:
    """Feed ACE-N synthetic feedback and watch the bucket adapt."""
    ctrl = AceNController(AceNConfig(initial_bucket_bytes=20_000))
    ctrl.on_frame_enqueued(120_000)
    print("\nACE-N bucket under synthetic feedback:")
    t, seq = 0.0, 0
    for step in range(8):
        lossy = step == 4  # one overflow event mid-run
        reports = [
            PacketReport(seq=seq + i, send_time=t + i * 0.004,
                         arrival_time=t + i * 0.004 + 0.02, size_bytes=1200)
            for i in range(3)
        ]
        message = FeedbackMessage(created_at=t, reports=reports,
                                  nacked_seqs=[seq + 99] if lossy else [],
                                  highest_seq=seq + 2)
        ctrl.on_feedback(message, now=t, reverse_delay=0.01)
        print(f"  t={t:.2f}s bucket={ctrl.bucket_bytes / 1000:6.1f} KB"
              + ("   <- loss, halved" if lossy else ""))
        seq += 3
        t += 0.05


def sweep_threshold() -> None:
    print("\nACE-N threshold sweep (full pipeline):")
    from repro.rtc import build_session
    for t_packets in (7.5, 15.0):
        trace = make_wifi_trace(RngStream(5, "trace"), duration=25.0)
        session = build_session(
            "ace", trace, SessionConfig(duration=15.0, seed=2,
                                        initial_bwe_bps=6e6),
            ace_n_config=AceNConfig(threshold_packets=t_packets),
        )
        m = session.run()
        print(f"  T={t_packets:4.1f} pkts: p95 {m.p95_latency() * 1000:6.1f} ms, "
              f"VMAF {m.mean_vmaf():.1f}")


if __name__ == "__main__":
    run_custom_pacer()
    drive_ace_n_directly()
    sweep_threshold()

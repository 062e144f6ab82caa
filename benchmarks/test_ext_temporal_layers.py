"""Extension — graceful fps degradation via temporal layers.

The paper's evaluation disables frame dropping to keep quality
comparisons fair (§6.3); production WebRTC, however, degrades frame
rate before letting latency run away. This bench quantifies the
tradeoff on a squeezed link: with two temporal layers the sender sheds
enhancement frames under backlog, trading received fps for a latency
cut, while the base layer keeps motion continuity.
"""

from repro.bench import fmt_ms, print_table
from repro.bench.workloads import once
from repro.net.trace import BandwidthTrace
from repro.rtc.baselines import build_session
from repro.rtc.session import SessionConfig

LINK_MBPS = 4.0


def run_one(temporal_layers: int):
    trace = BandwidthTrace.constant(LINK_MBPS * 1e6, duration=35.0)
    cfg = SessionConfig(duration=20.0, seed=4, initial_bwe_bps=6e6)
    session = build_session("webrtc-star", trace, cfg)
    session.sender.temporal_layers = temporal_layers
    # degrade early: at 4 Mbps a frame interval of backlog is already
    # 80 ms, so the default 150 ms threshold reacts only to the deepest
    # episodes
    session.sender.frame_drop_queue_time = 0.08
    metrics = session.run()
    return {
        "p95": metrics.p95_latency(),
        "fps": metrics.received_fps(),
        "vmaf": metrics.mean_vmaf(),
        "dropped": session.sender.frames_dropped,
        "stall": metrics.stall_rate(),
    }


def run_experiment():
    return {
        "no-drop (paper setting)": run_one(1),
        "2 temporal layers": run_one(2),
    }


def test_ext_temporal_layers(benchmark):
    results = once(benchmark, run_experiment)
    print_table(
        f"Extension: graceful degradation on a {LINK_MBPS:g} Mbps link "
        "(drop enhancement frames instead of queueing them)",
        ["mode", "p95", "recv fps", "VMAF", "frames dropped", "stall"],
        [[mode, fmt_ms(v["p95"]), f"{v['fps']:.1f}", f"{v['vmaf']:.1f}",
          str(v["dropped"]), f"{v['stall'] * 100:.2f}%"]
         for mode, v in results.items()],
    )
    nodrop = results["no-drop (paper setting)"]
    layered = results["2 temporal layers"]
    assert layered["dropped"] > 10, "pressure must trigger drops"
    assert layered["p95"] < nodrop["p95"], "dropping buys latency"
    assert layered["fps"] < nodrop["fps"] + 1, "paid for with frame rate"
    assert layered["fps"] > 14.0, "base layer keeps at least half rate"

"""Fig. 11 / Algorithm 1 — the bucket-size adaptation state machine.

The paper's Fig. 11 walks the bucket through its states: additive
increase, application limit, queue-threshold decrease, loss halving,
and fast recovery. This bench drives the controller with a scripted
feedback sequence that visits each state in turn and prints the
resulting bucket trajectory, verifying every transition fires.
"""

from repro.bench import print_table
from repro.bench.workloads import once
from repro.core.ace_n import AceNConfig, AceNController
from repro.transport.feedback import FeedbackMessage, ReportBatch


def feedback(now, owds, nacks=(), start_seq=0, spacing=0.005):
    sends = [now - 0.05 + i * spacing for i in range(len(owds))]
    reports = ReportBatch(
        seqs=list(range(start_seq, start_seq + len(owds))), send_times=sends,
        arrival_times=[send + owd for send, owd in zip(sends, owds)],
        sizes=[1200] * len(owds))
    return FeedbackMessage(created_at=now, reports=reports,
                           nacked_seqs=list(nacks),
                           highest_seq=start_seq + len(owds) - 1)


def run_experiment():
    ctrl = AceNController(AceNConfig(
        initial_bucket_bytes=20_000, additive_step_bytes=2_400,
        threshold_packets=10, alpha=0.8))
    trajectory = []
    t, seq = 0.0, 0

    def step(owds, nacks=(), label=""):
        nonlocal t, seq
        ctrl.on_feedback(feedback(t, owds, nacks=nacks, start_seq=seq),
                         now=t, reverse_delay=0.01)
        trajectory.append((t, ctrl.bucket_bytes, label))
        seq += len(owds)
        t += 0.05

    # t0-t1: additive increase with an empty network queue
    ctrl.on_frame_enqueued(80_000)
    for _ in range(5):
        step([0.02, 0.02], label="probe")
    # t1-t2: application limit — a small previous frame caps growth
    ctrl.on_frame_enqueued(ctrl.bucket_bytes + 1_000)
    for _ in range(4):
        step([0.02, 0.02], label="app-limit")
    ctrl.on_frame_enqueued(200_000)
    # t4-t5: persistent queue above threshold -> shrink by the excess
    for _ in range(5):
        step([0.045, 0.045], label="queue>T")
    # t5-t6: packet loss with a large pre-loss queue -> halve
    step([0.08, 0.08], nacks=[seq + 1], label="loss")
    # queue drains -> t7-t8: fast recovery restores the bucket
    t += 0.2
    for _ in range(3):
        step([0.02, 0.02], label="recovery")
    return trajectory, ctrl.log.branch


def test_fig11_bucket_states(benchmark):
    trajectory, reasons = once(benchmark, run_experiment)
    print_table(
        "Fig. 11: scripted walk through the bucket adaptation states",
        ["t (s)", "bucket KB", "phase"],
        [[f"{t:.2f}", f"{b / 1000:.1f}", label] for t, b, label in trajectory],
    )
    for expected in ("additive-increase", "app-limit", "queue-threshold",
                     "loss-halve", "fast-recovery"):
        assert expected in reasons, f"state {expected} never fired"
    # the loss halving must be visible in the trajectory
    buckets = [b for _, b, _ in trajectory]
    drops = [(a - b) / a for a, b in zip(buckets, buckets[1:]) if a > 0]
    assert max(drops) > 0.3, "a visible halving-scale drop must occur"
    # and recovery must bring the bucket back up afterwards
    assert buckets[-1] > min(buckets)

"""Fig. 12 robustness — the headline tradeoff aggregated across seeds.

The single-seed Fig. 12 bench shows the frontier; this companion checks
the claim survives workload randomness: ACE's P95 cut versus WebRTC*
must hold on every paired (trace, seed) workload, and the aggregate cut
must stay large.

The (baseline x trace x seed) grid runs through the parallel runner —
set ``REPRO_JOBS=N`` to fan it across processes (results are identical
to serial) — with a result cache in a private temporary directory that
is removed afterwards, so every run computes its cells afresh and
leaves no entry behind. Cache counters are printed with the results.
"""

import os
import tempfile

from repro.analysis import ResultCache, RunResult, aggregate, paired_compare, \
    render_aggregate
from repro.bench.parallel import ParallelRunner, run_grid
from repro.bench.workloads import once, trace_library

BASELINES = ("ace", "webrtc-star", "cbr")
SEEDS = (3, 11)
CLASSES = ("wifi", "5g")
JOBS = int(os.environ.get("REPRO_JOBS", "1"))


def run_experiment():
    traces = [trace_library().by_class(cls)[0] for cls in CLASSES]
    class_of = {trace.name: cls for cls, trace in zip(CLASSES, traces)}
    with tempfile.TemporaryDirectory(prefix="repro-fig12-") as cache_dir:
        runner = ParallelRunner(jobs=JOBS, cache=ResultCache(cache_dir))
        grid = run_grid(list(BASELINES), traces, seeds=SEEDS, duration=25.0,
                        runner=runner)
    results = [
        RunResult.from_metrics(metrics, baseline=name,
                               trace=class_of[trace_name], seed=seed)
        for (name, trace_name, seed, _cat), metrics in grid.items()
    ]
    return results, runner.counters()


def test_fig12_multiseed(benchmark):
    results, counters = once(benchmark, run_experiment)
    print()
    print("=== Fig. 12 aggregated over seeds "
          f"{SEEDS} x traces {CLASSES} ({counters}) ===")
    print(render_aggregate(aggregate(results)))
    latency = paired_compare(results, "ace", "webrtc-star",
                             metric="p95_latency")
    quality = paired_compare(results, "webrtc-star", "ace",
                             metric="mean_vmaf")
    print(f"\nACE vs WebRTC* p95: mean diff {latency.mean_diff * 1000:+.1f} ms "
          f"({latency.wins}/{latency.n} workloads won)")
    assert latency.n == len(SEEDS) * len(CLASSES)
    assert latency.consistent, \
        "ACE must beat WebRTC* P95 on every paired workload"
    assert latency.mean_diff < -0.05, "aggregate cut stays large (>50 ms)"
    # quality: ACE within the WebRTC* tier on average (diff < 5 VMAF)
    assert quality.mean_diff < 5.0

"""Fig. 13 — comparison across video content categories.

Paper: ACE cuts latency ~70% on high-motion Gaming while matching
WebRTC*'s quality; on static Lecture content frame sizes are stable, so
the gains (and CBR's quality loss) shrink.

The (baseline x category) grid runs through the parallel runner
(``REPRO_JOBS=N`` fans it across processes) with a result cache in a
private temporary directory that is removed afterwards; cache counters
are printed with the table.
"""

import os
import tempfile

from repro.analysis import ResultCache
from repro.bench import fmt_ms, print_table
from repro.bench.parallel import ParallelRunner, run_grid
from repro.bench.workloads import once, trace_library

CATEGORIES = ("gaming", "sports", "vlog", "music", "lecture")
BASELINES = ("ace", "webrtc-star", "cbr")
JOBS = int(os.environ.get("REPRO_JOBS", "1"))


def run_experiment():
    trace = trace_library().by_class("wifi")[0]
    with tempfile.TemporaryDirectory(prefix="repro-fig13-") as cache_dir:
        runner = ParallelRunner(jobs=JOBS, cache=ResultCache(cache_dir))
        grid = run_grid(list(BASELINES), [trace], seeds=(3,),
                        categories=CATEGORIES, duration=25.0, runner=runner)
    results = {
        cat: {
            name: (grid[(name, trace.name, 3, cat)].p95_latency(),
                   grid[(name, trace.name, 3, cat)].mean_vmaf())
            for name in BASELINES
        }
        for cat in CATEGORIES
    }
    return results, runner.counters()


def test_fig13_video_categories(benchmark):
    results, counters = once(benchmark, run_experiment)
    rows = []
    for cat, by_name in results.items():
        ace, star, cbr = by_name["ace"], by_name["webrtc-star"], by_name["cbr"]
        cut = 1 - ace[0] / star[0]
        rows.append([cat, fmt_ms(ace[0]), fmt_ms(star[0]), fmt_ms(cbr[0]),
                     f"{cut * 100:.0f}%", f"{ace[1]:.1f}", f"{star[1]:.1f}",
                     f"{cbr[1]:.1f}"])
    print_table(
        "Fig. 13: per-category P95 latency and VMAF "
        "(paper: biggest ACE gains on gaming, smallest on lecture) "
        f"({counters})",
        ["category", "ACE p95", "WebRTC* p95", "CBR p95",
         "ACE cut", "ACE VMAF", "WebRTC* VMAF", "CBR VMAF"],
        rows,
    )
    cut = {cat: 1 - v["ace"][0] / v["webrtc-star"][0] for cat, v in results.items()}
    assert cut["gaming"] > 0.25, "large latency cut on gaming"
    assert cut["gaming"] > cut["lecture"] - 0.10, \
        "gains on dynamic content comparable to static content"
    # CBR's quality deficit shrinks from gaming to lecture
    deficit = {cat: v["webrtc-star"][1] - v["cbr"][1] for cat, v in results.items()}
    assert deficit["gaming"] > deficit["lecture"] - 1.0
    for cat, v in results.items():
        assert v["ace"][1] > v["webrtc-star"][1] - 6.0, \
            f"{cat}: ACE holds the quality tier"

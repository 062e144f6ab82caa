"""One fresh process: set up a workload, repeat it, print one JSON line.

The parent (:mod:`perfbench.protocol`) starts this file as a script, one
process at a time. The child imports ``repro``, builds the workload's
inputs from the seed, runs a one-second warm-up of the same kind, and
reports how long all that took since the parent spawned it
(``setup_s``). Then it alternates the calibration kernel and timed
repetitions until its share of ``--seconds`` is used, or — in the traced
pass — runs the repetitions, twins and spans that the per-layer metrics
need. Nothing is aggregated here: the parent sees every repetition.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# Run as a script, so the checkout is not on sys.path yet.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.harness import (PREFIX, bootstrap, peak_rss_mb,  # noqa: E402
                               timed_rep)


def main(argv: list) -> int:
    args = json.loads(argv[1])
    bootstrap()
    from perfbench import calibrate
    from perfbench.checks import pinned_variants
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args["workload"]]
    budget = float(args["budget_s"])
    probe = None
    if workload.kind == "live":
        from perfbench.probe import LatenessProbe
        probe = LatenessProbe().install()
        variants = workload.inputs(args["seed"], args["scale"],
                                   media_s=workload.media_for(budget))
    else:
        variants = workload.inputs(args["seed"], args["scale"])
    warm_fingerprint = workload.warmup(variants)
    kernel = calibrate.measure()
    setup_s = time.time() - float(args["t0"])
    pins = pinned_variants(args.get("expected"), workload.name, args["seed"],
                           args["scale"])

    out = {"workload": workload.name, "seed": args["seed"],
           "setup_s": setup_s, "warm_fingerprint": warm_fingerprint,
           "reps": []}
    if args["trace"]:
        from perfbench.traced import traced_pass
        out.update(traced_pass(workload, variants, args, pins, probe))
    else:
        # Child c of n runs variants c, c+n, c+2n, ... so that the run
        # as a whole covers them all.
        index, stride = args["index"], args["children"]
        started = time.perf_counter()
        while True:
            if probe is not None:
                probe.samples.clear()
            rep_started = time.perf_counter()
            record, kernel = timed_rep(workload, variants, index, kernel,
                                       pins)
            index += stride
            if probe is not None:
                record["late_ms"] = _late_summary(probe)
            out["reps"].append(record)
            now = time.perf_counter()
            if (now - started) + (now - rep_started) > budget:
                break
    if probe is not None:
        probe.remove()
    out["peak_rss_mb"] = peak_rss_mb()
    sys.stdout.write(PREFIX + json.dumps(out) + "\n")
    return 0


def _late_summary(probe) -> dict:
    from perfbench.probe import percentile
    late = probe.lateness_ms()
    return {"n": len(late), "p50": percentile(late, 50),
            "p90": percentile(late, 90), "p99": percentile(late, 99)}


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""``python -m perfbench``: every workload, every metric, three files.

Runs the untraced protocol over all eight workloads round-robin
(``w1 r1, w2 r1, ... w8 r1, w1 r2, ...`` so that host drift spreads
evenly over the workloads; round ``r`` uses seed ``--seed + r``), then
the traced pass, then the census, and writes ``e2e.json``,
``layers.json``, ``census.json`` and ``trace_<workload>.json`` to
``--out``. ``--sets 2`` is the agreement check: the untraced protocol
twice and nothing else, both medians side by side, exit 1 if a gated
metric moved by more than its bound, its spread exceeds its bound, or an
exact count differs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from perfbench.harness import ROOT, bootstrap
from perfbench.report import describe, dump_json, quartiles, spread
from perfbench.spec import (DEFAULT_SEED, END_TO_END, RUN_SECONDS, WORKLOADS,
                            per_layer)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="seconds one run of one workload measures")
    parser.add_argument("--rounds", type=int, default=1,
                        help="runs per workload; round r uses seed+r")
    parser.add_argument("--sets", type=int, default=1,
                        help="repeat the untraced protocol and compare")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: one child, one short repetition; "
                             "numbers are never recorded")
    parser.add_argument("--expected", help="alternative expected.json")
    parser.add_argument("--repin", action="store_true",
                        help="regenerate expected.json and exit")
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "out"))
    args = parser.parse_args(argv)
    bootstrap()
    if args.repin:
        from perfbench.checks import repin
        repin(args.expected)
        return 0

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seconds = 2.0 if args.quick else args.seconds
    status = 0

    sets = []
    for index in range(args.sets):
        started = time.time()
        summary = untraced_pass(args, seconds, out)
        summary["wall_s"] = time.time() - started
        sets.append(summary)
        suffix = f"_set{index + 1}" if args.sets > 1 else ""
        (out / f"e2e{suffix}.json").write_text(dump_json(summary))
        print_e2e(summary)
        status |= int(any(w["failed"] for w in summary["workloads"].values()))
    if args.sets > 1:
        return status | compare_sets(sets[0], sets[1])

    status |= traced_pass(args, seconds, out)
    from perfbench.census import run_census
    census = run_census(args.seed, quick=args.quick)
    (out / "census.json").write_text(dump_json(census))
    print_census(census)
    return status


# ----------------------------------------------------------------------
def untraced_pass(args, seconds: float, out: Path) -> dict:
    from perfbench.protocol import run_workload
    runs: dict = {name: [] for name in WORKLOADS}
    for r in range(args.rounds):
        for name in WORKLOADS:
            result = run_workload(name, args.seed + r, seconds,
                                  quick=args.quick, expected=args.expected,
                                  out=str(out))
            runs[name].append(result)
            print(describe(result, traced=False), flush=True)
    workloads = {}
    for name, results in runs.items():
        metrics = {}
        for metric, (unit, better, bound) in END_TO_END.items():
            values = [r.metrics[metric] for r in results]
            q1, median, q3 = quartiles(values)
            metrics[metric] = {"median": median, "q1": q1, "q3": q3,
                               "n": len(values), "unit": unit,
                               "spread": spread(values), "bound": bound,
                               "better": better, "values": values}
        attempted = sum(r.attempted for r in results)
        failed = sum(r.failed for r in results)
        workloads[name] = {
            "metrics": metrics, "attempted": attempted, "failed": failed,
            "ops_failed_ratio": failed / attempted,
            "notes": sorted({n for r in results for n in r.notes}),
            "exact": {str(r.seed): _exact(r) for r in results},
            "raw": [_raw(r) for r in results],
        }
    return {"seed": args.seed, "rounds": args.rounds, "seconds": seconds,
            "quick": args.quick, "transport": "loopback",
            "workloads": workloads}


def _exact(result) -> dict:
    """What must repeat exactly for one (workload, seed): per variant
    run, its fingerprint and its packet, frame and event counts."""
    exact = {}
    for child in result.detail["children"]:
        for rep in child["reps"]:
            if rep["fingerprint"] is not None:
                exact[str(rep["variant"])] = {
                    "fingerprint": rep["fingerprint"],
                    "packets": rep["packets"], "frames": rep["frames"],
                    "events": rep["events"]}
    return dict(sorted(exact.items()))


def _raw(result) -> dict:
    """Uncalibrated numbers of one run, for reading next to the medians."""
    children = result.detail["children"]
    return {"seed": result.seed,
            "setup_s": [c["setup_s"] for c in children],
            "columns": ["child", "variant", "cpu_s", "wall_s", "kernel_s",
                        "packets", "frames", "sim_seconds"],
            "reps": [[i, r["variant"], r["cpu_s"], r["wall_s"], r["kernel_s"],
                      r["packets"], r["frames"], r["sim_seconds"]]
                     for i, c in enumerate(children) for r in c["reps"]],
            "late_ms": [r["late_ms"] for c in children for r in c["reps"]
                        if "late_ms" in r]}


def print_e2e(summary: dict) -> None:
    print(f"\nend-to-end, median of {summary['rounds']} run(s) "
          f"[q1..q3], seeds {summary['seed']}.."
          f"{summary['seed'] + summary['rounds'] - 1}; times are calibrated "
          f"seconds; traffic over {summary['transport']}")
    for name, entry in summary["workloads"].items():
        print(f"{name}: ops_failed_ratio {entry['ops_failed_ratio']:g} "
              f"({entry['failed']}/{entry['attempted']})")
        for note in entry["notes"]:
            print(f"  ! {note}")
        for metric, m in entry["metrics"].items():
            print(f"  {metric:<18}{m['median']:>12.5g} {m['unit']:<4}"
                  f" [{m['q1']:.5g}..{m['q3']:.5g}] n={m['n']}"
                  f" spread {m['spread']:.3f} bound {m['bound']:g}")


def compare_sets(first: dict, second: dict) -> int:
    """Print both medians per workload x metric; 1 if they disagree."""
    status = 0
    print("\nagreement: set 1 vs set 2 (worse = in the metric's bad "
          "direction)")
    print(f"{'workload':<18}{'metric':<18}{'set1':>11}{'set2':>11}"
          f"{'worse by':>10}{'spread1':>9}{'spread2':>9}{'bound':>7}")
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        for metric, ma in a["metrics"].items():
            mb = b["metrics"][metric]
            change = (mb["median"] - ma["median"]) / ma["median"]
            worse = change if ma["better"] == "lower" else -change
            spreads = (ma["spread"], mb["spread"])
            bad = worse > ma["bound"] or (
                metric != "setup_s" and max(spreads) > ma["bound"])
            status |= int(bad)
            print(f"{name:<18}{metric:<18}{ma['median']:>11.5g}"
                  f"{mb['median']:>11.5g}{worse:>+10.3f}{spreads[0]:>9.3f}"
                  f"{spreads[1]:>9.3f}{ma['bound']:>7g}"
                  + ("  MISSED" if bad else ""))
        for seed, variants in a["exact"].items():
            # Which variants a run reaches depends on how many
            # repetitions fit, so compare the ones both sets ran.
            other = b["exact"].get(seed, {})
            if any(variants[j] != other[j] for j in variants if j in other):
                status = 1
                print(f"{name} seed {seed}: exact counts differ between "
                      "the sets")
    print("agreement: " + ("FAILED" if status else "ok, and every fingerprint,"
                           " packet, frame and event count repeats exactly"))
    return status


# ----------------------------------------------------------------------
def traced_pass(args, seconds: float, out: Path) -> int:
    from perfbench.protocol import run_workload
    layers = {}
    status = 0
    for name in WORKLOADS:
        result = run_workload(name, args.seed, seconds, trace=True,
                              quick=args.quick, expected=args.expected,
                              out=str(out))
        print(describe(result, traced=True), flush=True)
        child = result.detail["child"]
        layers[name] = {"metrics": result.metrics, "notes": result.notes,
                        "attempted": result.attempted,
                        "failed": result.failed,
                        "fallback_reason": child["fallback_reason"],
                        "trace_file": Path(child["trace_file"]).name}
        status |= int(result.failed > 0)
    units = {name: unit for name, (unit, _b) in per_layer().items()}
    (out / "layers.json").write_text(dump_json(
        {"seed": args.seed, "quick": args.quick, "units": units,
         "workloads": layers}))
    return status


def print_census(census: dict) -> None:
    print("\nengine agreement (worst relative headline divergence, batch "
          "vs reference, unobserved):")
    for row in census["engine_divergence"]:
        print(f"  {row['input']:<34}{row['divergence_rel']:>12.3g}"
              f"  fallback: {row['fallback_reason'] or '-'}")
    print("batch eligibility by reason (scenario x baseline cells):")
    for reason, count in census["fallback_counts"].items():
        print(f"  {count:>4}  {reason}")


if __name__ == "__main__":
    sys.exit(main())

"""The driver's entry point: one run of one workload, one JSON last line.

    python3 perfbench/run.py --workload ref_packet --seed 3 \\
        --seconds 10 --trace 0

prints progress for people first and, as its last line, the object the
contract asks for: ``correct``, ``attempted``, ``failed`` and every
end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``). It exits non-zero, printing no result, when the
program to measure is not there.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# Run as a script, so the checkout is not on sys.path yet.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.harness import bootstrap  # noqa: E402
from perfbench.spec import RUN_SECONDS, WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    from perfbench.protocol import run_workload
    from perfbench.report import describe

    result = run_workload(args.workload, args.seed, args.seconds,
                          trace=bool(args.trace))
    print(describe(result, traced=bool(args.trace)))
    print(result.last_line(traced=bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""binprod benchmark: seeded workloads against the public API, checked exactly.

    python3 bench/run.py --workload dense-den --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --grid

A workload run prints report lines and, as its last line, one JSON object
with "correct", "attempted", "failed" and "metrics".  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run wraps each layer's
entry points and reports per-layer metrics instead.  --grid prints the
product x method x degree baseline grid; it gates nothing.  See README.md
in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys

import bench_harness
import bench_workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=bench_workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--grid", action="store_true", help="print the baseline grid instead")
    args = parser.parse_args(argv)
    if args.grid == (args.workload is not None):
        parser.error("give exactly one of --workload and --grid")
    try:
        if args.grid:
            print(json.dumps(bench_harness.grid()))
            return 0
        run = bench_harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except bench_harness.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(run["lines"]))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A traced run also writes its spans to
``perfbench/_work/trace-<workload>-<seed>.json``.  Exits with code 2,
printing no result, when the fuzzyrel sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("classmode", "thresholdmode", "cli")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fuzzyrel benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fuzzyrel" / "__init__.py").is_file():
        print(f"error: no fuzzyrel sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # needs the fuzzyrel sources on the path

    work = workloads.WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = workloads.WORKLOADS[args.workload](
            args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for note in run.notes:
        print(note)
    for name, (value, unit) in run.metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed {run.failed} of {run.attempted} attempted "
          f"(error rate {run.failed / run.attempted:g})")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

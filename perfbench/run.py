#!/usr/bin/env python3
"""Run one lmn benchmark workload; the last line of stdout is the result as JSON.

    python3 perfbench/run.py --workload {train,prefill,generate} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout: lmn is imported from its src/ directory.
BLAS is pinned to one thread before numpy loads. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer ones; --smoke runs tiny shapes.
"""

import time

_STARTED = time.perf_counter()

import argparse
import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("train", "prefill", "generate"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny shapes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "lmn" / "__init__.py").is_file():
        print(f"error: no lmn package under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import lmn
    if Path(lmn.__file__).resolve().parent != src / "lmn":
        print(f"error: imported lmn from {lmn.__file__}, not from {src}", file=sys.stderr)
        return 2

    from perfbench import harness, workloads

    shapes = workloads.SMOKE if args.smoke else workloads.FULL
    out = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), shapes,
                      started=_STARTED)
    detail = out.pop("detail")
    print("environment: " + json.dumps(detail["environment"]))
    for v, counts in detail["per_model"].items():
        print(f"model {v}: attempted {counts['attempted']} failed {counts['failed']}")
    for failure in detail["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

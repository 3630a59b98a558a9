"""Run one benchmark workload and print its metrics.

    python3 e2ebench/run.py --workload serve-uniform --seed 3 --seconds 25 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` runs the workload under the
span-recording launcher (``tracing.py``) and reports the per-layer
metrics instead.  Human-readable diagnostics go to earlier lines; the
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every checked answer was correct, 1 when one was
not, and 2 when the checkout holds no program to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import common

WORKLOADS = ("train", "serve-uniform", "serve-live")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.require_program()
    # Before numpy loads: the oracles here run with the children's threads.
    os.environ.update(common.THREAD_ENV)
    os.makedirs(common.OUT, exist_ok=True)
    started = time.perf_counter()
    if args.workload == "train":
        import training

        result = training.run(args.seed, args.seconds, bool(args.trace))
    else:
        import serving

        result = serving.run(args.workload, args.seed, args.seconds, bool(args.trace))
    diagnostics = result.pop("diagnostics", {})
    diagnostics["wall_s"] = time.perf_counter() - started
    report = os.path.join(
        common.OUT, "reports",
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
    )
    os.makedirs(os.path.dirname(report), exist_ok=True)
    with open(report, "w") as handle:
        json.dump({**result, "diagnostics": diagnostics}, handle, indent=1)
    print("e2ebench diagnostics: " + json.dumps(diagnostics), flush=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

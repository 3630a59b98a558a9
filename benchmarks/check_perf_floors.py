#!/usr/bin/env python
"""CI perf-guard: verify recorded measurements against their floors/ceilings.

Reads the benchmark reports written under ``benchmarks/out/`` — each
benchmark records its measurement *and* its regression bound — and exits
non-zero if any bound is violated or a report is missing/incomplete.
Entries carry either a ``speedup``/``floor`` pair (ratios that must stay
high) or a ``value``/``ceiling`` pair (gauges that must stay low, e.g.
resident bytes).  Guarded reports:

* ``BENCH_sampling.json`` (``test_perf_sampling.py``): the batch kernels
  vs their scalar reference loops (whole-task IBS PPR, PPR at
  ``/ppr``-sized 8-target and one-target windows, ego BFS, the
  multi-bound SPARQL join, and k-hop path enumeration vs its DFS oracle).
* ``BENCH_serving.json`` (``test_perf_serving.py``): the coalescing
  scheduler vs the serial one-request-at-a-time serving baseline, the
  HTTP/SPARQL front end vs the same serial baseline (the coalescing win
  must survive the wire), the multi-process sharded worker pool vs
  the same serial baseline (the win must survive the process boundary),
  batched ``/predict`` model inference vs its scalar one-request
  oracle, and coalesced ``/paths`` enumeration vs its serial scalar-DFS
  baseline.  The distributed tier's 1 -> 2 worker scaling ratio is
  recorded in the same report but not guarded: on small hosts it
  measures scheduler noise, not placement.
* ``BENCH_artifacts.json`` (``test_perf_artifacts.py``): worker warm time
  off the memory-mapped artifact store vs pickled-graph registration,
  and the per-worker resident-memory ceiling of the zero-copy path.
* ``BENCH_live.json`` (``test_perf_live.py``): one live-graph epoch
  extension (incremental CSR/hexastore merges) vs a cold artifact
  rebuild at the same epoch, and the delta-aware warm-``/ppr`` refresh
  after a localized ingest vs recomputing every retained target.
* ``BENCH_training.json`` (``test_perf_training.py``): the backward pass
  and Adam step of GraphSAINT on MAG-large KG′ with row-sparse embedding
  gradients and in-place Adam vs the dense oracle they replaced.

Run after the perf benchmarks::

    PYTHONPATH=src python -m pytest -q benchmarks/test_perf_sampling.py \
        benchmarks/test_perf_serving.py benchmarks/test_perf_artifacts.py \
        benchmarks/test_perf_live.py benchmarks/test_perf_training.py
    python benchmarks/check_perf_floors.py            # all reports
    python benchmarks/check_perf_floors.py BENCH_serving.json   # one report

Bounds are maintained next to each benchmark (``FLOORS`` in
``test_perf_sampling.py``, ``FLOOR`` in ``test_perf_serving.py``,
``WARM_FLOOR``/``RESIDENT_CEILING`` in ``test_perf_artifacts.py``,
``EXTEND_FLOOR``/``REFRESH_FLOOR`` in ``test_perf_live.py``,
``ROW_SPARSE_FLOOR`` in ``test_perf_training.py``) — see
``docs/ci.md`` for the update policy.
"""

import json
import os
import sys

REPORTS = {
    "BENCH_sampling.json": (
        "ibs_influence_scoring",
        "ppr_serving_window",
        "ppr_single_target",
        "shadow_ego_bfs",
        "sparql_multi_bound_join",
        "path_enum_batch",
    ),
    "BENCH_serving.json": (
        "serving_coalesced_throughput",
        "serving_http_throughput",
        "serving_pool_throughput",
        "serving_predict_throughput",
        "serving_paths_throughput",
    ),
    "BENCH_artifacts.json": (
        "artifact_warm_time",
        "artifact_resident_memory",
    ),
    "BENCH_live.json": (
        "live_epoch_extend",
        "live_ppr_refresh",
    ),
    "BENCH_training.json": ("train_step_row_sparse",),
}

# Where the perf benchmarks write (benchmarks/conftest.py::REPORT_DIR); the
# committed ledger in benchmarks/reports/ is refreshed from here by hand.
REPORT_DIR = os.path.join(os.path.dirname(__file__), "out")


def check_report(path: str, expected) -> list:
    """Print one report's floor checks; return the failing benchmark names."""
    if not os.path.exists(path):
        print(f"perf-guard: {path} not found — run the perf benchmarks first")
        return [f"{os.path.basename(path)} (missing)"]
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    benchmarks = data.get("benchmarks", {})
    failures = []
    for name in expected:
        entry = benchmarks.get(name)
        if entry is None:
            print(f"{name:30s} MISSING from report")
            failures.append(name)
            continue
        if "ceiling" in entry:
            value, ceiling = entry["value"], entry["ceiling"]
            ok = value <= ceiling
            status = "ok" if ok else "ABOVE CEILING"
            print(
                f"{name:30s} value {value / 1e6:8.2f} MB"
                f"  ceiling {ceiling / 1e6:.2f} MB  {status}"
            )
        else:
            speedup, floor = entry["speedup"], entry["floor"]
            ok = speedup >= floor
            status = "ok" if ok else "BELOW FLOOR"
            print(f"{name:30s} speedup {speedup:6.2f}x  floor {floor:.2f}x  {status}")
        if not ok:
            failures.append(name)
    return failures


def main(argv=None) -> int:
    selected = argv if argv else sorted(REPORTS)
    failures = []
    for report_name in selected:
        expected = REPORTS.get(report_name)
        if expected is None:
            print(f"perf-guard: unknown report {report_name!r}; know {sorted(REPORTS)}")
            return 2
        failures.extend(check_report(os.path.join(REPORT_DIR, report_name), expected))
    if failures:
        print(f"perf-guard: {len(failures)} benchmark(s) regressed: {', '.join(failures)}")
        return 1
    print("perf-guard: all recorded measurements within their bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Artifact-store benchmark: mmap worker startup vs pickled-graph shipping.

Two guarantees of the zero-copy serving path (``repro/kg/store.py``) are
measured on the ``mag`` *large* catalog graph and recorded — with their
regression floors/ceilings — in ``out/BENCH_artifacts.json``, which
``check_perf_floors.py`` re-checks in the CI ``perf-guard`` and ``serve``
jobs:

* **artifact_warm_time** — how fast a pool worker becomes ready to serve.
  The baseline is what plain registration costs per worker: pickle the
  graph, unpickle it worker-side, and warm the CSR projection.  The mmap
  path is one ``open_artifacts`` call: parse the header and wrap read-only
  views (vocabularies decode lazily; array pages fault in on demand).
  The recorded speedup must stay above ``WARM_FLOOR``.

* **artifact_resident_memory** — what a worker *keeps resident* per graph.
  A pickled-graph worker owns private copies of every array; an mmap
  worker owns only file-backed pages shared with every other mapper, so
  its private (heap) artifact bytes must stay under ``RESIDENT_CEILING``
  regardless of graph size.  Measured through a live 2-worker pool via
  the piggybacked worker stats (the same gauge ``/metrics`` exports),
  so the guard covers the real serving path, not a model.
"""

import json
import os
import pickle
import statistics
import time

from repro.datasets import catalog
from repro.kg.cache import artifacts_for
from repro.kg.store import open_artifacts, save_artifacts
from repro.serve import WorkerPool

SCALE = "large"
WARM_ROUNDS = 5

# Observed ~10-15x on mag "large" (pickle round-trip + CSR build vs one
# header parse).  The floor sits far below per the docs/ci.md policy —
# but still guarantees the startup win the zero-copy path exists for.
WARM_FLOOR = 3.0

# An mmap worker's private artifact bytes are O(1) in graph size: the
# ceiling is absolute, not relative.  mag "large" maps ~19 MB of shared
# sections; a worker keeping >1 MiB of them privately resident means the
# zero-copy path regressed into copying.
RESIDENT_CEILING = 1 << 20

_REPORT_NAME = "BENCH_artifacts.json"


def _merge_benchmark(report_dir, name, entry):
    """Insert one benchmark entry into the shared artifacts report."""
    path = os.path.join(report_dir, _REPORT_NAME)
    payload = {"benchmarks": {}}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    payload.setdefault("benchmarks", {})[name] = entry
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)


def _median_seconds(callable_, rounds=WARM_ROUNDS):
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        callable_()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def test_perf_artifact_warm_time(benchmark, report, report_dir, tmp_path):
    bundle = catalog.mag(SCALE, 7)
    kg = bundle.kg
    store_dir = str(tmp_path / "store")
    save_artifacts(kg, store_dir)  # also pre-builds the baseline's CSR inputs

    def pickled_worker_startup():
        # The baseline: shipping a pickled graph to each worker, which
        # unpickles and warms the CSR projection before it can serve.
        clone = pickle.loads(pickle.dumps(kg))
        artifacts_for(clone).warm(("csr",))

    def mmap_worker_startup():
        open_artifacts(store_dir)

    def measure():
        baseline = _median_seconds(pickled_worker_startup)
        mapped = _median_seconds(mmap_worker_startup)
        return baseline, mapped, baseline / mapped

    baseline, mapped, speedup = benchmark.pedantic(measure, rounds=1, iterations=1)

    report(
        "perf_artifact_warm_time",
        (
            f"worker warm time on {kg.name} ({kg.num_nodes} nodes, "
            f"{kg.num_edges} edges):\n"
            f"  pickled registration  {baseline * 1e3:8.2f} ms\n"
            f"  mmap open_artifacts   {mapped * 1e3:8.2f} ms\n"
            f"  -> {speedup:.1f}x (floor {WARM_FLOOR}x)"
        ),
    )

    assert speedup >= WARM_FLOOR, (
        f"mmap worker startup only {speedup:.2f}x faster than pickled "
        f"registration (floor {WARM_FLOOR}x)"
    )

    _merge_benchmark(
        report_dir,
        "artifact_warm_time",
        {
            "graph": kg.name,
            "scale": SCALE,
            "nodes": kg.num_nodes,
            "edges": kg.num_edges,
            "rounds": WARM_ROUNDS,
            "baseline_ms": baseline * 1e3,
            "mmap_ms": mapped * 1e3,
            "speedup": speedup,
            "floor": WARM_FLOOR,
        },
    )


def test_perf_artifact_resident_memory(benchmark, report, report_dir, tmp_path):
    bundle = catalog.mag(SCALE, 7)
    kg = bundle.kg
    store_dir = str(tmp_path / "store")
    save_artifacts(kg, store_dir)

    # What one pickled-graph worker would keep privately resident: the
    # warmed artifact arrays plus its copy of the raw graph columns.
    baseline_clone = pickle.loads(pickle.dumps(kg))
    baseline_artifacts = artifacts_for(baseline_clone)
    baseline_artifacts.warm(("csr",))
    baseline_clone.hexastore.materialize()
    baseline_resident = baseline_artifacts.nbytes() + baseline_clone.nbytes()

    def measure():
        with WorkerPool(workers=2) as pool:
            pool.register("mag", open_artifacts(store_dir).kg, mmap_dir=store_dir)
            pool.call("ppr", {"graph": "mag", "targets": [0], "k": 8,
                              "alpha": 0.25, "eps": 2e-4})
            stats = pool.graph_stats("mag")["artifact_cache"]
        # nbytes sums the live workers' private artifact bytes: per-worker
        # resident is that sum over the worker count.
        return stats["nbytes"] / 2, stats["mapped_nbytes"]

    per_worker_resident, mapped_nbytes = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )

    report(
        "perf_artifact_resident_memory",
        (
            f"per-worker resident artifact bytes on {kg.name}:\n"
            f"  mmap worker (private)     {per_worker_resident / 1e6:8.2f} MB "
            f"(ceiling {RESIDENT_CEILING / 1e6:.2f} MB)\n"
            f"  shared mapped sections    {mapped_nbytes / 1e6:8.2f} MB\n"
            f"  pickled worker would hold {baseline_resident / 1e6:8.2f} MB privately"
        ),
    )

    assert mapped_nbytes > 0, "workers did not serve off the mapping"
    assert per_worker_resident <= RESIDENT_CEILING, (
        f"mmap worker keeps {per_worker_resident / 1e6:.2f} MB of artifact "
        f"bytes privately resident (ceiling {RESIDENT_CEILING / 1e6:.2f} MB)"
    )

    _merge_benchmark(
        report_dir,
        "artifact_resident_memory",
        {
            "graph": kg.name,
            "scale": SCALE,
            "workers": 2,
            "value": per_worker_resident,
            "ceiling": RESIDENT_CEILING,
            "mapped_nbytes": mapped_nbytes,
            "pickled_resident_nbytes": baseline_resident,
        },
    )

"""Serving benchmark: coalescing scheduler vs serial one-at-a-time baseline.

A closed-loop load generator (``repro.serve.loadgen``) keeps ``CONCURRENCY``
extraction requests in flight against one registered catalog graph and
drains ``REQUESTS`` PPR-influence requests through two service
configurations:

* **serial** — ``coalesce=False``: every request runs the scalar oracle
  kernel alone, one request at a time (the no-serving-layer baseline).
* **coalesced** — the micro-batching scheduler merges requests that arrive
  while a batch runs into ``batch_ppr_top_k`` calls of up to 64 targets.

Results must be *bit-identical* between the two modes (enforced inside
``compare_serving``; the batch kernels are bit-exact against their
scalar oracles, so coalescing is a pure throughput win).  A second
benchmark drives the same request sequence through the **HTTP front end**
(``serve/http.py``) over real sockets and checks the coalescing win
survives the wire; a third runs the coalesced batches on the
**multi-process worker pool** (``serve/pool.py``) and checks the win
survives the process boundary (pickled parameters out, numpy result
buffers back).  All three ratios share the same serial single-process
baseline, so they are directly comparable.  A ``/predict`` benchmark
guards batched model inference against its scalar oracle, and a scaling
benchmark records the **distributed tier's efficiency**: the same coalesced load
on a width-2 worker pool vs a width-1 pool (bit-identical answers
enforced; skipped on single-core hosts, where a second worker has no
core to run on; the ratio itself is recorded unguarded).  The measured
throughput ratios and their regression floors are recorded in
``out/BENCH_serving.json`` and re-checked by ``check_perf_floors.py``
in the CI ``serve`` job; the full metrics
snapshot (queue depth, batch occupancy, tail latency, cache hits) is
dumped to ``out/serving_metrics.json`` as a CI artifact.
"""

import json
import os

import numpy as np
import pytest

from repro.bench.harness import render_table
from repro.datasets import catalog
from repro.serve import WorkerPool, compare_serving, run_load
from repro.serve.loadgen import ROW_HEADERS

# Acceptance regime: >= 64 requests in flight on a catalog graph.
CONCURRENCY = 64
REQUESTS = 512
TOP_K = 16
MAX_BATCH = 64

# Regression floor for the coalesced/serial throughput ratio, recorded into
# BENCH_serving.json next to the measurement.  Observed ~4-5x on the mag
# "small" catalog graph; the floor sits at half per the docs/ci.md policy so
# a noisy single-round CI timing cannot flake, while still guaranteeing the
# scheduler beats serial dispatch by a wide margin.
FLOOR = 2.0

# Floor for the HTTP front end vs the in-process serial baseline: the
# coalescing win must survive crossing a real socket (HTTP parsing + JSON
# serialization per request).  Observed ~3-3.5x on mag "small"; half per
# the same policy.
HTTP_FLOOR = 1.5

# Floor for the multi-process worker pool vs the same in-process serial
# baseline: the coalescing win must survive the process boundary (request
# parameters pickled out, numpy result buffers pickled back).  Observed
# ~4x on a single-core host — where the pool can only preserve the
# batching win, not add parallelism; multi-core hosts scale further with
# POOL_WORKERS.  Half-ish per the docs/ci.md policy, aligned with the
# HTTP floor so the three serving ratios stay comparable.
POOL_FLOOR = 1.5
POOL_WORKERS = 2

# Width of the scaled pool in the distributed-tier scaling run (vs a
# width-1 pool).  Its ratio is recorded unguarded: on a 2-core host the
# parent and two workers share the cores, and the 1 -> 2 ratio of this
# ~0.4 s load ranges 0.74x-1.22x run to run, so a floor would measure
# the OS scheduler, not placement.
SCALING_WORKERS = 2

# Floor for batched /predict inference vs the scalar one-request oracle:
# the coalescer's extraction→inference pipeline answers micro-batched
# model queries (one vectorized forward/gather per window) while the
# baseline recomputes a full forward pass per request.  Observed ~180x
# on mag "small"; the floor sits an order of magnitude below that —
# further than the docs/ci.md half-the-observed policy — because the
# ratio scales with the model size the checkpoint happens to carry.
# 10x still proves the batching + logits-cache mechanism works.
PREDICT_FLOOR = 10.0

# Floor for coalesced /paths serving vs the serial scalar-DFS baseline:
# the micro-batched path-enumeration kernel (plus the live graph's
# per-pair cache) must beat one-request-at-a-time DFS even though each
# answer is a variable-length list of paths.  Observed ~4-8x on mag
# "small" random target pairs; 1.5x per the half-the-observed policy,
# aligned with the other front-end floors.
PATHS_FLOOR = 1.5
PATHS_REQUESTS = 256
PATHS_MAX_HOPS = 3
PATHS_MAX_PATHS = 64

_REPORT_NAME = "BENCH_serving.json"
_METRICS_NAME = "serving_metrics.json"


def _merge_benchmark(report_dir, name, entry):
    """Insert one benchmark entry into the shared serving report."""
    path = os.path.join(report_dir, _REPORT_NAME)
    payload = {"benchmarks": {}}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    payload.setdefault("benchmarks", {})[name] = entry
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)


def test_perf_serving_coalesced_vs_serial(benchmark, report, report_dir):
    bundle = catalog.mag("small", 7)
    task = bundle.task("PV")
    rng = np.random.default_rng(7)
    targets = rng.choice(task.target_nodes, size=REQUESTS, replace=True)
    requests = [{"op": "ppr", "target": int(t), "k": TOP_K} for t in targets]

    # Warm the shared artifacts and code paths outside the measured runs
    # (the first service otherwise pays one-off numpy/import costs).
    run_load(bundle.kg, requests[:CONCURRENCY], concurrency=CONCURRENCY)

    def measure():
        return compare_serving(
            bundle.kg,
            requests,
            {"coalesce": False},
            {"coalesce": True},
            concurrency=CONCURRENCY,
            max_batch=MAX_BATCH,
        )

    serial, coalesced, speedup = benchmark.pedantic(measure, rounds=1, iterations=1)

    report(
        "perf_serving",
        render_table(
            ROW_HEADERS,
            [serial.as_row(), coalesced.as_row()],
            title=(
                f"closed-loop serving on {bundle.kg.name}: "
                f"{CONCURRENCY} in flight, batches of up to {MAX_BATCH} "
                f"-> {speedup:.1f}x"
            ),
        ),
    )

    # The closed loop really ran at the acceptance concurrency, coalescing
    # really formed multi-request batches, and nothing was shed.
    assert coalesced.batch_occupancy > 1.0
    assert serial.rejected == 0 and coalesced.rejected == 0
    assert speedup >= FLOOR, (
        f"coalescing scheduler only {speedup:.2f}x over the serial baseline "
        f"(floor {FLOOR}x)"
    )

    _merge_benchmark(
        report_dir,
        "serving_coalesced_throughput",
        {
            "graph": bundle.kg.name,
            "task": "PV",
            "top_k": TOP_K,
            "concurrency": CONCURRENCY,
            "requests": REQUESTS,
            "max_batch": MAX_BATCH,
            "speedup": speedup,
            "floor": FLOOR,
            "serial": serial.as_json(),
            "coalesced": coalesced.as_json(),
        },
    )
    with open(os.path.join(report_dir, _METRICS_NAME), "w", encoding="utf-8") as handle:
        json.dump(coalesced.metrics, handle, indent=2)


def test_perf_serving_http_front_end(benchmark, report, report_dir):
    """The HTTP/SPARQL front end must retain the coalescing win on the wire."""
    bundle = catalog.mag("small", 7)
    task = bundle.task("PV")
    rng = np.random.default_rng(7)
    targets = rng.choice(task.target_nodes, size=REQUESTS, replace=True)
    requests = [{"op": "ppr", "target": int(t), "k": TOP_K} for t in targets]

    # Warm artifacts and code paths outside the measured runs.
    run_load(bundle.kg, requests[:CONCURRENCY], concurrency=CONCURRENCY)

    def measure():
        return compare_serving(
            bundle.kg,
            requests,
            {"coalesce": False},
            {"http": True},
            concurrency=CONCURRENCY,
            max_batch=MAX_BATCH,
        )

    serial, over_http, speedup = benchmark.pedantic(measure, rounds=1, iterations=1)

    report(
        "perf_serving_http",
        render_table(
            ROW_HEADERS,
            [serial.as_row(), over_http.as_row()],
            title=(
                f"closed-loop HTTP serving on {bundle.kg.name}: "
                f"{CONCURRENCY} connections -> {speedup:.1f}x over in-process serial"
            ),
        ),
    )

    # The wire loop really coalesced and nothing was shed.
    assert over_http.batch_occupancy > 1.0
    assert over_http.rejected == 0
    assert speedup >= HTTP_FLOOR, (
        f"HTTP front end only {speedup:.2f}x over the serial baseline "
        f"(floor {HTTP_FLOOR}x)"
    )

    _merge_benchmark(
        report_dir,
        "serving_http_throughput",
        {
            "graph": bundle.kg.name,
            "task": "PV",
            "top_k": TOP_K,
            "concurrency": CONCURRENCY,
            "requests": REQUESTS,
            "max_batch": MAX_BATCH,
            "speedup": speedup,
            "floor": HTTP_FLOOR,
            "serial": serial.as_json(),
            "http": over_http.as_json(),
        },
    )


def test_perf_serving_worker_pool(benchmark, report, report_dir):
    """The sharded worker pool must retain the coalescing win across processes.

    The serial baseline is the same single-process scalar-oracle service
    the other two serving benchmarks use, so `serving_pool_throughput`
    is directly comparable with `serving_coalesced_throughput` and
    `serving_http_throughput`.  Pool startup and the one-time graph
    shipment happen outside the timed windows (see compare_serving).
    """
    bundle = catalog.mag("small", 7)
    task = bundle.task("PV")
    rng = np.random.default_rng(7)
    targets = rng.choice(task.target_nodes, size=REQUESTS, replace=True)
    requests = [{"op": "ppr", "target": int(t), "k": TOP_K} for t in targets]

    # Warm the in-process paths outside the measured runs (the pooled
    # path warms inside compare_serving, before its timed window).
    run_load(bundle.kg, requests[:CONCURRENCY], concurrency=CONCURRENCY)

    def measure():
        with WorkerPool(workers=POOL_WORKERS) as pool:
            return compare_serving(
                bundle.kg,
                requests,
                {"coalesce": False},
                {"pool": pool},
                concurrency=CONCURRENCY,
                max_batch=MAX_BATCH,
            )

    serial, pooled, speedup = benchmark.pedantic(measure, rounds=1, iterations=1)

    report(
        "perf_serving_pool",
        render_table(
            ROW_HEADERS,
            [serial.as_row(), pooled.as_row()],
            title=(
                f"closed-loop pooled serving on {bundle.kg.name}: "
                f"{POOL_WORKERS} workers, {CONCURRENCY} in flight "
                f"-> {speedup:.1f}x over single-process serial"
            ),
        ),
    )

    # The pooled loop really coalesced across the process boundary and
    # nothing was shed.
    assert pooled.batch_occupancy > 1.0
    assert serial.rejected == 0 and pooled.rejected == 0
    assert speedup >= POOL_FLOOR, (
        f"worker pool only {speedup:.2f}x over the single-process serial "
        f"baseline (floor {POOL_FLOOR}x)"
    )

    _merge_benchmark(
        report_dir,
        "serving_pool_throughput",
        {
            "graph": bundle.kg.name,
            "task": "PV",
            "top_k": TOP_K,
            "concurrency": CONCURRENCY,
            "requests": REQUESTS,
            "workers": POOL_WORKERS,
            "max_batch": MAX_BATCH,
            "speedup": speedup,
            "floor": POOL_FLOOR,
            "serial": serial.as_json(),
            "pooled": pooled.as_json(),
        },
    )


def test_perf_serving_paths_throughput(benchmark, report, report_dir):
    """Coalesced /paths serving vs the serial scalar-DFS baseline.

    A closed loop keeps CONCURRENCY path-enumeration requests in flight
    over random ``(src, dst)`` target pairs; the serial service answers
    each with the retained per-request DFS oracle, the coalesced service
    micro-batches compatible requests into single
    ``LiveGraph.paths_batch`` calls.  Answers are bit-identical at every
    request position (asserted inside ``compare_serving``) — the
    recorded ratio is the pure scheduling + batch-kernel win the
    ``serving_paths_throughput`` floor guards.
    """
    bundle = catalog.mag("small", 7)
    task = bundle.task("PV")
    rng = np.random.default_rng(7)
    targets = np.asarray(task.target_nodes, dtype=np.int64)
    requests = [
        {"op": "paths", "src": int(src), "dst": int(dst),
         "max_hops": PATHS_MAX_HOPS, "max_paths": PATHS_MAX_PATHS}
        for src, dst in zip(
            rng.choice(targets, size=PATHS_REQUESTS, replace=True),
            rng.choice(targets, size=PATHS_REQUESTS, replace=True),
        )
    ]

    # Warm the shared artifacts and both code paths outside the measured
    # runs (fresh services inside the comparison start with cold caches).
    run_load(bundle.kg, requests[:CONCURRENCY], concurrency=CONCURRENCY)

    def measure():
        return compare_serving(
            bundle.kg,
            requests,
            {"coalesce": False},
            {"coalesce": True},
            concurrency=CONCURRENCY,
            max_batch=MAX_BATCH,
        )

    serial, coalesced, speedup = benchmark.pedantic(measure, rounds=1, iterations=1)

    report(
        "perf_serving_paths",
        render_table(
            ROW_HEADERS,
            [serial.as_row(), coalesced.as_row()],
            title=(
                f"closed-loop /paths serving on {bundle.kg.name}: "
                f"{CONCURRENCY} in flight, max_hops={PATHS_MAX_HOPS} "
                f"-> {speedup:.1f}x over the scalar-DFS serial baseline"
            ),
        ),
    )

    assert coalesced.batch_occupancy > 1.0
    assert serial.rejected == 0 and coalesced.rejected == 0
    assert speedup >= PATHS_FLOOR, (
        f"coalesced /paths only {speedup:.2f}x over the serial baseline "
        f"(floor {PATHS_FLOOR}x)"
    )

    _merge_benchmark(
        report_dir,
        "serving_paths_throughput",
        {
            "graph": bundle.kg.name,
            "task": "PV",
            "max_hops": PATHS_MAX_HOPS,
            "max_paths": PATHS_MAX_PATHS,
            "concurrency": CONCURRENCY,
            "requests": PATHS_REQUESTS,
            "max_batch": MAX_BATCH,
            "speedup": speedup,
            "floor": PATHS_FLOOR,
            "serial": serial.as_json(),
            "paths-coalesced": coalesced.as_json(),
        },
    )


def test_perf_serving_distributed_scaling(benchmark, report, report_dir, tmp_path):
    """Scaling efficiency of widening the worker tier from 1 to 2.

    Both pools serve the same coalesced closed-loop load off the same
    memory-mapped artifact store; with no replica cap every worker owns
    the graph, so routing fans the coalesced batches round-robin across
    the tier.  Answers are bit-identical by construction (asserted inside
    ``compare_serving``) and nothing may be rejected; the
    throughput ratio is recorded without a floor (see
    ``SCALING_WORKERS``).
    """
    from repro.kg.store import save_artifacts

    cores = len(os.sched_getaffinity(0))
    if cores < SCALING_WORKERS:
        # A second worker cannot absorb load without a second core; the
        # ratio would measure the scheduler, not scaling.
        pytest.skip(f"scaling needs >= {SCALING_WORKERS} cores, host has {cores}")

    bundle = catalog.mag("small", 7)
    task = bundle.task("PV")
    rng = np.random.default_rng(7)
    targets = rng.choice(task.target_nodes, size=REQUESTS, replace=True)
    requests = [{"op": "ppr", "target": int(t), "k": TOP_K} for t in targets]
    store = str(tmp_path / "store")
    save_artifacts(bundle.kg, store)

    # Warm the in-process paths (artifact build, kernels) outside the
    # timed windows; each pool additionally warms inside the comparison.
    run_load(bundle.kg, requests[:CONCURRENCY], concurrency=CONCURRENCY)

    def measure():
        with WorkerPool(workers=1) as single_pool, WorkerPool(
            workers=SCALING_WORKERS
        ) as scaled_pool:
            single, scaled, efficiency = compare_serving(
                bundle.kg,
                requests,
                {"pool": single_pool},
                {"pool": scaled_pool},
                concurrency=CONCURRENCY,
                max_batch=MAX_BATCH,
                mmap_dir=store,
            )
        single.mode, scaled.mode = "pooled-1w", f"pooled-{SCALING_WORKERS}w"
        return single, scaled, efficiency

    single, scaled, efficiency = benchmark.pedantic(measure, rounds=1, iterations=1)

    report(
        "perf_serving_scaling",
        render_table(
            ROW_HEADERS,
            [single.as_row(), scaled.as_row()],
            title=(
                f"closed-loop scaling on {bundle.kg.name}: "
                f"1 -> {SCALING_WORKERS} workers, {CONCURRENCY} in flight "
                f"-> {efficiency:.2f}x"
            ),
        ),
    )

    assert single.rejected == 0 and scaled.rejected == 0

    _merge_benchmark(
        report_dir,
        "serving_distributed_scaling",
        {
            "graph": bundle.kg.name,
            "task": "PV",
            "top_k": TOP_K,
            "concurrency": CONCURRENCY,
            "requests": REQUESTS,
            "workers": SCALING_WORKERS,
            "max_batch": MAX_BATCH,
            "speedup": efficiency,
            "single": single.as_json(),
            "scaled": scaled.as_json(),
        },
    )


def test_perf_serving_predict_throughput(benchmark, report, report_dir, tmp_path):
    """Batched /predict inference vs the scalar one-request oracle.

    A checkpoint trained on the catalog graph answers PV classification
    queries through the coalescer's extraction→inference pipeline; the
    baseline runs the retained scalar oracle one request at a time.  Both
    modes must return bit-identical payloads at every request position
    (asserted inside ``compare_serving``) — the speedup comes
    from micro-batching the model forward, the registry's logits cache
    and the bounded result cache, never from changing an answer.
    """
    from repro.models import ModelConfig, RGCNNodeClassifier
    from repro.nn.checkpoint import save_checkpoint
    from repro.training import TrainConfig, train_node_classifier

    bundle = catalog.mag("small", 7)
    task = bundle.task("PV")
    rng = np.random.default_rng(7)
    requests = [
        {"op": "predict", "task": "PV", "node": int(node), "k": TOP_K}
        for node in rng.choice(task.target_nodes, size=REQUESTS, replace=True)
    ]

    model = RGCNNodeClassifier(
        bundle.kg, task, ModelConfig(hidden_dim=16, num_layers=2, dropout=0.0, seed=7)
    )
    result = train_node_classifier(model, task, TrainConfig(epochs=3, eval_every=1))
    ckpt = str(tmp_path / "pv.ckpt")
    save_checkpoint(model, ckpt, metrics={"test_metric": result.test_metric})

    # Warm the shared artifacts and code paths outside the measured runs.
    run_load(
        bundle.kg,
        [{"op": "ppr", "target": r["node"], "k": TOP_K} for r in requests[:CONCURRENCY]],
        concurrency=CONCURRENCY,
    )

    def measure():
        return compare_serving(
            bundle.kg,
            requests,
            {"coalesce": False},
            {"coalesce": True},
            checkpoints=[ckpt],
            concurrency=CONCURRENCY,
            max_batch=MAX_BATCH,
        )

    serial, coalesced, speedup = benchmark.pedantic(measure, rounds=1, iterations=1)

    report(
        "perf_serving_predict",
        render_table(
            ROW_HEADERS,
            [serial.as_row(), coalesced.as_row()],
            title=(
                f"closed-loop /predict serving on {bundle.kg.name}: "
                f"{CONCURRENCY} in flight -> {speedup:.1f}x over the scalar oracle"
            ),
        ),
    )

    assert serial.rejected == 0 and coalesced.rejected == 0
    assert speedup >= PREDICT_FLOOR, (
        f"batched /predict only {speedup:.2f}x over the scalar oracle "
        f"baseline (floor {PREDICT_FLOOR}x)"
    )

    _merge_benchmark(
        report_dir,
        "serving_predict_throughput",
        {
            "graph": bundle.kg.name,
            "task": "PV",
            "top_k": TOP_K,
            "concurrency": CONCURRENCY,
            "requests": REQUESTS,
            "max_batch": MAX_BATCH,
            "speedup": speedup,
            "floor": PREDICT_FLOOR,
            "serial": serial.as_json(),
            "predict-coalesced": coalesced.as_json(),
        },
    )

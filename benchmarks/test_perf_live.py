"""Live-graph benchmark: incremental epoch artifacts vs cold rebuild.

Two guarantees of the epochal-snapshot path (``repro/kg/epoch.py``) are
measured on the ``mag`` *large* catalog graph and recorded — with their
regression floors — in ``out/BENCH_live.json``, which
``check_perf_floors.py`` re-checks in the CI ``perf-guard`` job:

* **live_epoch_extend** — what one ``POST /triples`` ingest costs once
  the new epoch's artifacts are in use.  The baseline is what serving the
  new epoch would cost without the delta log: rebuild the merged graph's
  CSR projection and hexastore orderings from scratch.  The incremental
  path extends the epoch (which builds nothing) and then touches every
  artifact the baseline builds, each merged on first use from the parent
  epoch's — ``base + delta`` CSR addition, sorted-merge hexastore
  permutations.  It must stay above ``EXTEND_FLOOR`` while producing
  **bit-identical** artifacts (asserted here before timing is trusted).

* **live_ppr_refresh** — what re-answering a warm ``/ppr`` working set
  costs after an ingest.  The baseline recomputes every target on the
  new epoch; the delta-aware cache recomputes only the targets whose
  retained support set intersects the dirty nodes and serves the rest
  from cache — bit-identically, because an untouched support set means
  the push schedule replays exactly.  Measured in the regime the cache
  exists for: a *localized* ingest (one entity's edges — a few rows
  among a few nodes), the common case in live KGs.  Scattering the same
  rows uniformly over the graph instead would dirty nearly every
  retained support set and degenerate the cache to full recomputation —
  which the invalidation rule handles correctly, just without a win to
  guard.  Must stay above ``REFRESH_FLOOR``.
"""

import json
import os
import statistics
import time

import numpy as np

from repro.datasets import catalog
from repro.kg.cache import artifacts_for
from repro.kg.epoch import GraphEpoch, LiveGraph
from repro.kg.triples import TripleStore
from repro.sampling.ppr import batch_ppr_top_k

SCALE = "large"
ROUNDS = 5

#: Triples per ingest — small against the base (the live-ingest regime the
#: delta log exists for; compaction handles the delta growing large).
DELTA_ROWS = 256

#: Warm /ppr working set re-answered after each ingest.
PPR_TARGETS = 256
PPR_K = 16

#: A localized ingest: this many rows among this many (low-degree) nodes.
LOCAL_ROWS = 8
LOCAL_NODES = 4

# Observed ~3-4x on mag "large" (sorted-merge + CSR addition vs full
# lexsorts and a from-scratch CSR build).  Floor well below, per the
# docs/ci.md policy — but still guarantees the incremental win the
# epochal path exists for.
EXTEND_FLOOR = 1.5

# Observed ~3-4x (a localized delta dirties a handful of the 256 retained
# targets; the batch kernel's fixed per-call setup bounds the rest).
REFRESH_FLOOR = 1.5

_REPORT_NAME = "BENCH_live.json"


def _merge_benchmark(report_dir, name, entry):
    """Insert one benchmark entry into the shared live report."""
    path = os.path.join(report_dir, _REPORT_NAME)
    payload = {"benchmarks": {}}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    payload.setdefault("benchmarks", {})[name] = entry
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)


def _median_seconds(callable_, rounds=ROUNDS):
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        callable_()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _delta(kg, rows, seed):
    rng = np.random.default_rng(seed)
    rels = np.unique(kg.triples.p)
    return np.stack(
        [
            rng.integers(0, kg.num_nodes, rows),
            rng.choice(rels, rows),
            rng.integers(0, kg.num_nodes, rows),
        ],
        axis=1,
    ).astype(np.int64)


def _warm(kg):
    """Build (or, on an extended epoch, merge) the serving artifacts."""
    artifacts_for(kg).csr("both")
    kg.hexastore.materialize()


def _assert_bit_exact(merged_kg, cold_kg):
    _warm(merged_kg)  # orderings build on first use: never compare none
    left = artifacts_for(merged_kg).csr("both")
    right = artifacts_for(cold_kg).csr("both")
    assert np.array_equal(left.indptr, right.indptr)
    assert np.array_equal(left.indices, right.indices)
    assert np.array_equal(left.data, right.data)
    for name, index in merged_kg.hexastore._indices.items():
        reference = cold_kg.hexastore._indices[name]
        assert np.array_equal(index.perm, reference.perm), name


def test_perf_live_epoch_extend(benchmark, report, report_dir):
    bundle = catalog.mag(SCALE, 7)
    base = bundle.kg
    _warm(base)
    epoch = GraphEpoch.initial(base)
    arr = _delta(base, DELTA_ROWS, seed=11)
    delta = TripleStore(arr[:, 0], arr[:, 1], arr[:, 2])

    # Bit-exactness first: the merged epoch's artifacts must equal a
    # from-scratch rebuild before any timing is worth recording.
    merged = epoch.extend(delta)
    cold = merged.cold_rebuild()
    _warm(cold)
    _assert_bit_exact(merged.kg, cold)

    def incremental_extend():
        _warm(epoch.extend(delta).kg)

    def cold_rebuild():
        rebuilt = merged.cold_rebuild()
        _warm(rebuilt)

    def measure():
        baseline = _median_seconds(cold_rebuild)
        extend = _median_seconds(incremental_extend)
        return baseline, extend, baseline / extend

    baseline, extend, speedup = benchmark.pedantic(measure, rounds=1, iterations=1)

    report(
        "perf_live_epoch_extend",
        (
            f"epoch extend on {base.name} ({base.num_nodes} nodes, "
            f"{base.num_edges} edges, {DELTA_ROWS}-row delta):\n"
            f"  cold artifact rebuild  {baseline * 1e3:8.2f} ms\n"
            f"  extend + first use     {extend * 1e3:8.2f} ms\n"
            f"  -> {speedup:.1f}x (floor {EXTEND_FLOOR}x)"
        ),
    )

    assert speedup >= EXTEND_FLOOR, (
        f"incremental epoch extend only {speedup:.2f}x faster than a cold "
        f"artifact rebuild (floor {EXTEND_FLOOR}x)"
    )

    _merge_benchmark(
        report_dir,
        "live_epoch_extend",
        {
            "graph": base.name,
            "scale": SCALE,
            "nodes": base.num_nodes,
            "edges": base.num_edges,
            "delta_rows": DELTA_ROWS,
            "rounds": ROUNDS,
            "baseline_ms": baseline * 1e3,
            "incremental_ms": extend * 1e3,
            "speedup": speedup,
            "floor": EXTEND_FLOOR,
        },
    )


def _local_delta(kg, seed):
    """A localized ingest: LOCAL_ROWS edges among LOCAL_NODES quiet nodes."""
    rng = np.random.default_rng(seed)
    degrees = np.asarray(
        artifacts_for(kg).csr("both").sum(axis=1)
    ).ravel()
    quiet = np.argsort(degrees)[: max(kg.num_nodes // 10, LOCAL_NODES)]
    nodes = rng.choice(quiet, LOCAL_NODES, replace=False)
    rels = np.unique(kg.triples.p)
    return np.stack(
        [
            rng.choice(nodes, LOCAL_ROWS),
            rng.choice(rels, LOCAL_ROWS),
            rng.choice(nodes, LOCAL_ROWS),
        ],
        axis=1,
    ).astype(np.int64)


def test_perf_live_ppr_refresh(benchmark, report, report_dir):
    bundle = catalog.mag(SCALE, 7)
    kg = bundle.kg
    _warm(kg)
    live = LiveGraph(kg)
    rng = np.random.default_rng(23)
    targets = rng.choice(kg.num_nodes, PPR_TARGETS, replace=False).tolist()

    live.ppr_top_k(targets, PPR_K)  # retain the warm working set
    live.ingest(_local_delta(kg, seed=29))

    # Bit-exactness first: cache + recomputed misses must equal a full
    # recomputation on the new epoch.
    refreshed = live.ppr_top_k(targets, PPR_K)
    adjacency = artifacts_for(live.kg).csr("both")
    recomputed = batch_ppr_top_k(adjacency, targets, PPR_K)
    assert refreshed == recomputed

    deltas = [_local_delta(kg, seed=31 + i) for i in range(ROUNDS + 1)]

    def measure():
        baseline = _median_seconds(
            lambda: batch_ppr_top_k(
                artifacts_for(live.kg).csr("both"), targets, PPR_K
            )
        )
        samples = []
        for arr in deltas:
            live.ingest(arr)
            start = time.perf_counter()
            live.ppr_top_k(targets, PPR_K)
            samples.append(time.perf_counter() - start)
        refresh = statistics.median(samples)
        return baseline, refresh, baseline / refresh

    baseline, refresh, speedup = benchmark.pedantic(measure, rounds=1, iterations=1)
    stats = live.stats()["ppr_cache"]

    report(
        "perf_live_ppr_refresh",
        (
            f"warm /ppr refresh after a {LOCAL_ROWS}-row localized ingest on "
            f"{kg.name} ({PPR_TARGETS} targets, k={PPR_K}):\n"
            f"  recompute every target  {baseline * 1e3:8.2f} ms\n"
            f"  delta-aware cache       {refresh * 1e3:8.2f} ms "
            f"(invalidated {stats['invalidated']} entries total)\n"
            f"  -> {speedup:.1f}x (floor {REFRESH_FLOOR}x)"
        ),
    )

    assert speedup >= REFRESH_FLOOR, (
        f"delta-aware PPR refresh only {speedup:.2f}x faster than full "
        f"recomputation (floor {REFRESH_FLOOR}x)"
    )

    _merge_benchmark(
        report_dir,
        "live_ppr_refresh",
        {
            "graph": kg.name,
            "scale": SCALE,
            "targets": PPR_TARGETS,
            "k": PPR_K,
            "delta_rows": LOCAL_ROWS,
            "rounds": ROUNDS,
            "baseline_ms": baseline * 1e3,
            "refresh_ms": refresh * 1e3,
            "speedup": speedup,
            "floor": REFRESH_FLOOR,
        },
    )

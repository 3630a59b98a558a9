"""Epochal snapshots: every first-use merge bit-exact vs a cold rebuild.

The contract under test (``repro/kg/epoch.py``): a :class:`GraphEpoch`
built by *extending* the previous epoch with a delta must be
indistinguishable — CSR projections, hexastore orderings, degrees,
SPARQL results, kernel answers — from a graph rebuilt from scratch with
the same content (``cold_rebuild()``, the oracle).  Extending builds no
artifact; each one merges on first use from the nearest ancestor that
built it.  Randomized insert schedules drive the merges through many
shapes; the delta-aware kernel caches must invalidate exactly by
dirty-node support intersection.
"""

import gc
import importlib
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from repro.kg import cache as cache_module
from repro.kg import epoch as epoch_module
from repro.kg import hexastore as hexastore_module
from repro.kg.cache import artifacts_for
from repro.kg.epoch import GraphEpoch, LiveGraph
from repro.kg.hexastore import _ORDERS
from repro.kg.triples import TripleStore
from repro.models.shadowsaint import extract_ego_batch
from repro.sampling.paths import enumerate_paths_scalar
from repro.sampling.ppr import batch_ppr_top_k
from repro.sparql.endpoint import SparqlEndpoint

ALL_TRIPLES = "select ?s ?p ?o where { ?s ?p ?o }"


def random_delta(kg, rows, rng):
    """``rows`` random in-range [s, p, o] rows (ingest never mints ids)."""
    return np.stack(
        [
            rng.integers(0, kg.num_nodes, rows),
            rng.integers(0, kg.num_edge_types, rows),
            rng.integers(0, kg.num_nodes, rows),
        ],
        axis=1,
    ).astype(np.int64)


def warm(kg):
    """Build the artifacts later epochs merge from."""
    artifacts_for(kg).csr("both")
    artifacts_for(kg).csr("out")
    kg.hexastore.materialize()
    kg.out_degree()
    kg.in_degree()


def extend(epoch, kg, rows, rng):
    arr = random_delta(kg, rows, rng)
    return epoch.extend(TripleStore(arr[:, 0], arr[:, 1], arr[:, 2]))


def built_nothing(kg):
    """True when no CSR projection or hexastore ordering of ``kg`` is built."""
    artifacts = getattr(kg, "_graph_artifacts", None)
    hexa = kg._hexastore
    return (artifacts is None or not artifacts._csr) and (hexa is None or not hexa._indices)


def assert_epoch_matches_cold_rebuild(epoch):
    cold = epoch.cold_rebuild()
    assert np.array_equal(epoch.kg.triples.s, cold.triples.s)
    assert np.array_equal(epoch.kg.triples.p, cold.triples.p)
    assert np.array_equal(epoch.kg.triples.o, cold.triples.o)
    for direction in ("both", "out", "in"):
        merged = artifacts_for(epoch.kg).csr(direction)
        rebuilt = artifacts_for(cold).csr(direction)
        assert merged.indices.dtype == rebuilt.indices.dtype, direction
        assert np.array_equal(merged.indptr, rebuilt.indptr), direction
        assert np.array_equal(merged.indices, rebuilt.indices), direction
        assert np.array_equal(merged.data, rebuilt.data), direction
    # Orderings build on first use: force all six on both sides so the
    # comparison below can never be vacuous.
    epoch.kg.hexastore.materialize()
    cold.hexastore.materialize()
    assert sorted(epoch.kg.hexastore._indices) == sorted(_ORDERS)
    for name, index in epoch.kg.hexastore._indices.items():
        reference = cold.hexastore._indices[name]
        assert np.array_equal(index.perm, reference.perm), name
        for level in range(3):
            assert np.array_equal(index.key(level), reference.key(level)), name
    assert np.array_equal(epoch.kg.out_degree(), cold.out_degree())
    assert np.array_equal(epoch.kg.in_degree(), cold.in_degree())


def test_randomized_insert_schedule_stays_bit_exact(toy_kg):
    rng = np.random.default_rng(7)
    warm(toy_kg)
    epoch = GraphEpoch.initial(toy_kg)
    for round_number in range(6):
        rows = int(rng.integers(1, 9))
        arr = random_delta(toy_kg, rows, rng)
        epoch = epoch.extend(TripleStore(arr[:, 0], arr[:, 1], arr[:, 2]))
        assert epoch.number == round_number + 1
        assert_epoch_matches_cold_rebuild(epoch)


def test_extend_off_a_lazy_base_builds_correctly(toy_kg):
    # No pre-built artifacts on the base: nothing to merge incrementally,
    # the merged graph must still build everything lazily and correctly.
    rng = np.random.default_rng(11)
    epoch = GraphEpoch.initial(toy_kg)
    arr = random_delta(toy_kg, 5, rng)
    epoch = epoch.extend(TripleStore(arr[:, 0], arr[:, 1], arr[:, 2]))
    assert_epoch_matches_cold_rebuild(epoch)


def test_extend_builds_nothing_and_records_origins(toy_kg):
    warm(toy_kg)
    epoch = extend(GraphEpoch.initial(toy_kg), toy_kg, 4, np.random.default_rng(41))
    assert built_nothing(epoch.kg)
    base_csr = artifacts_for(toy_kg)._csr
    origins = artifacts_for(epoch.kg)._origins
    assert {d: m for d, (m, _) in origins.items()} == base_csr
    assert all(rows == len(toy_kg.triples) for _, rows in origins.values())
    assert epoch.kg.hexastore._origins == toy_kg.hexastore._indices
    # Building drops the link; the built artifact becomes the next origin.
    artifacts_for(epoch.kg).csr("both")
    epoch.kg.hexastore.count(subject=0)
    assert "both" not in artifacts_for(epoch.kg)._origins
    assert "spo" not in epoch.kg.hexastore._origins
    child = extend(epoch, toy_kg, 2, np.random.default_rng(43))
    assert child.kg._graph_artifacts._origins["both"][0] is artifacts_for(epoch.kg)._csr["both"]
    assert child.kg._graph_artifacts._origins["out"][0] is base_csr["out"]
    assert child.kg.hexastore._origins["spo"] is epoch.kg.hexastore._indices["spo"]
    assert child.kg.hexastore._origins["ops"] is toy_kg.hexastore._indices["ops"]


@pytest.mark.parametrize("touch", ["never", "midway"])
def test_first_use_several_epochs_later_and_across_compaction(toy_kg, touch):
    rng = np.random.default_rng(47)
    warm(toy_kg)
    epoch = GraphEpoch.initial(toy_kg)
    for round_number in range(6):
        epoch = extend(epoch, toy_kg, int(rng.integers(1, 6)), rng)
        if touch == "midway" and round_number == 2:
            # Some artifacts built mid-chain: later epochs merge those
            # from here and the rest from the base.
            artifacts_for(epoch.kg).csr("both")
            epoch.kg.hexastore.count(predicate=0, obj=1)
        if round_number == 3:
            epoch = epoch.compact()
    assert epoch.delta_rows > 0
    assert built_nothing(epoch.kg)
    assert_epoch_matches_cold_rebuild(epoch)


def test_artifacts_with_a_built_ancestor_merge_instead_of_rebuilding(toy_kg, monkeypatch):
    rng = np.random.default_rng(53)
    warm(toy_kg)
    artifacts_for(toy_kg).csr("in")
    epoch = extend(GraphEpoch.initial(toy_kg), toy_kg, 3, rng)
    epoch = extend(epoch, toy_kg, 5, rng)
    cold = epoch.cold_rebuild()
    warm(cold)
    artifacts_for(cold).csr("in")

    def refuse(*args, **kwargs):
        raise AssertionError("rebuilt from scratch instead of merged")

    monkeypatch.setattr(hexastore_module._SortedIndex, "__init__", refuse)
    monkeypatch.setattr("repro.transform.adjacency.build_csr", refuse)
    merged = [artifacts_for(epoch.kg).csr(d) for d in ("both", "out", "in")]
    epoch.kg.hexastore.materialize()
    for matrix, direction in zip(merged, ("both", "out", "in")):
        rebuilt = artifacts_for(cold).csr(direction)
        assert np.array_equal(matrix.indptr, rebuilt.indptr), direction
        assert np.array_equal(matrix.indices, rebuilt.indices), direction
    for name, index in epoch.kg.hexastore._indices.items():
        assert np.array_equal(index.perm, cold.hexastore._indices[name].perm), name


def test_epochs_older_than_the_ring_are_collected(toy_kg, monkeypatch):
    monkeypatch.setattr(epoch_module, "EPOCH_HISTORY", 4)
    warm(toy_kg)
    live = LiveGraph(toy_kg)
    rng = np.random.default_rng(59)
    live.ingest(random_delta(toy_kg, 2, rng))
    artifacts_for(live.kg).csr("both")
    first = weakref.ref(live.kg)
    for _ in range(8):
        live.ingest(random_delta(toy_kg, 2, rng))
        artifacts_for(live.kg).csr("both")
    gc.collect()
    assert first() is None
    # Unread artifacts still link straight to the registered graph.
    origins = artifacts_for(live.kg)._origins
    assert origins["out"][0] is artifacts_for(toy_kg)._csr["out"]


def test_concurrent_first_use_builds_each_artifact_once(toy_kg, monkeypatch):
    warm(toy_kg)
    calls = {"csr": 0, "ordering": 0}
    merge_csr = cache_module._merged_csr
    merge_ordering = hexastore_module._SortedIndex.merged.__func__

    def counting_csr(*args):
        calls["csr"] += 1
        return merge_csr(*args)

    def counting_ordering(cls, *args):
        calls["ordering"] += 1
        return merge_ordering(cls, *args)

    monkeypatch.setattr(cache_module, "_merged_csr", counting_csr)
    monkeypatch.setattr(
        hexastore_module._SortedIndex, "merged", classmethod(counting_ordering)
    )
    rng = np.random.default_rng(61)
    epoch = GraphEpoch.initial(toy_kg)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rounds, deadline = 0, time.monotonic() + 1.0
        while rounds < 20 or time.monotonic() < deadline:
            epoch = extend(epoch, toy_kg, 2, rng)
            kg = epoch.kg
            arr = random_delta(toy_kg, 2, rng)
            # Four readers race to first use while an ingest extends the
            # same epoch: more threads than cores.
            barrier = threading.Barrier(5)
            seen, children = [], []

            def first_use():
                barrier.wait()
                seen.append((artifacts_for(kg).csr("both"), kg.hexastore._index("pos")))

            def ingest():
                barrier.wait()
                children.append(epoch.extend(TripleStore(arr[:, 0], arr[:, 1], arr[:, 2])))

            threads = [threading.Thread(target=first_use) for _ in range(4)]
            threads.append(threading.Thread(target=ingest))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            rounds += 1
            assert all(pair[0] is seen[0][0] and pair[1] is seen[0][1] for pair in seen)
            assert calls == {"csr": rounds, "ordering": rounds}
            # The concurrent extend never loses a link: it points at this
            # epoch's fresh artifact or at the origin that one merged from.
            [child] = children
            assert "both" in child.kg._graph_artifacts._origins
            assert "pos" in child.kg.hexastore._origins
            epoch = child
    finally:
        sys.setswitchinterval(interval)
    assert_epoch_matches_cold_rebuild(epoch)


def test_sparql_results_identical_on_merged_epoch(toy_kg):
    rng = np.random.default_rng(13)
    warm(toy_kg)
    epoch = GraphEpoch.initial(toy_kg)
    arr = random_delta(toy_kg, 6, rng)
    epoch = epoch.extend(TripleStore(arr[:, 0], arr[:, 1], arr[:, 2]))
    merged = SparqlEndpoint(epoch.kg).query(ALL_TRIPLES)
    rebuilt = SparqlEndpoint(epoch.cold_rebuild()).query(ALL_TRIPLES)
    assert list(merged.variables) == list(rebuilt.variables)
    for variable in merged.variables:
        assert np.array_equal(merged.columns[variable], rebuilt.columns[variable])


def test_compact_reuses_the_merged_graph(toy_kg):
    rng = np.random.default_rng(17)
    epoch = GraphEpoch.initial(toy_kg)
    arr = random_delta(toy_kg, 4, rng)
    extended = epoch.extend(TripleStore(arr[:, 0], arr[:, 1], arr[:, 2]))
    compacted = extended.compact()
    assert compacted.number == extended.number + 1
    assert compacted.kg is extended.kg  # O(1): nothing is recomputed
    assert compacted.base_kg is extended.kg
    assert compacted.delta_rows == 0 and extended.delta_rows == 4


def test_compact_to_disk_writes_a_loadable_store(toy_kg, tmp_path):
    from repro.kg.store import open_artifacts

    rng = np.random.default_rng(19)
    warm(toy_kg)
    epoch = GraphEpoch.initial(toy_kg)
    arr = random_delta(toy_kg, 4, rng)
    epoch = epoch.extend(TripleStore(arr[:, 0], arr[:, 1], arr[:, 2]))
    epoch = epoch.compact(out_dir=str(tmp_path / "store"))
    mapped = open_artifacts(str(tmp_path / "store"))
    assert np.array_equal(mapped.kg.triples.s, epoch.kg.triples.s)
    assert np.array_equal(mapped.kg.triples.p, epoch.kg.triples.p)
    assert np.array_equal(mapped.kg.triples.o, epoch.kg.triples.o)


# -- LiveGraph: validation, the ring, the policy ------------------------------


def test_validate_triples_rejects_id_minting_and_bad_shapes(toy_kg):
    live = LiveGraph(toy_kg)
    with pytest.raises(ValueError, match="does not mint new nodes"):
        live.ingest([[toy_kg.num_nodes, 0, 0]])
    with pytest.raises(ValueError, match="does not mint new relations"):
        live.ingest([[0, toy_kg.num_edge_types, 1]])
    with pytest.raises(ValueError, match=r"shaped \(n, 3\)"):
        live.ingest([[0, 0]])
    with pytest.raises(ValueError, match="integer"):
        live.ingest([["s", "p", "o"]])
    assert live.epoch.number == 0  # nothing was applied


def test_empty_ingest_is_a_noop(toy_kg):
    live = LiveGraph(toy_kg)
    result = live.ingest([])
    assert result == {
        "added": 0, "epoch": 0, "delta_rows": 0, "compacted": False,
    }
    assert live.epoch.number == 0


def test_compact_every_policy_folds_the_delta(toy_kg):
    live = LiveGraph(toy_kg, compact_every=6)
    rng = np.random.default_rng(23)
    first = live.ingest(random_delta(toy_kg, 3, rng))
    assert first == {"added": 3, "epoch": 1, "delta_rows": 3, "compacted": False}
    second = live.ingest(random_delta(toy_kg, 3, rng))  # reaches the bound
    assert second == {"added": 3, "epoch": 2, "delta_rows": 0, "compacted": True}
    assert live.stats()["compactions"] == 1
    assert_epoch_matches_cold_rebuild(live.epoch)


def test_epoch_ring_pins_old_epochs_until_history_runs_out(toy_kg, monkeypatch):
    monkeypatch.setattr(epoch_module, "EPOCH_HISTORY", 4)
    live = LiveGraph(toy_kg)
    rng = np.random.default_rng(29)
    epochs = [live.epoch]
    for _ in range(6):
        live.ingest(random_delta(toy_kg, 2, rng))
        epochs.append(live.epoch)
    # Recent epochs resolve exactly; beyond the ring the current answers.
    assert live.resolve(6) is epochs[6]
    assert live.resolve(4) is epochs[4]
    assert live.resolve(0) is epochs[6]
    assert live.resolve(None) is epochs[6]


def _in_order(table, keys):
    return [table[key] for key in keys]


def _ego_arrays(egos):
    return [(e.nodes.tolist(), e.src.tolist(), e.dst.tolist(), e.rel.tolist()) for e in egos]


# kind -> (window keys, LiveGraph call, oracle on a graph, kernel module and
# name); the call and the oracle return one answer per key, in key order.
WINDOWS = {
    "ppr": (
        [0, 1, 2],
        lambda live, keys, epoch=None: _in_order(live.ppr_top_k(keys, 4, epoch=epoch), keys),
        lambda kg, keys: _in_order(
            batch_ppr_top_k(artifacts_for(kg).csr("both"), keys, 4), keys
        ),
        ("repro.sampling.ppr", "batch_ppr_top_k_with_support"),
    ),
    "ego": (
        [0, 1, 2],
        lambda live, keys, epoch=None: _ego_arrays(
            live.ego_batch(keys, 2, 3, salt=5, epoch=epoch)
        ),
        lambda kg, keys: _ego_arrays(extract_ego_batch(kg, keys, 2, 3, 5)),
        ("repro.models.shadowsaint", "extract_ego_batch"),
    ),
    "paths": (
        [(0, 7), (3, 6), (0, 9)],
        lambda live, keys, epoch=None: live.paths_batch(
            keys, max_hops=3, max_paths=8, epoch=epoch
        ),
        lambda kg, keys: [
            enumerate_paths_scalar(kg, src, dst, max_hops=3, max_paths=8)
            for src, dst in keys
        ],
        ("repro.sampling.paths", "enumerate_paths_batch_with_support"),
    ),
}


@pytest.mark.parametrize("kind", sorted(WINDOWS))
def test_old_epoch_requests_bypass_the_cache_and_stay_exact(toy_kg, kind):
    keys, serve, oracle, _ = WINDOWS[kind]
    live = LiveGraph(toy_kg)
    rng = np.random.default_rng(31)
    live.ingest(random_delta(toy_kg, 3, rng))
    pinned = live.epoch.number
    live.ingest(random_delta(toy_kg, 3, rng))
    assert serve(live, keys, epoch=pinned) == oracle(live.resolve(pinned).kg, keys)
    # The pinned window neither read nor filled the current epoch's store.
    assert live.stats()[f"{kind}_cache"] == {
        "entries": 0, "hits": 0, "misses": 0, "invalidated": 0,
    }
    assert serve(live, keys) == oracle(live.kg, keys)


@pytest.mark.parametrize("kind", sorted(WINDOWS))
def test_repeated_keys_run_the_kernel_once_per_distinct_key(toy_kg, kind, monkeypatch):
    keys, serve, oracle, (module_name, kernel_name) = WINDOWS[kind]
    module = importlib.import_module(module_name)
    kernel = getattr(module, kernel_name)
    batches = []

    def counting(kg, batch, *args, **kwargs):
        batches.append(len(batch))
        return kernel(kg, batch, *args, **kwargs)

    monkeypatch.setattr(module, kernel_name, counting)
    window = keys + keys[::-1] + keys[:1]
    live = LiveGraph(toy_kg)
    assert serve(live, window) == oracle(toy_kg, window)
    assert batches == [len(keys)]
    assert live.stats()[f"{kind}_cache"]["misses"] == len(keys)
    # Served again, every position answers from the store.
    assert serve(live, window) == oracle(toy_kg, window)
    assert batches == [len(keys)]
    assert live.stats()[f"{kind}_cache"]["hits"] == len(keys)


# -- delta-aware kernels ------------------------------------------------------


def test_ppr_cache_serves_untouched_targets_and_recomputes_dirty_ones(toy_kg):
    live = LiveGraph(toy_kg)
    targets = list(range(toy_kg.num_nodes))
    first = live.ppr_top_k(targets, 4)
    assert live.stats()["ppr_cache"]["misses"] == len(targets)
    again = live.ppr_top_k(targets, 4)
    assert again == first
    assert live.stats()["ppr_cache"]["hits"] >= len(targets)

    # A delta inside the disconnected movie domain (m0 -sequelOf-> m2)
    # must not invalidate the academic domain's retained entries.
    m0 = toy_kg.node_vocab.id("m0")
    m2 = toy_kg.node_vocab.id("m2")
    sequel = toy_kg.relation_vocab.id("sequelOf")
    live.ingest([[m0, sequel, m2]])
    stats = live.stats()["ppr_cache"]
    assert 0 < stats["invalidated"] < len(targets)

    refreshed = live.ppr_top_k(targets, 4)
    oracle = batch_ppr_top_k(artifacts_for(live.kg).csr("both"), targets, 4)
    assert refreshed == oracle


def test_ego_cache_invalidates_by_node_set(toy_kg):
    live = LiveGraph(toy_kg)
    roots = [toy_kg.node_vocab.id("p0"), toy_kg.node_vocab.id("m0")]
    first = live.ego_batch(roots, 2, 3, salt=9)
    m0 = toy_kg.node_vocab.id("m0")
    m2 = toy_kg.node_vocab.id("m2")
    sequel = toy_kg.relation_vocab.id("sequelOf")
    live.ingest([[m0, sequel, m2]])
    # The movie-domain ego is dirty, the paper-domain one survived.
    assert live.stats()["ego_cache"]["invalidated"] == 1
    refreshed = live.ego_batch(roots, 2, 3, salt=9)
    oracle = extract_ego_batch(live.kg, roots, 2, 3, 9)
    for ego, expected in zip(refreshed, oracle):
        assert np.array_equal(ego.nodes, expected.nodes)
    assert np.array_equal(first[0].nodes, refreshed[0].nodes)


def test_randomized_live_kernels_match_cold_rebuild_every_epoch(toy_kg):
    rng = np.random.default_rng(37)
    live = LiveGraph(toy_kg)
    targets = [int(t) for t in rng.choice(toy_kg.num_nodes, 6, replace=False)]
    for _ in range(5):
        live.ppr_top_k(targets, 4)          # keep the cache warm ...
        live.ego_batch(targets, 2, 3, salt=1)
        live.ingest(random_delta(toy_kg, int(rng.integers(1, 6)), rng))
        cold = live.epoch.cold_rebuild()    # ... and audit it after ingest
        assert live.ppr_top_k(targets, 4) == batch_ppr_top_k(
            artifacts_for(cold).csr("both"), targets, 4
        )
        for ego, expected in zip(
            live.ego_batch(targets, 2, 3, salt=1),
            extract_ego_batch(cold, targets, 2, 3, 1),
        ):
            assert np.array_equal(ego.nodes, expected.nodes)
            assert np.array_equal(ego.src, expected.src)
            assert np.array_equal(ego.dst, expected.dst)
            assert np.array_equal(ego.rel, expected.rel)


def test_kernel_cache_capacity_is_bounded(toy_kg, monkeypatch):
    monkeypatch.setattr(epoch_module, "KERNEL_CACHE_CAPACITY", 4)
    live = LiveGraph(toy_kg)
    live.ppr_top_k(list(range(10)), 3)
    assert live.stats()["ppr_cache"]["entries"] <= 4
    live.ego_batch(list(range(10)), 1, 2, salt=0)
    assert live.stats()["ego_cache"]["entries"] <= 4

"""Multi-process worker pool: shard map, bit-identity, crash containment.

The pool's contract (``repro/serve/pool.py``) in test form:

* the graph→shard map is deterministic — across calls, threads and
  *processes* — so artifacts are built exactly once per owning worker;
* pooled extraction is bit-identical to in-process extraction on a real
  catalog graph (``mag small``);
* a crashed worker fails only its in-flight requests, each with a
  structured :class:`WorkerCrashed`, and the slot respawns with its
  registrations replayed;
* worker-side client errors re-raise as the same exception type in the
  parent, so both serving modes map to identical wire errors.
"""

import asyncio
import os
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.kg.cache import artifacts_for
from repro.models.shadowsaint import extract_ego
from repro.sampling.ppr import ppr_top_k
from repro.serve import ExtractionService, WorkerCrashed, WorkerPool
from repro.serve.placement import replica_shards, shard_for
from repro.sparql.parser import SparqlSyntaxError


def run(coroutine):
    return asyncio.run(coroutine)


# -- the deterministic graph -> shard map -------------------------------------


def test_shard_map_is_deterministic_and_in_range():
    names = [f"graph-{i}" for i in range(64)] + ["mag", "dblp", "yago4"]
    for shards in (1, 2, 3, 7):
        for name in names:
            home = shard_for(name, shards)
            assert 0 <= home < shards
            assert home == shard_for(name, shards)
    # The map must spread graphs, not collapse onto one shard.
    assert len({shard_for(name, 7) for name in names}) > 1
    with pytest.raises(ValueError):
        shard_for("mag", 0)


def test_replica_shards_walk_from_the_home_shard():
    home = shard_for("mag", 4)
    assert replica_shards("mag", 4, replicas=1) == [home]
    assert replica_shards("mag", 4, replicas=2) == [home, (home + 1) % 4]
    # None and over-large replica counts mean "every worker".
    assert sorted(replica_shards("mag", 4)) == [0, 1, 2, 3]
    assert sorted(replica_shards("mag", 4, replicas=99)) == [0, 1, 2, 3]
    # Shrinking replicas never moves the home shard (pinning stability).
    for replicas in (1, 2, 3, 4):
        assert replica_shards("mag", 4, replicas)[0] == home


def test_shard_map_is_stable_across_processes():
    """Placement must not depend on per-process hash seeds."""
    names = ["mag", "dblp", "yago4", "wikikg2", "load", "graph-17"]
    script = (
        "from repro.serve.placement import shard_for\n"
        "print([shard_for(n, 5) for n in %r])" % (names,)
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
    ) + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "12345"  # a different seed must change nothing
    output = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        check=True,
    ).stdout.strip()
    assert output == str([shard_for(name, 5) for name in names])


def test_shard_map_thread_hammer():
    """Concurrent placement lookups all agree with the serial reference."""
    names = [f"graph-{i}" for i in range(200)]
    reference = {
        name: (shard_for(name, 8), tuple(replica_shards(name, 8, 3)))
        for name in names
    }
    mismatches = []
    barrier = threading.Barrier(8)

    def hammer():
        barrier.wait()
        for _ in range(20):
            for name in names:
                observed = (shard_for(name, 8), tuple(replica_shards(name, 8, 3)))
                if observed != reference[name]:
                    mismatches.append((name, observed))

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert mismatches == []


def test_concurrent_registration_respects_the_shard_map(toy_kg):
    """Racing registrations still land every graph on its mapped shards."""
    with WorkerPool(workers=2, replicas=1) as pool:
        names = [f"g{i}" for i in range(12)]
        errors = []

        def register(name):
            try:
                pool.register(name, toy_kg, warm=False)
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append((name, exc))

        threads = [threading.Thread(target=register, args=(name,)) for name in names]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        for name in names:
            assert pool.shards_of(name) == replica_shards(name, 2, 1)


# -- bit-identity with in-process extraction ----------------------------------


@pytest.fixture(scope="module")
def mag_small_bundle():
    from repro.datasets import mag

    return mag("small", seed=7)


def test_pooled_extraction_bit_identical_on_mag_small(mag_small_bundle):
    """PPR, ego and SPARQL answers must not depend on the serving mode."""
    kg = mag_small_bundle.kg
    task = mag_small_bundle.task("PV")
    rng = np.random.default_rng(7)
    targets = [int(t) for t in rng.choice(task.target_nodes, size=24, replace=False)]
    query = "select ?s ?p ?o where { ?s ?p ?o } limit 64"

    async def drive(service):
        pprs = await asyncio.gather(
            *(service.ppr_top_k("mag", t, k=8) for t in targets)
        )
        egos = await asyncio.gather(
            *(service.extract_ego("mag", t, depth=2, fanout=4, salt=3) for t in targets)
        )
        rows = await service.sparql("mag", query)
        count = await service.count("mag", query)
        stream = await service.sparql_stream("mag", query, page_rows=10)
        pages = list(stream.pages)
        return pprs, egos, rows, count, stream.total_rows, pages

    with WorkerPool(workers=2) as pool:
        pooled = ExtractionService(max_batch=8, pool=pool)
        pooled.register("mag", kg)
        pool_pprs, pool_egos, pool_rows, pool_count, pool_total, pool_pages = run(
            drive(pooled)
        )

    local = ExtractionService(max_batch=8)
    local.register("mag", kg)
    loc_pprs, loc_egos, loc_rows, loc_count, loc_total, loc_pages = run(drive(local))

    assert pool_pprs == loc_pprs
    for pool_ego, local_ego in zip(pool_egos, loc_egos):
        np.testing.assert_array_equal(pool_ego.nodes, local_ego.nodes)
        np.testing.assert_array_equal(pool_ego.src, local_ego.src)
        np.testing.assert_array_equal(pool_ego.dst, local_ego.dst)
        np.testing.assert_array_equal(pool_ego.rel, local_ego.rel)
    assert pool_rows.variables == loc_rows.variables
    for variable in loc_rows.variables:
        np.testing.assert_array_equal(
            pool_rows.columns[variable], loc_rows.columns[variable]
        )
    assert pool_count == loc_count
    assert pool_total == loc_total
    assert [page.num_rows for page in pool_pages] == [
        page.num_rows for page in loc_pages
    ]

    # And both match the scalar oracles directly.
    adjacency = artifacts_for(kg).csr("both")
    assert pool_pprs[0] == ppr_top_k(adjacency, targets[0], 8)
    oracle = extract_ego(kg, targets[0], depth=2, fanout=4, salt=3)
    np.testing.assert_array_equal(pool_egos[0].nodes, oracle.nodes)


def test_parent_process_builds_no_kernel_artifacts(toy_kg):
    """In pool mode the artifact cache is worker-local: the parent stays cold."""
    with WorkerPool(workers=1) as pool:
        service = ExtractionService(pool=pool)
        service.register("toy", toy_kg)
        assert artifacts_for(toy_kg).builds == 0
        run(service.ppr_top_k("toy", 0, k=4))
        assert artifacts_for(toy_kg).builds == 0
        snapshot = service.metrics_snapshot()
        # The worker serves off the private store the pool saved.
        assert snapshot["graphs"]["toy"]["artifact_cache"]["mapped_nbytes"] > 0
        assert snapshot["graphs"]["toy"]["artifact_cache"]["hits"] >= 1
        assert snapshot["graphs"]["toy"]["shards"] == pool.shards_of("toy")
        assert snapshot["config"]["pool"]["workers"] == 1


def test_pooled_metrics_report_the_workers_retained_caches(toy_kg):
    """Repeated reads hit the owning worker's retained cache; /metrics shows it."""
    with WorkerPool(workers=1) as pool:
        service = ExtractionService(pool=pool)
        service.register("toy", toy_kg)
        first = run(service.ppr_top_k("toy", 0, k=4))
        for _ in range(3):
            assert run(service.ppr_top_k("toy", 0, k=4)) == first
        live = service.metrics_snapshot()["graphs"]["toy"]["live"]
        assert live["ppr_cache"] == {"entries": 1, "hits": 3, "misses": 1, "invalidated": 0}
        assert live["ego_cache"]["misses"] == 0 and live["epoch"] == 0


# -- crash containment and respawn --------------------------------------------


def test_worker_crash_is_a_structured_error_and_the_slot_respawns(toy_kg):
    with WorkerPool(workers=2) as pool:
        service = ExtractionService(pool=pool)
        service.register("toy", toy_kg)
        before = run(service.ppr_top_k("toy", 0, k=4))
        run(service.ppr_top_k("toy", 0, k=4))
        builds_before = pool.graph_stats("toy")["artifact_cache"]["builds"]
        ppr_cache = pool.graph_stats("toy")["live"]["ppr_cache"]
        assert ppr_cache["hits"] + ppr_cache["misses"] == 2

        victim = pool.shards_of("toy")[0]
        handle = pool._workers[victim]
        inflight = handle.request("sleep", {"seconds": 60})
        os.kill(pool.worker_pids()[victim], signal.SIGKILL)

        with pytest.raises(WorkerCrashed, match="died with this request in flight"):
            inflight.result(timeout=30)

        # The slot respawned, replayed its registrations, and serves again
        # with bit-identical answers.
        assert pool.ping(victim) == "pong"
        description = pool.describe()
        assert description["respawns"] == 1
        assert description["spawn_failures"] == [None, None]
        after = run(service.ppr_top_k("toy", 0, k=4))
        assert after == before
        # Cumulative counters survive the respawn: the dead incarnation's
        # builds are retired, not dropped, so /metrics never steps back.
        assert pool.graph_stats("toy")["artifact_cache"]["builds"] >= builds_before
        # So are the retained-cache lookups: two before the crash, one after.
        ppr_cache = pool.graph_stats("toy")["live"]["ppr_cache"]
        assert ppr_cache["hits"] + ppr_cache["misses"] == 3


def test_requests_to_unregistered_pool_graphs_fail_fast(toy_kg):
    with WorkerPool(workers=1) as pool:
        with pytest.raises(KeyError):
            pool.call("ppr", {"graph": "nope", "targets": [0], "k": 4,
                              "alpha": 0.25, "eps": 2e-4})
        pool.register("toy", toy_kg, warm=False)
        with pytest.raises(KeyError):
            pool.shards_of("nope")


def test_pool_registration_is_idempotent_but_rejects_conflicts(toy_kg, mag_tiny):
    with WorkerPool(workers=2, replicas=99) as pool:
        # An over-large replica request is clamped up front, so placement,
        # the banner and describe()/metrics all agree.
        assert pool.replicas == 2
        assert pool.describe()["replicas"] == 2
        first = pool.register("toy", toy_kg)
        assert pool.register("toy", toy_kg) == first
        with pytest.raises(ValueError, match="different graph"):
            pool.register("toy", mag_tiny.kg)


def test_crash_message_names_the_worker_exit_code():
    """A killed worker's in-flight requests say how it died (-9: SIGKILL)."""
    with WorkerPool(workers=1) as pool:
        inflight = pool._workers[0].request("sleep", {"seconds": 60})
        os.kill(pool.worker_pids()[0], signal.SIGKILL)
        with pytest.raises(
            WorkerCrashed,
            match=r"^pool worker 0 died with this request in flight \(exitcode -9\)$",
        ):
            inflight.result(timeout=30)


def test_pool_mode_requires_coalescing():
    with pytest.raises(ValueError, match="coalesce"):
        ExtractionService(coalesce=False, pool=object())


def test_worker_side_client_errors_keep_their_type(toy_kg):
    """ValueError / SPARQL syntax errors cross the process boundary intact,
    so the front ends' 400 mapping is identical in both serving modes."""
    with WorkerPool(workers=1) as pool:
        service = ExtractionService(pool=pool)
        service.register("toy", toy_kg)
        with pytest.raises(ValueError, match="alpha"):
            run(service.ppr_top_k("toy", 0, k=4, alpha=7.0))
        with pytest.raises(SparqlSyntaxError):
            run(service.sparql("toy", "this is not sparql"))


def test_closed_pool_rejects_requests(toy_kg):
    pool = WorkerPool(workers=1)
    pool.register("toy", toy_kg, warm=False)
    pool.close()
    with pytest.raises(WorkerCrashed):
        pool.call("ppr", {"graph": "toy", "targets": [0], "k": 4,
                          "alpha": 0.25, "eps": 2e-4})


# -- zero-copy (mmap) registration --------------------------------------------


@pytest.fixture(scope="module")
def mag_small_store(mag_small_bundle, tmp_path_factory):
    from repro.kg.store import save_artifacts

    directory = str(tmp_path_factory.mktemp("mag-store"))
    save_artifacts(mag_small_bundle.kg, directory)
    return directory


@pytest.fixture
def toy_store(toy_kg, tmp_path):
    from repro.kg.store import save_artifacts

    save_artifacts(toy_kg, str(tmp_path))
    return str(tmp_path)


def test_mmap_registration_ships_a_path_not_a_graph(toy_kg, toy_store):
    from repro.kg.store import open_artifacts

    with WorkerPool(workers=1) as pool:
        pool.register("toy", open_artifacts(toy_store).kg, mmap_dir=toy_store)
        (payload,) = pool._registrations_for(0)
        assert payload["mmap_dir"] == toy_store
        assert "kg" not in payload
        # In-memory registrations ship the path of a private store.
        pool.register("plain", toy_kg)
        payloads = {p["name"]: p for p in pool._registrations_for(0)}
        assert "kg" not in payloads["plain"]
        assert payloads["plain"]["mmap_dir"] not in (None, toy_store)


def test_in_memory_registration_gets_a_private_store_that_close_removes(toy_kg):
    from repro.kg.store import ARTIFACT_FILENAME

    with WorkerPool(workers=1) as pool:
        pool.register("toy", toy_kg, warm=False)
        (payload,) = pool._registrations_for(0)
        store = payload["mmap_dir"]
        assert os.path.isfile(os.path.join(store, ARTIFACT_FILENAME))
        assert pool.call("ppr", {"graph": "toy", "targets": [0], "k": 4,
                                 "alpha": 0.25, "eps": 2e-4}) == [
            ppr_top_k(artifacts_for(toy_kg).csr("both"), 0, 4)
        ]
    assert not os.path.exists(store)


def test_mmap_pooled_extraction_bit_identical_on_mag_small(
    mag_small_bundle, mag_small_store
):
    """Cold-start from the artifact store answers exactly like in-process."""
    from repro.kg.store import open_artifacts

    kg = mag_small_bundle.kg
    task = mag_small_bundle.task("PV")
    rng = np.random.default_rng(7)
    targets = [int(t) for t in rng.choice(task.target_nodes, size=12, replace=False)]
    query = "select ?s ?p ?o where { ?s ?p ?o } limit 64"

    async def drive(service):
        pprs = await asyncio.gather(
            *(service.ppr_top_k("mag", t, k=8) for t in targets)
        )
        egos = await asyncio.gather(
            *(service.extract_ego("mag", t, depth=2, fanout=4, salt=3) for t in targets)
        )
        rows = await service.sparql("mag", query)
        count = await service.count("mag", query)
        return pprs, egos, rows, count

    with WorkerPool(workers=2) as pool:
        pooled = ExtractionService(max_batch=8, pool=pool)
        pooled.register("mag", open_artifacts(mag_small_store).kg,
                        mmap_dir=mag_small_store)
        pool_pprs, pool_egos, pool_rows, pool_count = run(drive(pooled))
        snapshot = pooled.metrics_snapshot()

    local = ExtractionService(max_batch=8)
    local.register("mag", kg)
    loc_pprs, loc_egos, loc_rows, loc_count = run(drive(local))

    assert pool_pprs == loc_pprs
    for pool_ego, local_ego in zip(pool_egos, loc_egos):
        np.testing.assert_array_equal(pool_ego.nodes, local_ego.nodes)
        np.testing.assert_array_equal(pool_ego.src, local_ego.src)
        np.testing.assert_array_equal(pool_ego.dst, local_ego.dst)
        np.testing.assert_array_equal(pool_ego.rel, local_ego.rel)
    assert pool_rows.variables == loc_rows.variables
    for variable in loc_rows.variables:
        np.testing.assert_array_equal(
            pool_rows.columns[variable], loc_rows.columns[variable]
        )
    assert pool_count == loc_count
    # Workers really served off the mapping: mapped bytes, no CSR builds.
    cache = snapshot["graphs"]["mag"]["artifact_cache"]
    assert cache["mapped_nbytes"] > 0
    assert cache["hits"] >= 1


def test_mmap_respawn_replays_the_store_path(toy_store):
    from repro.kg.store import open_artifacts

    with WorkerPool(workers=1) as pool:
        service = ExtractionService(pool=pool)
        service.register("toy", open_artifacts(toy_store).kg, mmap_dir=toy_store)
        before = run(service.ppr_top_k("toy", 0, k=4))

        inflight = pool._workers[0].request("sleep", {"seconds": 60})
        os.kill(pool.worker_pids()[0], signal.SIGKILL)
        with pytest.raises(WorkerCrashed):
            inflight.result(timeout=30)

        # The respawned slot re-mapped the same file and answers identically.
        assert pool.ping(0) == "pong"
        assert run(service.ppr_top_k("toy", 0, k=4)) == before
        assert pool.graph_stats("toy")["artifact_cache"]["mapped_nbytes"] > 0


def test_mapped_bytes_merge_with_max_not_sum(toy_store):
    """N workers mapping one file share its pages: /metrics must not bill
    the store once per worker."""
    from repro.kg.store import open_artifacts

    def merged_mapped(workers):
        with WorkerPool(workers=workers) as pool:
            pool.register("toy", open_artifacts(toy_store).kg, mmap_dir=toy_store)
            pool.call("ppr", {"graph": "toy", "targets": [0], "k": 4,
                              "alpha": 0.25, "eps": 2e-4})
            return pool.graph_stats("toy")["artifact_cache"]["mapped_nbytes"]

    single = merged_mapped(1)
    assert single > 0
    assert merged_mapped(2) == single


# -- construction -------------------------------------------------------------


def test_pool_needs_a_worker():
    with pytest.raises(ValueError, match="workers must be"):
        WorkerPool(workers=0)

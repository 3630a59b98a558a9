"""Concurrency safety: the shared state the serving layer leans on.

Three contracts a concurrent service cannot live without:

* ``artifacts_for`` hands every thread the *same* artifacts and builds
  each one exactly once, no matter how many threads race the first call.
* ``EndpointStats`` counters never lose increments under parallel
  traffic (they are guarded by the endpoint lock).
* Coalesced batch extraction is bit-identical to per-request scalar
  extraction — concurrency must never change an answer.
"""

import asyncio
import threading

from repro.kg.cache import artifacts_for, clear_artifacts
from repro.sampling.ppr import ppr_top_k
from repro.serve import ExtractionService
from repro.sparql.endpoint import SparqlEndpoint

NUM_THREADS = 16


def hammer(num_threads, work):
    """Run ``work(index)`` on many threads through one start barrier."""
    barrier = threading.Barrier(num_threads)
    failures = []

    def runner(index):
        barrier.wait()
        try:
            work(index)
        except BaseException as exc:  # noqa: BLE001 - surfaced to the test
            failures.append(exc)

    threads = [
        threading.Thread(target=runner, args=(index,)) for index in range(num_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, failures


def test_artifacts_for_single_instance_under_races(toy_kg):
    clear_artifacts(toy_kg)
    seen = []

    def work(_index):
        seen.append(artifacts_for(toy_kg))

    hammer(NUM_THREADS, work)
    assert len({id(artifacts) for artifacts in seen}) == 1


def test_artifact_builds_happen_once_under_races(toy_kg):
    clear_artifacts(toy_kg)
    csrs, engines = [], []

    def work(_index):
        artifacts = artifacts_for(toy_kg)
        csrs.append(artifacts.csr("both"))
        engines.append(artifacts.walk_engine("both"))

    hammer(NUM_THREADS, work)
    assert len({id(matrix) for matrix in csrs}) == 1
    assert len({id(engine) for engine in engines}) == 1
    artifacts = artifacts_for(toy_kg)
    # One CSR build + one engine build; every other getter call was a hit
    # (engine construction itself reads the cached CSR, hence >=).
    assert artifacts.builds == 2
    assert artifacts.hits >= 2 * NUM_THREADS - 2


def test_endpoint_stats_counters_never_lose_increments(toy_kg):
    endpoint = SparqlEndpoint(toy_kg)
    queries_per_thread = 8
    query = "select ?s ?p ?o where { ?s ?p ?o }"

    def work(_index):
        for _ in range(queries_per_thread):
            endpoint.query(query)

    hammer(NUM_THREADS, work)
    total = NUM_THREADS * queries_per_thread
    assert endpoint.stats.requests == total
    assert endpoint.stats.rows_returned == total * toy_kg.num_edges
    single = SparqlEndpoint(toy_kg)
    single.query(query)
    assert endpoint.stats.bytes_raw == total * single.stats.bytes_raw


def test_coalesced_results_bit_identical_to_scalar(toy_kg, toy_task):
    """64 concurrent in-flight extractions == 64 lone scalar extractions."""
    targets = [int(t) for t in toy_task.target_nodes] * 11  # 66 requests
    service = ExtractionService(max_pending=128, max_batch=32)
    service.register("toy", toy_kg)

    async def scenario():
        return await asyncio.gather(
            *(service.ppr_top_k("toy", target) for target in targets)
        )

    results = asyncio.run(scenario())
    adjacency = artifacts_for(toy_kg).csr("both")
    oracle = {target: ppr_top_k(adjacency, target, 16) for target in set(targets)}
    for target, result in zip(targets, results):
        assert result == oracle[target]
    # The equivalence is only meaningful if coalescing actually kicked in.
    assert service.metrics.batch_occupancy() > 1.0

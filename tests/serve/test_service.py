"""ExtractionService: routing, correctness vs oracles, backpressure."""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.kg.cache import artifacts_for
from repro.models.shadowsaint import extract_ego
from repro.sampling.ppr import ppr_top_k
from repro.serve import ExtractionService, ServiceOverloaded
from repro.sparql.endpoint import SparqlEndpoint


def run(coroutine):
    return asyncio.run(coroutine)


def make_service(kg, **kwargs):
    service = ExtractionService(**kwargs)
    service.register("toy", kg)
    return service


def test_register_rejects_duplicates_and_unknown_graphs(toy_kg):
    service = make_service(toy_kg)
    assert service.graphs() == ["toy"]
    with pytest.raises(ValueError):
        service.register("toy", toy_kg)
    with pytest.raises(KeyError):
        run(service.ppr_top_k("nope", 0))


def test_register_warms_the_csr(toy_kg):
    make_service(toy_kg)
    assert artifacts_for(toy_kg).builds >= 1


def test_ppr_matches_scalar_oracle(toy_kg, toy_task):
    service = make_service(toy_kg, max_batch=4)
    targets = [int(t) for t in toy_task.target_nodes]

    async def scenario():
        return await asyncio.gather(
            *(service.ppr_top_k("toy", t, k=8) for t in targets)
        )

    results = run(scenario())
    adjacency = artifacts_for(toy_kg).csr("both")
    for target, result in zip(targets, results):
        assert result == ppr_top_k(adjacency, target, 8)


def test_ego_matches_scalar_oracle(toy_kg, toy_task):
    service = make_service(toy_kg, max_batch=4)
    roots = [int(t) for t in toy_task.target_nodes]

    async def scenario():
        return await asyncio.gather(
            *(service.extract_ego("toy", r, depth=2, fanout=3, salt=5) for r in roots)
        )

    egos = run(scenario())
    for root, ego in zip(roots, egos):
        expected = extract_ego(toy_kg, root, depth=2, fanout=3, salt=5)
        assert np.array_equal(ego.nodes, expected.nodes)
        assert np.array_equal(ego.src, expected.src)
        assert np.array_equal(ego.dst, expected.dst)
        assert np.array_equal(ego.rel, expected.rel)


def test_serial_mode_matches_coalesced_mode(toy_kg, toy_task):
    targets = [int(t) for t in toy_task.target_nodes]

    async def gather(service):
        return await asyncio.gather(
            *(service.ppr_top_k("toy", t) for t in targets)
        )

    coalesced = run(gather(make_service(toy_kg, coalesce=True)))
    serial = run(gather(make_service(toy_kg, coalesce=False)))
    assert coalesced == serial


def test_mixed_parameter_requests_are_not_merged(toy_kg, toy_task):
    service = make_service(toy_kg, max_batch=16)
    target = int(toy_task.target_nodes[0])

    async def scenario():
        return await asyncio.gather(
            service.ppr_top_k("toy", target, k=4),
            service.ppr_top_k("toy", target, k=9),
            service.ppr_top_k("toy", target, k=4, alpha=0.5),
        )

    small, large, halved = run(scenario())
    adjacency = artifacts_for(toy_kg).csr("both")
    assert small == ppr_top_k(adjacency, target, 4)
    assert large == ppr_top_k(adjacency, target, 9)
    assert halved == ppr_top_k(adjacency, target, 4, alpha=0.5)


def test_sparql_facade_matches_sync_endpoint(toy_kg):
    service = make_service(toy_kg)
    query = "select ?s ?p ?o where { ?s ?p ?o }"

    async def scenario():
        return await service.sparql("toy", query), await service.count("toy", query)

    result, count = run(scenario())
    expected = SparqlEndpoint(toy_kg).query(query)
    assert count == expected.num_rows == result.num_rows
    for variable in expected.variables:
        assert result.columns[variable].tolist() == expected.columns[variable].tolist()


def test_overload_rejects_with_retry_after(toy_kg, toy_task, hold_dispatch):
    # Batches that never end on their own: requests pile up in flight
    # until admission starts shedding.
    gate = hold_dispatch("ppr")
    service = make_service(toy_kg, max_pending=3, max_batch=1000)
    target = int(toy_task.target_nodes[0])

    async def scenario():
        admitted = [
            asyncio.ensure_future(service.ppr_top_k("toy", target))
            for _ in range(3)
        ]
        await asyncio.sleep(0)  # let the three enter the queue
        with pytest.raises(ServiceOverloaded) as excinfo:
            await service.ppr_top_k("toy", target)
        assert excinfo.value.retry_after > 0
        gate.set()
        await service.drain()
        return await asyncio.gather(*admitted)

    results = run(scenario())
    assert len(results) == 3
    snapshot = service.metrics_snapshot()
    assert snapshot["admission"]["rejected"] == 1
    assert snapshot["admission"]["accepted"] == 3
    assert snapshot["admission"]["queue_depth"] == 0  # all drained


def test_metrics_snapshot_shape(toy_kg, toy_task):
    service = make_service(toy_kg, max_batch=4)
    targets = [int(t) for t in toy_task.target_nodes]

    async def scenario():
        await asyncio.gather(*(service.ppr_top_k("toy", t) for t in targets))
        await service.sparql("toy", "select ?s ?p ?o where { ?s ?p ?o }")

    run(scenario())
    snapshot = service.metrics_snapshot()
    assert snapshot["requests"]["ppr"]["completed"] == len(targets)
    assert snapshot["requests"]["sparql"]["completed"] == 1
    assert snapshot["requests"]["ppr"]["p95_ms"] >= snapshot["requests"]["ppr"]["p50_ms"] >= 0
    assert snapshot["coalescing"]["batches"] >= 1
    assert snapshot["coalescing"]["batch_occupancy"] > 1.0  # coalescing happened
    graph = snapshot["graphs"]["toy"]
    assert graph["artifact_cache"]["builds"] >= 1
    assert graph["artifact_cache"]["hits"] >= 1
    assert graph["endpoint"]["requests"] == 1
    assert snapshot["config"]["coalesce"] is True
    # The snapshot is an exportable artifact: must be JSON-serializable.
    import json

    json.dumps(snapshot)


def test_invalid_max_pending_rejected():
    with pytest.raises(ValueError):
        ExtractionService(max_pending=0)


class _TwoOwners:
    """A pool stand-in whose graphs each have two owning workers; every
    call is held until ``gate`` is set."""

    def __init__(self):
        self.gate = threading.Event()
        self.calls = []

    def register(self, name, kg, warm=True, mmap_dir=None):
        return self.shards_of(name)

    def shards_of(self, name):
        return [0, 1]

    def call(self, op, payload):
        self.calls.append(list(payload["targets"]))
        self.gate.wait(timeout=10)
        return [[] for _ in payload["targets"]]


def test_two_owners_run_two_batches_of_one_key_at_once(toy_kg):
    pool = _TwoOwners()
    service = ExtractionService(pool=pool)
    service.register("toy", toy_kg)

    async def scenario():
        requests = [asyncio.ensure_future(service.ppr_top_k("toy", t)) for t in range(4)]
        deadline = time.monotonic() + 5.0
        while len(pool.calls) < 2 and time.monotonic() < deadline:
            await asyncio.sleep(0.001)
        await asyncio.sleep(0.02)
        # One lane per owner: two batches run, the other two requests wait.
        assert sorted(pool.calls) == [[0], [1]]
        pool.gate.set()
        return await asyncio.gather(*requests)

    assert run(scenario()) == [[]] * 4
    assert pool.calls[2:] == [[2, 3]]

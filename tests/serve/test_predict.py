"""/predict: batched inference vs the scalar oracle, routing, caching.

The contract under test is the serving tentpole: coalesced /predict
windows (extraction→inference pipelining through the batch PPR kernel
and one vectorized scoring pass) must be **bit-identical** to the
retained one-request-at-a-time scalar oracle — in-process, over HTTP,
and across the worker-pool process boundary — while query-aware routing
and the bounded result cache stay observable through /metrics.
"""

import asyncio
import json
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import urlencode

import numpy as np
import pytest

from repro.core.tasks import LinkPredictionTask, Split
from repro.models import (
    ModelConfig,
    RGCNLinkPredictor,
    RGCNNodeClassifier,
    SeHGNNClassifier,
)
from repro.nn.checkpoint import CheckpointError, save_checkpoint
from repro.serve import (
    ExtractionService,
    ModelRegistry,
    WorkerCrashed,
    WorkerPool,
    bound_port,
    serve_http,
    serve_tcp,
)
from repro.serve import service as service_module

CONFIG = ModelConfig(hidden_dim=16, num_layers=2, dropout=0.0, lr=0.05, batch_size=16, seed=3)


def run(coroutine):
    return asyncio.run(coroutine)


def _train(model, epochs=3):
    rng = np.random.default_rng(0)
    for _ in range(epochs):
        model.train_epoch(rng)
    return model


def _lp_task(toy_kg):
    papers = np.asarray([toy_kg.node_vocab.id(f"p{i}") for i in range(6)])
    authors = np.asarray([toy_kg.node_vocab.id(f"a{i}") for i in range(3)])
    return LinkPredictionTask(
        name="HA",
        predicate=toy_kg.relation_vocab.id("hasAuthor"),
        head_class=toy_kg.class_vocab.id("Paper"),
        tail_class=toy_kg.class_vocab.id("Author"),
        edges=np.stack([papers, np.repeat(authors, 2)], axis=1),
        split=Split(np.arange(4), np.asarray([4]), np.asarray([5])),
    )


@pytest.fixture
def nc_checkpoint(toy_kg, toy_task, tmp_path):
    model = _train(RGCNNodeClassifier(toy_kg, toy_task, CONFIG))
    path = str(tmp_path / "nc-rgcn.ckpt")
    save_checkpoint(model, path, metrics={"test_metric": 0.9})
    return path


@pytest.fixture
def nc_checkpoint_sehgnn(toy_kg, toy_task, tmp_path):
    model = _train(SeHGNNClassifier(toy_kg, toy_task, CONFIG))
    path = str(tmp_path / "nc-sehgnn.ckpt")
    save_checkpoint(model, path, metrics={"test_metric": 0.5})
    return path


@pytest.fixture
def lp_checkpoint(toy_kg, tmp_path):
    model = _train(RGCNLinkPredictor(toy_kg, _lp_task(toy_kg), CONFIG))
    path = str(tmp_path / "lp-rgcn.ckpt")
    save_checkpoint(model, path, metrics={"test_metric": 0.7})
    return path


def make_service(kg, checkpoints, **kwargs):
    service = ExtractionService(**kwargs)
    service.register("toy", kg)
    for path in checkpoints:
        service.register_checkpoint("toy", path)
    return service


async def _gather_predicts(service, task, items, field="node", **kwargs):
    return await asyncio.gather(
        *(service.predict("toy", task, **{field: item}, **kwargs) for item in items)
    )


# -- bit-exactness: batched path == scalar oracle ------------------------------


def test_nc_predict_matches_scalar_oracle(toy_kg, toy_task, nc_checkpoint):
    targets = [int(t) for t in toy_task.target_nodes]
    coalesced = make_service(toy_kg, [nc_checkpoint], max_batch=4)
    serial = make_service(toy_kg, [nc_checkpoint], coalesce=False)

    batched = run(_gather_predicts(coalesced, "PV", targets))
    oracle = run(_gather_predicts(serial, "PV", targets))
    assert batched == oracle
    for payload, target in zip(batched, targets):
        assert payload["task_type"] == "NC"
        assert payload["model"] == "RGCN"
        assert payload["node"] == target
        assert payload["label"] == int(np.argmax(payload["scores"]))


@pytest.mark.parametrize("candidates", [0, 4])
def test_lp_predict_matches_scalar_oracle(toy_kg, lp_checkpoint, candidates):
    heads = [int(h) for h in _lp_task(toy_kg).edges[:, 0]]
    coalesced = make_service(toy_kg, [lp_checkpoint], max_batch=4)
    serial = make_service(toy_kg, [lp_checkpoint], coalesce=False)

    batched = run(_gather_predicts(
        coalesced, "HA", heads, field="head", k=3, candidates=candidates
    ))
    oracle = run(_gather_predicts(
        serial, "HA", heads, field="head", k=3, candidates=candidates
    ))
    assert batched == oracle
    for payload in batched:
        assert payload["task_type"] == "LP"
        assert len(payload["tails"]) == len(payload["scores"]) <= 3
        # Ranked score-descending with deterministic id tie-breaks.
        assert payload["scores"] == sorted(payload["scores"], reverse=True)


def test_mixed_task_traffic_shares_one_service(toy_kg, toy_task, nc_checkpoint, lp_checkpoint):
    service = make_service(toy_kg, [nc_checkpoint, lp_checkpoint], max_batch=8)
    node = int(toy_task.target_nodes[0])
    head = int(_lp_task(toy_kg).edges[0, 0])

    async def scenario():
        return await asyncio.gather(
            service.predict("toy", "PV", node=node),
            service.predict("toy", "HA", head=head, k=2),
        )

    nc, lp = run(scenario())
    assert nc["task_type"] == "NC" and lp["task_type"] == "LP"


def test_pooled_predict_bit_identical(toy_kg, toy_task, nc_checkpoint, lp_checkpoint):
    targets = [int(t) for t in toy_task.target_nodes]
    heads = [int(h) for h in _lp_task(toy_kg).edges[:, 0]]

    async def both(service):
        nc = await _gather_predicts(service, "PV", targets)
        lp = await _gather_predicts(service, "HA", heads, field="head", candidates=4)
        return nc, lp

    serial = make_service(toy_kg, [nc_checkpoint, lp_checkpoint], coalesce=False)
    nc_oracle, lp_oracle = run(both(serial))

    with WorkerPool(workers=2) as pool:
        pooled = make_service(toy_kg, [nc_checkpoint, lp_checkpoint], pool=pool)
        nc_pooled, lp_pooled = run(both(pooled))
    assert nc_pooled == nc_oracle
    assert lp_pooled == lp_oracle


# -- respawn: checkpoints are replayed like graph registrations ----------------


def test_pool_respawn_replays_checkpoints(toy_kg, toy_task, nc_checkpoint):
    target = int(toy_task.target_nodes[0])
    with WorkerPool(workers=1) as pool:
        service = make_service(toy_kg, [nc_checkpoint], pool=pool)
        before = run(service.predict("toy", "PV", node=target))

        inflight = pool._workers[0].request("sleep", {"seconds": 60})
        os.kill(pool.worker_pids()[0], signal.SIGKILL)
        with pytest.raises(WorkerCrashed):
            inflight.result(timeout=30)

        assert pool.ping(0) == "pong"
        # Fresh cache epoch state lives parent-side; bypass the result
        # cache to prove the *worker* re-registered the checkpoint path.
        service._predict_cache.clear()
        assert run(service.predict("toy", "PV", node=target)) == before


# -- query-aware routing -------------------------------------------------------


def test_routing_prefers_best_metric_without_budget(
    toy_kg, toy_task, nc_checkpoint, nc_checkpoint_sehgnn
):
    service = make_service(toy_kg, [nc_checkpoint, nc_checkpoint_sehgnn])
    # RGCN recorded test_metric 0.9 vs SeHGNN's 0.5.
    assert service._route_predict("toy", "PV", None) == "RGCN"
    payload = run(service.predict("toy", "PV", node=int(toy_task.target_nodes[0])))
    assert payload["model"] == "RGCN"


def test_routing_budget_picks_cheapest_fitting_model(
    toy_kg, toy_task, nc_checkpoint, nc_checkpoint_sehgnn
):
    service = make_service(toy_kg, [nc_checkpoint, nc_checkpoint_sehgnn])
    # Both models cold: every candidate optimistically fits, so the budget
    # does not change the quality-ranked choice.
    assert service._route_predict("toy", "PV", 5.0) == "RGCN"
    # Observed traffic: RGCN is slow (500ms EWMA), SeHGNN fast (1ms).
    service.metrics.record_completed("predict:RGCN", 0.5)
    service.metrics.record_completed("predict:SeHGNN", 0.001)
    # 10ms budget: the accurate model no longer fits; route to the one
    # that does.
    assert service._route_predict("toy", "PV", 10.0) == "SeHGNN"
    # Impossible budget: nothing fits; fall back to the fastest observed.
    assert service._route_predict("toy", "PV", 1e-6) == "SeHGNN"
    # No budget: accuracy wins regardless of latency.
    assert service._route_predict("toy", "PV", None) == "RGCN"
    payload = run(
        service.predict("toy", "PV", node=int(toy_task.target_nodes[0]), budget_ms=10.0)
    )
    assert payload["model"] == "SeHGNN"


def test_model_pin_overrides_routing(toy_kg, toy_task, nc_checkpoint, nc_checkpoint_sehgnn):
    service = make_service(toy_kg, [nc_checkpoint, nc_checkpoint_sehgnn])
    payload = run(
        service.predict("toy", "PV", node=int(toy_task.target_nodes[0]), model="SeHGNN")
    )
    assert payload["model"] == "SeHGNN"


# -- result cache --------------------------------------------------------------


def test_result_cache_hits_and_metrics(toy_kg, toy_task, nc_checkpoint):
    service = make_service(toy_kg, [nc_checkpoint])
    target = int(toy_task.target_nodes[0])

    async def scenario():
        first = await service.predict("toy", "PV", node=target)
        second = await service.predict("toy", "PV", node=target)
        other = await service.predict("toy", "PV", node=int(toy_task.target_nodes[1]))
        return first, second, other

    first, second, other = run(scenario())
    assert first == second and other != first
    predict = service.metrics_snapshot()["predict"]
    assert predict["cache"]["hits"] == 1
    assert predict["cache"]["misses"] == 2
    assert predict["cache"]["size"] == 2
    registry = predict["registry"]
    assert registry["loads"] == 1  # one checkpoint parse served every request
    assert registry["checkpoints"][0]["architecture"] == "RGCN"
    assert registry["checkpoints"][0]["loaded"]


def test_result_cache_is_bounded_lru(toy_kg, toy_task, nc_checkpoint, monkeypatch):
    monkeypatch.setattr(service_module, "PREDICT_CACHE_SIZE", 2)
    service = make_service(toy_kg, [nc_checkpoint])
    targets = [int(t) for t in toy_task.target_nodes[:4]]
    run(_gather_predicts(service, "PV", targets))
    assert len(service._predict_cache) == 2


def test_serial_mode_never_caches(toy_kg, toy_task, nc_checkpoint):
    service = make_service(toy_kg, [nc_checkpoint], coalesce=False)
    target = int(toy_task.target_nodes[0])

    async def scenario():
        await service.predict("toy", "PV", node=target)
        await service.predict("toy", "PV", node=target)

    run(scenario())
    cache = service.metrics_snapshot()["predict"]["cache"]
    assert cache["hits"] == 0 and cache["size"] == 0


# -- validation and error paths ------------------------------------------------


def test_predict_request_validation(toy_kg, toy_task, nc_checkpoint):
    service = make_service(toy_kg, [nc_checkpoint])
    target = int(toy_task.target_nodes[0])
    with pytest.raises(ValueError, match="exactly one"):
        run(service.predict("toy", "PV", node=target, head=target))
    with pytest.raises(ValueError, match="exactly one"):
        run(service.predict("toy", "PV"))
    with pytest.raises(ValueError, match="k must be"):
        run(service.predict("toy", "PV", node=target, k=0))
    with pytest.raises(ValueError, match="candidates must be"):
        run(service.predict("toy", "PV", node=target, candidates=-1))
    with pytest.raises(ValueError, match="no checkpoint serves task 'XX'"):
        run(service.predict("toy", "XX", node=target))
    with pytest.raises(ValueError, match="no SeHGNN checkpoint"):
        run(service.predict("toy", "PV", node=target, model="SeHGNN"))
    with pytest.raises(KeyError, match="unknown graph"):
        run(service.predict("nope", "PV", node=target))


def test_bad_item_fails_its_request_not_the_window(toy_kg, toy_task, nc_checkpoint, lp_checkpoint):
    service = make_service(toy_kg, [nc_checkpoint, lp_checkpoint], max_batch=8)
    good = int(toy_task.target_nodes[0])
    movie = int(toy_kg.node_vocab.id("m0"))  # not a PV target

    async def scenario():
        results = await asyncio.gather(
            service.predict("toy", "PV", node=good),
            service.predict("toy", "PV", node=movie),
            service.predict("toy", "HA", head=toy_kg.num_nodes + 5),
            return_exceptions=True,
        )
        return results

    ok, bad_nc, bad_lp = run(scenario())
    assert ok["node"] == good
    assert isinstance(bad_nc, ValueError) and "not a target" in str(bad_nc)
    assert isinstance(bad_lp, ValueError) and "out of range" in str(bad_lp)


def test_registry_rejects_skew_and_conflicts(toy_kg, toy_task, nc_checkpoint, tmp_path):
    registry = ModelRegistry()
    registry.add("toy", nc_checkpoint, expected_graph="toy")
    assert registry.add("toy", nc_checkpoint) == registry.meta("toy", "PV", "RGCN")
    with pytest.raises(CheckpointError, match="serves 'elsewhere'"):
        registry.add("toy", nc_checkpoint, expected_graph="elsewhere")
    other = str(tmp_path / "other.ckpt")
    save_checkpoint(RGCNNodeClassifier(toy_kg, toy_task, CONFIG), other)
    with pytest.raises(ValueError, match="already serves task 'PV'"):
        registry.add("toy", other)


def test_registry_builds_logits_once_for_concurrent_callers(
    toy_kg, nc_checkpoint, monkeypatch
):
    """Windows that arrive during a first build wait for it: one pass."""
    from repro.nn.checkpoint import load_checkpoint

    expected = load_checkpoint(nc_checkpoint).build_model(toy_kg).predict_logits()
    original, passes = RGCNNodeClassifier.predict_logits, []

    def slow_pass(model):
        passes.append(model)
        time.sleep(0.2)  # every caller arrives while the first pass runs
        return original(model)

    monkeypatch.setattr(RGCNNodeClassifier, "predict_logits", slow_pass)
    registry = ModelRegistry()
    registry.add("toy", nc_checkpoint, expected_graph="toy")
    barrier = threading.Barrier(8)

    def call():
        barrier.wait()
        return registry.logits("toy", "PV", "RGCN", toy_kg)

    with ThreadPoolExecutor(8) as executor:
        answers = list(executor.map(lambda _: call(), range(8)))
    assert len(passes) == 1
    assert all(np.array_equal(answer, expected) for answer in answers)
    assert registry.snapshot()["loads"] == 1


def test_registry_retries_a_build_that_raised(toy_kg, nc_checkpoint, monkeypatch):
    original, passes = RGCNNodeClassifier.predict_logits, []

    def failing_once(model):
        passes.append(model)
        if len(passes) == 1:
            raise RuntimeError("transient")
        return original(model)

    monkeypatch.setattr(RGCNNodeClassifier, "predict_logits", failing_once)
    registry = ModelRegistry()
    registry.add("toy", nc_checkpoint, expected_graph="toy")
    with pytest.raises(RuntimeError, match="transient"):
        registry.logits("toy", "PV", "RGCN", toy_kg)
    logits = registry.logits("toy", "PV", "RGCN", toy_kg)
    assert len(passes) == 2
    assert registry.logits("toy", "PV", "RGCN", toy_kg) is logits


# -- front ends ----------------------------------------------------------------


def _http_scenario(kg, checkpoints, calls, **service_kwargs):
    async def scenario():
        service = ExtractionService(**service_kwargs)
        service.register("toy", kg)
        for path in checkpoints:
            service.register_checkpoint("toy", path)
        server = await serve_http(service, port=0)
        async with server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", bound_port(server)
            )
            try:
                return await calls(reader, writer), service
            finally:
                writer.close()
                await writer.wait_closed()

    return asyncio.run(scenario())


async def _http_get(reader, writer, path):
    from repro.serve.loadgen import read_http_response

    writer.write(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode("latin-1"))
    await writer.drain()
    status, _headers, body, _chunks = await read_http_response(reader)
    return status, json.loads(body) if body else None


def test_http_predict_end_to_end(toy_kg, toy_task, nc_checkpoint, lp_checkpoint):
    node = int(toy_task.target_nodes[0])
    head = int(_lp_task(toy_kg).edges[0, 0])

    async def calls(reader, writer):
        return [
            await _http_get(
                reader, writer, "/predict?" + urlencode({"graph": "toy", "task": "PV", "node": node})
            ),
            await _http_get(
                reader, writer,
                "/predict?" + urlencode({
                    "graph": "toy", "task": "HA", "head": head, "k": 2, "candidates": 4,
                }),
            ),
            await _http_get(reader, writer, "/predict?graph=toy&task=PV"),
            await _http_get(
                reader, writer, f"/predict?graph=toy&task=PV&node={node}&head={head}"
            ),
            await _http_get(reader, writer, f"/predict?graph=nope&task=PV&node={node}"),
            await _http_get(reader, writer, f"/predict?graph=toy&task=XX&node={node}"),
        ]

    responses, service = _http_scenario(toy_kg, [nc_checkpoint, lp_checkpoint], calls)
    (nc_status, nc_payload), (lp_status, lp_payload) = responses[0], responses[1]
    assert nc_status == 200 and lp_status == 200
    # The wire payload is the in-process payload, JSON round-tripped
    # exactly (repr round-trip preserves float bits).
    fresh = _rebuild(toy_kg, [nc_checkpoint])
    expected = run(fresh.predict("toy", "PV", node=node))
    assert nc_payload == expected
    assert lp_payload["tails"] and len(lp_payload["tails"]) <= 2
    for status, payload in responses[2:4]:
        assert status == 400 and "exactly one" in payload["detail"]
    assert responses[4][0] == 404
    assert responses[5][0] == 400 and "no checkpoint serves task" in responses[5][1]["detail"]


def _rebuild(kg, checkpoints):
    fresh = ExtractionService()
    fresh.register("toy", kg)
    for path in checkpoints:
        fresh.register_checkpoint("toy", path)
    return fresh


def test_tcp_predict_over_the_wire(toy_kg, toy_task, nc_checkpoint):
    node = int(toy_task.target_nodes[0])

    async def scenario():
        service = ExtractionService()
        service.register("toy", toy_kg)
        service.register_checkpoint("toy", nc_checkpoint)
        server = await serve_tcp(service, port=0)
        async with server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", bound_port(server)
            )
            requests = [
                {"op": "predict", "graph": "toy", "task": "PV", "node": node},
                {"op": "predict", "graph": "toy", "task": "PV"},
            ]
            responses = []
            for request in requests:
                writer.write(json.dumps(request).encode() + b"\n")
                await writer.drain()
                responses.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
        expected = await service.predict("toy", "PV", node=node)
        return responses, expected

    responses, expected = run(scenario())
    assert responses[0]["ok"] and responses[0]["result"] == expected
    assert not responses[1]["ok"]
    assert responses[1]["error"] == "bad_request"
    assert "exactly one" in responses[1]["detail"]

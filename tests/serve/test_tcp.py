"""TCP front end: the ndjson request/response protocol."""

import asyncio
import json

from repro.kg.cache import artifacts_for
from repro.models.shadowsaint import extract_ego
from repro.sampling.ppr import ppr_top_k
from repro.serve import ExtractionService, bound_port, serve_tcp


async def _roundtrip(port, requests):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    responses = []
    for request in requests:
        writer.write(json.dumps(request).encode() + b"\n")
        await writer.drain()
        responses.append(json.loads(await reader.readline()))
    writer.close()
    await writer.wait_closed()
    return responses


def serve_and_send(kg, requests, **service_kwargs):
    async def scenario():
        service = ExtractionService(**service_kwargs)
        service.register("toy", kg)
        server = await serve_tcp(service, port=0)
        async with server:
            return await _roundtrip(bound_port(server), requests)

    return asyncio.run(scenario())


def test_ping_graphs_and_metrics(toy_kg):
    responses = serve_and_send(
        toy_kg, [{"op": "ping"}, {"op": "graphs"}, {"op": "metrics"}]
    )
    assert responses[0] == {"ok": True, "result": "pong"}
    assert responses[1] == {"ok": True, "result": ["toy"]}
    assert responses[2]["ok"] and "admission" in responses[2]["result"]


def test_ppr_over_the_wire_matches_oracle(toy_kg, toy_task):
    target = int(toy_task.target_nodes[0])
    [response] = serve_and_send(
        toy_kg, [{"op": "ppr", "graph": "toy", "target": target, "k": 8}]
    )
    assert response["ok"]
    expected = ppr_top_k(artifacts_for(toy_kg).csr("both"), target, 8)
    assert response["result"] == [[node, score] for node, score in expected]


def test_ego_over_the_wire_matches_oracle(toy_kg, toy_task):
    root = int(toy_task.target_nodes[1])
    [response] = serve_and_send(
        toy_kg,
        [{"op": "ego", "graph": "toy", "root": root, "depth": 2, "fanout": 3, "salt": 9}],
    )
    assert response["ok"]
    expected = extract_ego(toy_kg, root, depth=2, fanout=3, salt=9)
    assert response["result"]["nodes"] == [int(v) for v in expected.nodes]
    assert response["result"]["rel"] == [int(v) for v in expected.rel]


def test_sparql_and_count_over_the_wire(toy_kg):
    query = "select ?s ?p ?o where { ?s ?p ?o }"
    responses = serve_and_send(
        toy_kg,
        [
            {"op": "sparql", "graph": "toy", "query": query},
            {"op": "count", "graph": "toy", "query": query},
        ],
    )
    assert responses[0]["ok"]
    assert responses[0]["result"]["num_rows"] == toy_kg.num_edges
    assert responses[1] == {"ok": True, "result": toy_kg.num_edges}


def test_bad_requests_answer_structured_errors_without_closing(toy_kg):
    responses = serve_and_send(
        toy_kg,
        [
            {"op": "warp"},
            {"op": "ppr", "graph": "missing", "target": 0},
            {"op": "ppr", "graph": "toy"},  # no target
            {"op": "ppr", "graph": "toy", "target": "eleventy"},  # mistyped
            {"op": "sparql", "graph": "toy"},  # no query
            {"op": "ego", "graph": "toy"},  # no root
            {"op": "ping"},  # connection must still be alive
        ],
    )
    assert [r["ok"] for r in responses] == [False] * 6 + [True]
    assert responses[0]["error"] == "bad_request"
    assert "unknown op" in responses[0]["detail"]
    # A missing graph is a structured unknown_graph error, not a KeyError
    # server error.
    assert responses[1]["error"] == "unknown_graph"
    assert "missing" in responses[1]["detail"]
    # A missing/mistyped field is a structured bad_request naming the
    # field, not an opaque KeyError.
    assert responses[2]["error"] == "bad_request"
    assert "'target'" in responses[2]["detail"]
    assert responses[3]["error"] == "bad_request"
    assert "'target'" in responses[3]["detail"]
    assert responses[4]["error"] == "bad_request"
    assert "'query'" in responses[4]["detail"]
    assert responses[5]["error"] == "bad_request"
    assert "'root'" in responses[5]["detail"]
    for response in responses[:6]:
        assert "KeyError" not in json.dumps(response)


def test_boolean_field_values_answer_bad_request(toy_kg):
    """JSON true must not cast to target=1 and return a wrong answer."""
    [response] = serve_and_send(
        toy_kg, [{"op": "ppr", "graph": "toy", "target": True}]
    )
    assert response["ok"] is False
    assert response["error"] == "bad_request"
    assert "'target'" in response["detail"]


def test_out_of_range_kernel_parameter_answers_bad_request(toy_kg, toy_task):
    target = int(toy_task.target_nodes[0])
    [response] = serve_and_send(
        toy_kg, [{"op": "ppr", "graph": "toy", "target": target, "alpha": 7}]
    )
    assert response["ok"] is False
    assert response["error"] == "bad_request"


def test_non_object_request_line_answers_bad_request(toy_kg):
    async def scenario():
        service = ExtractionService()
        service.register("toy", toy_kg)
        server = await serve_tcp(service, port=0)
        async with server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", bound_port(server)
            )
            writer.write(b"[1, 2, 3]\n")
            await writer.drain()
            response = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            return response

    response = asyncio.run(scenario())
    assert response["ok"] is False
    assert response["error"] == "bad_request"
    assert "JSON object" in response["detail"]


def test_unparseable_line_answers_error(toy_kg):
    async def scenario():
        service = ExtractionService()
        service.register("toy", toy_kg)
        server = await serve_tcp(service, port=0)
        async with server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", bound_port(server)
            )
            writer.write(b"this is not json\n")
            await writer.drain()
            response = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            return response

    response = asyncio.run(scenario())
    assert response["ok"] is False


def test_pipelined_requests_on_one_connection_coalesce(toy_kg, toy_task):
    """All lines written up front: handled concurrently, answered in order."""
    targets = [int(t) for t in toy_task.target_nodes]

    async def scenario():
        service = ExtractionService(max_batch=len(targets))
        service.register("toy", toy_kg)
        server = await serve_tcp(service, port=0)
        async with server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", bound_port(server)
            )
            for target in targets:
                writer.write(
                    json.dumps({"op": "ppr", "graph": "toy", "target": target}).encode()
                    + b"\n"
                )
            await writer.drain()
            responses = [json.loads(await reader.readline()) for _ in targets]
            writer.close()
            await writer.wait_closed()
        return service, responses

    service, responses = asyncio.run(scenario())
    adjacency = artifacts_for(toy_kg).csr("both")
    for target, response in zip(targets, responses):  # in request order
        expected = ppr_top_k(adjacency, target, 16)
        assert response["result"] == [[node, score] for node, score in expected]
    # One connection's pipeline shared coalescing windows.
    assert service.metrics.batch_occupancy() > 1.0


def test_concurrent_wire_clients_coalesce(toy_kg, toy_task):
    targets = [int(t) for t in toy_task.target_nodes]

    async def scenario():
        service = ExtractionService(max_batch=len(targets))
        service.register("toy", toy_kg)
        server = await serve_tcp(service, port=0)
        async with server:
            port = bound_port(server)
            responses = await asyncio.gather(
                *(
                    _roundtrip(port, [{"op": "ppr", "graph": "toy", "target": t}])
                    for t in targets
                )
            )
        return service, [r[0] for r in responses]

    service, responses = asyncio.run(scenario())
    adjacency = artifacts_for(toy_kg).csr("both")
    for target, response in zip(targets, responses):
        expected = ppr_top_k(adjacency, target, 16)
        assert response["result"] == [[node, score] for node, score in expected]
    # Independent connections still shared batches through the scheduler.
    assert service.metrics.batch_occupancy() > 1.0


def test_triples_ingest_over_the_wire_bumps_the_epoch(toy_kg):
    rows = [[0, 0, 1], [1, 0, 2]]
    responses = serve_and_send(
        toy_kg,
        [
            {"op": "triples", "graph": "toy", "triples": rows},
            {"op": "triples", "graph": "toy", "triples": [[toy_kg.num_nodes, 0, 0]]},
            {"op": "triples", "graph": "toy"},
            {"op": "ping"},
        ],
    )
    assert responses[0]["ok"]
    assert responses[0]["result"] == {
        "graph": "toy", "added": 2, "epoch": 1, "delta_rows": 2,
        "compacted": False,
    }
    # Id-minting payloads and missing fields answer structured errors
    # without closing the connection; the pipelined ping still lands.
    assert not responses[1]["ok"] and responses[1]["error"] == "bad_request"
    assert not responses[2]["ok"] and responses[2]["error"] == "bad_request"
    assert responses[3] == {"ok": True, "result": "pong"}

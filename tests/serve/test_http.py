"""HTTP/SPARQL-protocol front end: endpoints, streaming, backpressure."""

import asyncio
import json
from urllib.parse import quote, urlencode

from repro.kg.cache import artifacts_for
from repro.models.shadowsaint import extract_ego
from repro.sampling.ppr import ppr_top_k
from repro.serve import ExtractionService, bound_port, serve_http
from repro.sparql.endpoint import SparqlEndpoint

from repro.serve.loadgen import read_http_response as _read_response

ALL_TRIPLES = "select ?s ?p ?o where { ?s ?p ?o }"


async def _request(reader, writer, method, target, body=None, headers=()):
    lines = [f"{method} {target} HTTP/1.1", "Host: test"]
    lines.extend(f"{name}: {value}" for name, value in headers)
    payload = b"" if body is None else body
    if body is not None:
        lines.append(f"Content-Length: {len(payload)}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload)
    await writer.drain()
    return await _read_response(reader)


def serve_and_call(kg, calls, **service_kwargs):
    """Start an HTTP server over ``kg``; run ``calls(reader, writer)``."""

    async def scenario():
        service = ExtractionService(**service_kwargs)
        service.register("toy", kg)
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


def test_ping_graphs_and_metrics(toy_kg):
    async def calls(reader, writer):
        return [
            await _request(reader, writer, "GET", path)
            for path in ("/ping", "/graphs", "/metrics")
        ]

    responses, _service = serve_and_call(toy_kg, calls)
    statuses = [status for status, _h, _b, _c in responses]
    assert statuses == [200, 200, 200]
    assert json.loads(responses[0][2]) == "pong"
    assert json.loads(responses[1][2]) == ["toy"]
    metrics = json.loads(responses[2][2])
    assert "admission" in metrics and "coalescing" in metrics
    for _status, headers, _body, _chunks in responses:
        assert headers["content-type"] == "application/json"


def test_sparql_get_returns_valid_results_json(toy_kg):
    async def calls(reader, writer):
        return await _request(
            reader, writer, "GET", f"/sparql?query={quote(ALL_TRIPLES)}"
        )

    (status, headers, body, _chunks), _service = serve_and_call(toy_kg, calls)
    assert status == 200
    assert headers["content-type"] == "application/sparql-results+json"
    assert headers["transfer-encoding"] == "chunked"
    payload = json.loads(body)
    assert payload["head"]["vars"] == ["s", "p", "o"]
    bindings = payload["results"]["bindings"]
    assert len(bindings) == toy_kg.num_edges
    # Every binding value is a typed integer literal indexing the vocab.
    first = bindings[0]["s"]
    assert first["type"] == "literal"
    assert first["datatype"].endswith("#integer")
    int(first["value"])


def test_sparql_post_bodies(toy_kg):
    query = ALL_TRIPLES + " limit 4"

    async def calls(reader, writer):
        urlencoded = await _request(
            reader, writer, "POST", "/sparql",
            body=urlencode({"query": query}).encode(),
            headers=[("Content-Type", "application/x-www-form-urlencoded")],
        )
        direct = await _request(
            reader, writer, "POST", "/sparql",
            body=query.encode(),
            headers=[("Content-Type", "application/sparql-query")],
        )
        return urlencoded, direct

    (urlencoded, direct), _service = serve_and_call(toy_kg, calls)
    for status, _headers, body, _chunks in (urlencoded, direct):
        assert status == 200
        assert len(json.loads(body)["results"]["bindings"]) == 4


def test_streamed_pages_concatenate_to_the_unpaged_result(toy_kg):
    """Chunked pages, concatenated, must be bit-exact with one-shot reads."""

    async def calls(reader, writer):
        paged = await _request(
            reader, writer, "GET", f"/sparql?query={quote(ALL_TRIPLES)}&page_rows=3"
        )
        unpaged = await _request(
            reader, writer, "GET",
            f"/sparql?query={quote(ALL_TRIPLES)}&page_rows=1000000",
        )
        return paged, unpaged

    (paged, unpaged), _service = serve_and_call(toy_kg, calls)
    assert paged[0] == unpaged[0] == 200
    # page_rows=3 over 13 rows -> head + 5 page chunks + tail.
    expected_pages = -(-toy_kg.num_edges // 3)
    assert paged[3] == expected_pages + 2
    assert unpaged[3] == 1 + 2
    assert json.loads(paged[2]) == json.loads(unpaged[2])
    # And both match the in-process endpoint, value for value.
    result = SparqlEndpoint(toy_kg).query(ALL_TRIPLES)
    bindings = json.loads(paged[2])["results"]["bindings"]
    for variable in result.variables:
        assert [int(b[variable]["value"]) for b in bindings] == (
            result.columns[variable].tolist()
        )


def test_empty_result_streams_valid_json(toy_kg):
    query = "select ?s ?o where { ?s <noSuchRelation> ?o }"

    async def calls(reader, writer):
        return await _request(reader, writer, "GET", f"/sparql?query={quote(query)}")

    (status, _headers, body, _chunks), _service = serve_and_call(toy_kg, calls)
    assert status == 200
    assert json.loads(body) == {
        "head": {"vars": ["s", "o"]},
        "results": {"bindings": []},
    }


def test_ppr_and_ego_match_oracles(toy_kg, toy_task):
    target = int(toy_task.target_nodes[0])
    root = int(toy_task.target_nodes[1])

    async def calls(reader, writer):
        ppr = await _request(
            reader, writer, "GET", f"/ppr?graph=toy&target={target}&k=8"
        )
        ego = await _request(
            reader, writer, "POST", "/ego",
            body=json.dumps(
                {"graph": "toy", "root": root, "depth": 2, "fanout": 3, "salt": 9}
            ).encode(),
            headers=[("Content-Type", "application/json")],
        )
        return ppr, ego

    (ppr, ego), _service = serve_and_call(toy_kg, calls)
    assert ppr[0] == ego[0] == 200
    expected_ppr = ppr_top_k(artifacts_for(toy_kg).csr("both"), target, 8)
    assert json.loads(ppr[2]) == [[node, score] for node, score in expected_ppr]
    expected_ego = extract_ego(toy_kg, root, depth=2, fanout=3, salt=9)
    payload = json.loads(ego[2])
    assert payload["nodes"] == [int(v) for v in expected_ego.nodes]
    assert payload["rel"] == [int(v) for v in expected_ego.rel]


def test_error_statuses(toy_kg):
    cases = [
        ("GET", "/sparql", 400, "bad_request"),  # missing query
        ("GET", "/sparql?query=borked", 400, "bad_request"),  # syntax error
        ("GET", "/sparql?query=" + quote(ALL_TRIPLES) + "&graph=nope",
         404, "unknown_graph"),
        ("GET", "/sparql?query=" + quote(ALL_TRIPLES) + "&page_rows=0",
         400, "bad_request"),
        ("GET", "/ppr?graph=toy", 400, "bad_request"),  # missing target
        ("GET", "/ppr?graph=nope&target=0", 404, "unknown_graph"),
        ("GET", "/nope", 404, "not_found"),
        ("POST", "/metrics", 405, "method_not_allowed"),
    ]

    async def calls(reader, writer):
        responses = []
        for method, target, _status, _error in cases:
            responses.append(await _request(reader, writer, method, target))
        # The connection survives every error response.
        responses.append(await _request(reader, writer, "GET", "/ping"))
        return responses

    responses, _service = serve_and_call(toy_kg, calls)
    for (status, _headers, body, _chunks), (_m, _t, want_status, want_error) in zip(
        responses, cases
    ):
        assert status == want_status
        assert json.loads(body)["error"] == want_error
    assert responses[-1][0] == 200


def test_out_of_range_kernel_parameters_answer_400(toy_kg, toy_task):
    """Kernel ValueErrors (alpha/eps/k bounds) are client errors, not 500s."""
    target = int(toy_task.target_nodes[0])

    async def calls(reader, writer):
        return await _request(
            reader, writer, "GET", f"/ppr?graph=toy&target={target}&alpha=5"
        )

    (status, _headers, body, _chunks), _service = serve_and_call(toy_kg, calls)
    assert status == 400
    assert json.loads(body)["error"] == "bad_request"


def test_sparql_without_registered_graphs_answers_404():
    async def scenario():
        service = ExtractionService()  # nothing registered
        server = await serve_http(service, port=0)
        async with server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", bound_port(server)
            )
            try:
                return await _request(
                    reader, writer, "GET", f"/sparql?query={quote(ALL_TRIPLES)}"
                )
            finally:
                writer.close()
                await writer.wait_closed()

    status, _headers, body, _chunks = asyncio.run(scenario())
    assert status == 404
    assert json.loads(body) == {
        "error": "unknown_graph",
        "detail": "no graphs are registered",
    }


def test_negative_limit_is_rejected_over_http(toy_kg):
    query = ALL_TRIPLES + " limit -1"

    async def calls(reader, writer):
        return await _request(reader, writer, "GET", f"/sparql?query={quote(query)}")

    (status, _headers, body, _chunks), _service = serve_and_call(toy_kg, calls)
    assert status == 400
    assert "non-negative" in json.loads(body)["detail"]


def test_overload_maps_to_503_with_retry_after(toy_kg, toy_task, hold_dispatch):
    target = int(toy_task.target_nodes[0])
    gate = hold_dispatch("ppr")

    async def scenario():
        # A batch that never ends on its own: the first request parks
        # in flight until admission starts shedding.
        service = ExtractionService(max_pending=1, max_batch=1000)
        service.register("toy", toy_kg)
        server = await serve_http(service, port=0)
        async with server:
            port = bound_port(server)
            r1, w1 = await asyncio.open_connection("127.0.0.1", port)
            w1.write(
                f"GET /ppr?graph=toy&target={target} HTTP/1.1\r\n"
                "Host: test\r\n\r\n".encode()
            )
            await w1.drain()
            await asyncio.sleep(0.05)  # let it get admitted and parked
            r2, w2 = await asyncio.open_connection("127.0.0.1", port)
            shed = await _request(r2, w2, "GET", f"/ppr?graph=toy&target={target}")
            gate.set()
            await service.drain()
            first = await _read_response(r1)
            for w in (w1, w2):
                w.close()
                await w.wait_closed()
            return shed, first

    shed, first = asyncio.run(scenario())
    status, headers, body, _chunks = shed
    assert status == 503
    payload = json.loads(body)
    assert payload["error"] == "overloaded"
    assert payload["retry_after"] > 0
    # RFC 9110 Retry-After: whole seconds, at least 1.
    assert int(headers["retry-after"]) >= 1
    assert first[0] == 200  # the parked request completed once released


def test_connection_close_is_honored(toy_kg):
    async def calls(reader, writer):
        status, headers, _body, _chunks = await _request(
            reader, writer, "GET", "/ping", headers=[("Connection", "close")]
        )
        eof = await reader.read()
        return status, headers, eof

    (status, headers, eof), _service = serve_and_call(toy_kg, calls)
    assert status == 200
    assert headers.get("connection") == "close"
    assert eof == b""


def test_pipelined_http_requests_coalesce(toy_kg, toy_task):
    """All requests written up front share coalescing windows, in order."""
    targets = [int(t) for t in toy_task.target_nodes]

    async def calls(reader, writer):
        for target in targets:
            writer.write(
                f"GET /ppr?graph=toy&target={target} HTTP/1.1\r\n"
                "Host: test\r\n\r\n".encode()
            )
        await writer.drain()
        return [await _read_response(reader) for _ in targets]

    responses, service = serve_and_call(
        toy_kg, calls, max_batch=len(targets)
    )
    adjacency = artifacts_for(toy_kg).csr("both")
    for target, (status, _headers, body, _chunks) in zip(targets, responses):
        assert status == 200
        expected = ppr_top_k(adjacency, target, 16)
        assert json.loads(body) == [[node, score] for node, score in expected]
    assert service.metrics.batch_occupancy() > 1.0


def test_negative_content_length_answers_400_and_closes(toy_kg):
    async def calls(reader, writer):
        writer.write(b"GET /ping HTTP/1.1\r\nContent-Length: -1\r\n\r\n")
        await writer.drain()
        response = await _read_response(reader)
        eof = await reader.read()
        return response, eof

    (response, eof), _service = serve_and_call(toy_kg, calls)
    assert response[0] == 400
    assert "Content-Length" in json.loads(response[2])["detail"]
    assert eof == b""


def test_unbounded_header_section_answers_400(toy_kg):
    async def calls(reader, writer):
        writer.write(b"GET /ping HTTP/1.1\r\n")
        for index in range(3000):  # ~66 KB of headers, never terminated
            writer.write(f"X-Flood-{index}: padding-padding\r\n".encode())
        await writer.drain()
        return await _read_response(reader)

    response, _service = serve_and_call(toy_kg, calls)
    assert response[0] == 400
    assert "header section" in json.loads(response[2])["detail"]


def test_json_body_cannot_override_the_route_op(toy_kg, toy_task):
    """POST /ppr with {"op": "metrics"} must still run ppr."""
    target = int(toy_task.target_nodes[0])

    async def calls(reader, writer):
        return await _request(
            reader, writer, "POST", "/ppr",
            body=json.dumps(
                {"op": "metrics", "graph": "toy", "target": target, "k": 8}
            ).encode(),
            headers=[("Content-Type", "application/json")],
        )

    (status, _headers, body, _chunks), _service = serve_and_call(toy_kg, calls)
    assert status == 200
    expected = ppr_top_k(artifacts_for(toy_kg).csr("both"), target, 8)
    assert json.loads(body) == [[node, score] for node, score in expected]


def test_eof_mid_headers_drops_without_dispatch(toy_kg):
    async def scenario():
        service = ExtractionService()
        service.register("toy", toy_kg)
        server = await serve_http(service, port=0)
        async with server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", bound_port(server)
            )
            writer.write(b"GET /ppr?graph=toy&target=0 HTTP/1.1\r\n")
            await writer.drain()
            writer.close()  # die before the terminating blank line
            await writer.wait_closed()
            await asyncio.sleep(0.05)
        return service

    service = asyncio.run(scenario())
    assert service.metrics.accepted == 0  # the truncated request never ran


def test_malformed_request_line_answers_400_and_closes(toy_kg):
    async def calls(reader, writer):
        writer.write(b"NOT-HTTP\r\n\r\n")
        await writer.drain()
        response = await _read_response(reader)
        eof = await reader.read()
        return response, eof

    (response, eof), _service = serve_and_call(toy_kg, calls)
    assert response[0] == 400
    assert eof == b""

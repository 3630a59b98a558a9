"""The wire op table: validation and routes derived from one declaration.

Every case here is generated from :data:`repro.serve.wire.OP_TABLE`, so
an op added to the table is covered without new test code.  The last
test holds every front end to one error contract for a bad query.
"""

import asyncio
import json
from urllib.parse import urlencode

import pytest

from repro.serve import (
    ExtractionService,
    WorkerPool,
    bound_port,
    http,
    serve_http,
    serve_tcp,
    wire,
)
from repro.serve.loadgen import read_http_response
from repro.serve.wire import OP_TABLE, OPS, REQUIRED, BadRequest, perform_op

#: A valid value per cast, so one field can be tested in isolation.
SAMPLES = {int: 0, float: 0.5, wire.text: "x", wire.rows: []}

REQUIRED_FIELDS = [
    (op.name, name)
    for op in OP_TABLE
    if op.graph
    for name in ["graph"] + [f for f, _cast, default in op.fields if default is REQUIRED]
]
CAST_FIELDS = [
    (op.name, name)
    for op in OP_TABLE
    if op.graph
    for name in ["graph"] + [f for f, _cast, _default in op.fields]
]


def _valid_request(op: wire.Op) -> dict:
    """Every field of ``op`` present with a well-typed value."""
    request = {"op": op.name, "graph": "toy"}
    request.update({name: SAMPLES[cast] for name, cast, _default in op.fields})
    return request


@pytest.fixture
def service(toy_kg):
    service = ExtractionService()
    service.register("toy", toy_kg)
    return service


def _perform(service, request):
    return asyncio.run(perform_op(service, request))


@pytest.mark.parametrize("op_name,field", REQUIRED_FIELDS)
def test_missing_required_field_is_a_bad_request_naming_it(service, op_name, field):
    request = _valid_request(wire.OP_BY_NAME[op_name])
    del request[field]
    with pytest.raises(BadRequest, match=f"op '{op_name}' requires field '{field}'"):
        _perform(service, request)


@pytest.mark.parametrize("op_name,field", CAST_FIELDS)
def test_boolean_field_is_a_bad_request(service, op_name, field):
    request = _valid_request(wire.OP_BY_NAME[op_name])
    request[field] = True
    with pytest.raises(BadRequest, match=f"field '{field}' of op '{op_name}' must be"):
        _perform(service, request)


@pytest.mark.parametrize("op", ["warp", None, 7, ["ppr"], {"op": "ppr"}])
def test_unknown_op_is_a_bad_request(service, op):
    with pytest.raises(BadRequest, match="unknown op"):
        _perform(service, {"op": op, "graph": "toy"})


def test_observability_ops_take_no_fields(service):
    assert _perform(service, {"op": "ping"}) == "pong"
    assert _perform(service, {"op": "graphs"}) == ["toy"]
    assert "admission" in _perform(service, {"op": "metrics"})


def test_table_methods_exist_on_the_service():
    for op in OP_TABLE:
        assert callable(getattr(ExtractionService, op.method)), op.name


def test_ops_keep_their_documented_order():
    assert OPS == (
        "ping",
        "metrics",
        "graphs",
        "ppr",
        "ego",
        "paths",
        "predict",
        "sparql",
        "count",
        "triples",
    )


def test_http_routes_derive_from_the_table():
    assert http._OP_ROUTES == {
        "/ppr": (("GET", "POST"), "ppr"),
        "/ego": (("GET", "POST"), "ego"),
        "/paths": (("GET", "POST"), "paths"),
        "/predict": (("GET", "POST"), "predict"),
        "/triples": (("POST",), "triples"),
        "/metrics": (("GET",), "metrics"),
        "/graphs": (("GET",), "graphs"),
        "/ping": (("GET",), "ping"),
    }


UNBOUND = "select ?x where { ?s ?p ?o }"  # ?x is projected but never bound


async def _unbound_projection_answers(service):
    """TCP ``sparql`` / ``count`` and HTTP ``/sparql`` answers to :data:`UNBOUND`."""
    tcp = await serve_tcp(service, port=0)
    async with tcp:
        reader, writer = await asyncio.open_connection("127.0.0.1", bound_port(tcp))
        for op in ("sparql", "count"):
            request = {"op": op, "graph": "toy", "query": UNBOUND}
            writer.write(json.dumps(request).encode() + b"\n")
        await writer.drain()
        answers = [json.loads(await reader.readline()) for _ in range(2)]
        writer.close()
        await writer.wait_closed()
    web = await serve_http(service, port=0)
    async with web:
        reader, writer = await asyncio.open_connection("127.0.0.1", bound_port(web))
        writer.write(
            f"GET /sparql?graph=toy&{urlencode({'query': UNBOUND})} HTTP/1.1\r\n"
            "Host: test\r\nConnection: close\r\n\r\n".encode()
        )
        await writer.drain()
        status, _headers, body, _chunks = await read_http_response(reader)
        writer.close()
        await writer.wait_closed()
    return answers, status, json.loads(body)


@pytest.mark.parametrize("workers", [0, 1])
def test_unbound_projection_is_a_bad_request_on_every_front_end(toy_kg, workers):
    pool = WorkerPool(workers=workers) if workers else None
    try:
        service = ExtractionService(pool=pool)
        service.register("toy", toy_kg)
        answers, status, body = asyncio.run(_unbound_projection_answers(service))
    finally:
        if pool is not None:
            pool.close()
    for answer in answers:
        assert answer["ok"] is False and answer["error"] == "bad_request"
        assert "not bound" in answer["detail"]
    assert status == 400 and body["error"] == "bad_request"
    assert "not bound" in body["detail"]

"""Shared wire-layer core for the serving front ends.

Both front ends — newline-delimited JSON over TCP (``serve/tcp.py``) and
the HTTP/SPARQL-protocol server (``serve/http.py``) — share three things
that used to live inside the TCP module:

* **Request validation + dispatch** (:func:`perform_op`): one place that
  checks request shape (required fields, castable types) and routes the
  op to :class:`~repro.serve.service.ExtractionService`.  A missing or
  malformed field raises :class:`BadRequest` (→ structured
  ``bad_request`` over ndjson, ``400`` over HTTP) instead of surfacing an
  opaque ``KeyError`` server error; an unregistered graph raises
  :class:`UnknownGraph` (→ ``unknown_graph`` / ``404``).
* **Result encoding** (:func:`result_payload`): kernel results
  (ResultSet / ego graph / PPR top-k) to JSON-serializable payloads.
* **The pipelined connection loop** (:func:`serve_pipelined`): the reader
  spawns one handler task per frame so pipelined requests are handled
  *concurrently* (and can share coalescing windows), while responses are
  written back strictly in request order.  The writer keeps consuming the
  queue even after the peer stops reading, so the reader's ``put()`` can
  never deadlock.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, List, Optional

from repro.serve.service import ExtractionService
from repro.sparql.executor import ResultSet

# One request frame is bounded (queries are short); a huge line/header is a
# client bug, not a reason to buffer without limit.
MAX_LINE_BYTES = 1 << 20

# Requests a single connection may have in flight at once.  Pipelined
# requests are handled concurrently — so they can share coalescing windows
# and a slow op does not stall the ones behind it — while responses are
# written back in request order.
PIPELINE_DEPTH = 256

#: Every op :func:`perform_op` dispatches, in documentation order.  This
#: tuple is the single source of truth the docs checker
#: (``tools/check_docs.py --serving-ops``) cross-checks the op tables in
#: ``docs/serving.md`` and ``docs/live-graphs.md`` against — adding an op
#: here without documenting it (or vice versa) fails the docs CI tier.
OPS = (
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


class BadRequest(ValueError):
    """The request shape is invalid (missing/malformed field, unknown op)."""

    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail


class UnknownGraph(BadRequest):
    """The request names a graph that is not registered (HTTP: 404)."""


# -- request validation -------------------------------------------------------

_MISSING = object()


def text(value: Any) -> str:
    """Cast that accepts only actual strings (graph names, query text)."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _field(request: dict, name: str, op: str, cast, default=_MISSING):
    """Fetch + cast one request field, mapping failures to BadRequest."""
    value = request.get(name, _MISSING)
    if value is _MISSING:
        if default is not _MISSING:
            return default
        raise BadRequest(f"op {op!r} requires field {name!r}")
    try:
        if isinstance(value, bool):
            # JSON true/false would cast cleanly (int(True) == 1) and
            # return a silently wrong answer instead of an error.
            raise TypeError("booleans are not valid field values")
        return cast(value)
    except (TypeError, ValueError):
        raise BadRequest(
            f"field {name!r} of op {op!r} must be {cast.__name__}-compatible, "
            f"got {value!r}"
        ) from None


def _graph_field(service: ExtractionService, request: dict, op: str) -> str:
    graph = _field(request, "graph", op, text)
    if not service.has_graph(graph):
        raise UnknownGraph(
            f"unknown graph {graph!r}; registered: {service.graphs()}"
        )
    return graph


async def perform_op(service: ExtractionService, request: Any) -> Any:
    """Validate ``request`` and run it against ``service``.

    Returns the raw op result (pass through :func:`result_payload` before
    serializing).  Raises :class:`BadRequest` / :class:`UnknownGraph` for
    shape errors and lets service exceptions (e.g.
    :class:`~repro.serve.service.ServiceOverloaded`) propagate so each
    front end can map them to its own wire representation.
    """
    if not isinstance(request, dict):
        raise BadRequest("request must be a JSON object")
    op = request.get("op")
    if op == "ping":
        return "pong"
    if op == "metrics":
        return service.metrics_snapshot()
    if op == "graphs":
        return service.graphs()
    if op == "ppr":
        graph = _graph_field(service, request, op)
        return await service.ppr_top_k(
            graph,
            _field(request, "target", op, int),
            k=_field(request, "k", op, int, default=16),
            alpha=_field(request, "alpha", op, float, default=0.25),
            eps=_field(request, "eps", op, float, default=2e-4),
        )
    if op == "ego":
        graph = _graph_field(service, request, op)
        return await service.extract_ego(
            graph,
            _field(request, "root", op, int),
            depth=_field(request, "depth", op, int, default=2),
            fanout=_field(request, "fanout", op, int, default=8),
            salt=_field(request, "salt", op, int, default=0),
        )
    if op == "paths":
        graph = _graph_field(service, request, op)
        return await service.paths(
            graph,
            _field(request, "src", op, int),
            _field(request, "dst", op, int),
            max_hops=_field(request, "max_hops", op, int, default=3),
            max_paths=_field(request, "max_paths", op, int, default=64),
        )
    if op == "predict":
        graph = _graph_field(service, request, op)
        node = _field(request, "node", op, int, default=None)
        head = _field(request, "head", op, int, default=None)
        if (node is None) == (head is None):
            raise BadRequest(
                "op 'predict' requires exactly one of 'node' (node "
                "classification) or 'head' (link prediction)"
            )
        return await service.predict(
            graph,
            _field(request, "task", op, text),
            node=node,
            head=head,
            model=_field(request, "model", op, text, default=None),
            k=_field(request, "k", op, int, default=10),
            candidates=_field(request, "candidates", op, int, default=0),
            budget_ms=_field(request, "budget_ms", op, float, default=None),
        )
    if op == "sparql":
        graph = _graph_field(service, request, op)
        return await service.sparql(graph, _field(request, "query", op, text))
    if op == "triples":
        graph = _graph_field(service, request, op)
        triples = request.get("triples", _MISSING)
        if triples is _MISSING:
            raise BadRequest("op 'triples' requires field 'triples'")
        # Shape/range validation happens in the service (ValueError → 400
        # via each front end's existing mapping); only the container type
        # is checked here so a JSON scalar fails with a wire-shape error.
        if not isinstance(triples, (list, tuple)):
            raise BadRequest(
                "field 'triples' of op 'triples' must be a list of [s, p, o] rows"
            )
        return await service.ingest_triples(graph, triples)
    if op == "count":
        graph = _graph_field(service, request, op)
        return await service.count(graph, _field(request, "query", op, text))
    raise BadRequest(f"unknown op {op!r}")


# -- result encoding ----------------------------------------------------------


def result_payload(result: Any) -> Any:
    """JSON-encode one op's result."""
    if isinstance(result, ResultSet):
        return {
            "variables": list(result.variables),
            "columns": {
                variable: result.columns[variable].tolist()
                for variable in result.variables
            },
            "num_rows": int(result.num_rows),
        }
    if hasattr(result, "nodes") and hasattr(result, "rel"):  # _EgoGraph
        return {
            "nodes": result.nodes.tolist(),
            "src": result.src.tolist(),
            "dst": result.dst.tolist(),
            "rel": result.rel.tolist(),
        }
    if isinstance(result, list) and result and isinstance(result[0], tuple):
        # ppr top-k [(node, score), ...]
        return [[int(node), float(score)] for node, score in result]
    return result


# -- pipelined connection loop ------------------------------------------------

#: ``read_frame(reader)`` returns the next request frame or ``None`` at EOF.
ReadFrame = Callable[[asyncio.StreamReader], Awaitable[Optional[Any]]]
#: ``respond(frame)`` computes one frame's response object; must not raise.
Respond = Callable[[Any], Awaitable[Any]]
#: ``write_response(writer, response)`` serializes one response; it may
#: write many chunks (streaming bodies) and must drain between them.
WriteResponse = Callable[[asyncio.StreamWriter, Any], Awaitable[None]]


async def serve_pipelined(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    read_frame: ReadFrame,
    respond: Respond,
    write_response: WriteResponse,
    depth: int = PIPELINE_DEPTH,
) -> None:
    """Run one connection: concurrent handling, in-order responses.

    The reader loop spawns one ``respond`` task per frame (bounded by
    ``depth``); the writer drains them in order.  A frame whose attribute
    ``last`` is true (e.g. HTTP ``Connection: close``) stops the read loop
    after its response is queued.
    """
    responses: asyncio.Queue = asyncio.Queue(maxsize=depth)

    async def write_responses() -> None:
        alive = True
        while True:
            task = await responses.get()
            if task is None:
                return
            response = await task
            if not alive:
                continue
            try:
                await write_response(writer, response)
            except ConnectionError:
                alive = False  # peer stopped reading; finish quietly

    writer_task = asyncio.ensure_future(write_responses())
    try:
        while True:
            try:
                frame = await read_frame(reader)
            except (ValueError, ConnectionError, asyncio.IncompleteReadError):
                break  # oversized frame or peer reset
            if frame is None:
                break
            await responses.put(asyncio.ensure_future(respond(frame)))
            if getattr(frame, "last", False):
                break
        await responses.put(None)
        await writer_task
    except asyncio.CancelledError:
        # Event-loop shutdown while this connection is open: finish the
        # close quietly instead of surfacing a cancelled handler task
        # (asyncio's stream protocol would log it as an error).
        pass
    finally:
        if not writer_task.done():
            writer_task.cancel()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, asyncio.CancelledError):  # pragma: no cover
            pass


def bound_port(server: asyncio.AbstractServer) -> Optional[int]:
    """The port a server actually bound (after ``port=0``)."""
    for socket in server.sockets:
        return socket.getsockname()[1]
    return None


__all__: List[str] = [
    "BadRequest",
    "MAX_LINE_BYTES",
    "OPS",
    "PIPELINE_DEPTH",
    "UnknownGraph",
    "bound_port",
    "perform_op",
    "result_payload",
    "serve_pipelined",
]

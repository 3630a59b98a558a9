"""Shared wire-layer core for the serving front ends.

Both front ends — newline-delimited JSON over TCP (``serve/tcp.py``) and
the HTTP/SPARQL-protocol server (``serve/http.py``) — share three things
that used to live inside the TCP module:

* **Request validation + dispatch** (:func:`perform_op`): one loop that
  checks request shape (required fields, castable types) against the
  op's declaration in :data:`OP_TABLE` and calls the
  :class:`~repro.serve.service.ExtractionService` method it names.  A
  missing or malformed field raises :class:`BadRequest` (→ structured
  ``bad_request`` over ndjson, ``400`` over HTTP) instead of surfacing an
  opaque ``KeyError`` server error; an unregistered graph raises
  :class:`UnknownGraph` (→ ``unknown_graph`` / ``404``).
* **Result encoding** (:func:`result_payload`, defined beside the
  pool workers' codec in ``serve/transport.py``): kernel results
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
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.serve.service import ExtractionService
from repro.serve.transport import MAX_LINE_BYTES, result_payload

# Requests a single connection may have in flight at once.  Pipelined
# requests are handled concurrently — so they can share coalescing windows
# and a slow op does not stall the ones behind it — while responses are
# written back in request order.
PIPELINE_DEPTH = 256


class BadRequest(ValueError):
    """The request shape is invalid (missing/malformed field, unknown op)."""

    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail


class UnknownGraph(BadRequest):
    """The request names a graph that is not registered (HTTP: 404)."""


# -- request validation -------------------------------------------------------

#: Default marking a request field as required (see :class:`Op`).
REQUIRED = object()


def text(value: Any) -> str:
    """Cast that accepts only actual strings (graph names, query text)."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def rows(value: Any) -> Any:
    """Cast for ingest rows: only the container type is checked here.

    Shape/range validation happens in the service (ValueError → 400 via
    each front end's existing mapping); a JSON scalar fails here with a
    wire-shape error.
    """
    if not isinstance(value, (list, tuple)):
        raise BadRequest(
            "field 'triples' of op 'triples' must be a list of [s, p, o] rows"
        )
    return value


def _field(request: dict, name: str, op: str, cast, default=REQUIRED):
    """Fetch + cast one request field, mapping failures to BadRequest."""
    value = request.get(name, REQUIRED)
    if value is REQUIRED:
        if default is not REQUIRED:
            return default
        raise BadRequest(f"op {op!r} requires field {name!r}")
    try:
        cast_value = cast(value)
        if isinstance(value, bool):
            # JSON true/false would cast cleanly (int(True) == 1) and
            # return a silently wrong answer instead of an error.
            raise TypeError("booleans are not valid field values")
    except BadRequest:
        raise  # the cast's own wire-shape error
    except (TypeError, ValueError):
        raise BadRequest(
            f"field {name!r} of op {op!r} must be {cast.__name__}-compatible, "
            f"got {value!r}"
        ) from None
    return cast_value


@dataclass(frozen=True)
class Op:
    """One wire op, declared once.

    ``method`` names the :class:`ExtractionService` method the op calls:
    graph ops await it with the registered graph name first and each of
    ``fields`` — ``(name, cast, default)``, a :data:`REQUIRED` default
    meaning the field must be present — as a keyword argument; the
    observability ops (``graph=False``) call it with no arguments, off
    the event loop (in pool mode ``metrics`` asks the workers).
    ``http`` lists the methods of its ``/<name>`` route (empty: no route).
    """

    name: str
    method: str
    fields: Tuple[Tuple[str, Callable[[Any], Any], Any], ...] = ()
    http: Tuple[str, ...] = ()
    graph: bool = True


_GET_POST = ("GET", "POST")

#: Every op :func:`perform_op` dispatches, in documentation order.  Adding
#: an op is one entry here plus the service method it names (and the
#: kernel behind it): dispatch, :data:`OPS` and the HTTP routes derive
#: from this table.
OP_TABLE: Tuple[Op, ...] = (
    Op("ping", "ping", http=("GET",), graph=False),
    Op("metrics", "metrics_snapshot", http=("GET",), graph=False),
    Op("graphs", "graphs", http=("GET",), graph=False),
    Op("ppr", "ppr_top_k", (
        ("target", int, REQUIRED),
        ("k", int, 16),
        ("alpha", float, 0.25),
        ("eps", float, 2e-4),
    ), _GET_POST),
    Op("ego", "extract_ego", (
        ("root", int, REQUIRED),
        ("depth", int, 2),
        ("fanout", int, 8),
        ("salt", int, 0),
    ), _GET_POST),
    Op("paths", "paths", (
        ("src", int, REQUIRED),
        ("dst", int, REQUIRED),
        ("max_hops", int, 3),
        ("max_paths", int, 64),
    ), _GET_POST),
    Op("predict", "predict", (
        ("node", int, None),
        ("head", int, None),
        ("task", text, REQUIRED),
        ("model", text, None),
        ("k", int, 10),
        ("candidates", int, 0),
        ("budget_ms", float, None),
    ), _GET_POST),
    # HTTP /sparql streams its pages through its own handler in http.py.
    Op("sparql", "sparql", (("query", text, REQUIRED),), _GET_POST),
    Op("count", "count", (("query", text, REQUIRED),)),
    Op("triples", "ingest_triples", (("triples", rows, REQUIRED),), ("POST",)),
)

#: Op name -> declaration.
OP_BY_NAME: Dict[str, Op] = {op.name: op for op in OP_TABLE}

#: The op names, in table order.  The docs checker
#: (``tools/check_docs.py --serving-ops``) cross-checks the op tables in
#: ``docs/serving.md`` and ``docs/live-graphs.md`` against this tuple —
#: adding an op without documenting it (or vice versa) fails the docs CI
#: tier.
OPS = tuple(OP_BY_NAME)


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
    name = request.get("op")
    op = OP_BY_NAME.get(name) if isinstance(name, str) else None
    if op is None:
        raise BadRequest(f"unknown op {name!r}")
    method = getattr(service, op.method)
    if not op.graph:
        return await asyncio.to_thread(method)
    graph = _field(request, "graph", name, text)
    if not service.has_graph(graph):
        raise UnknownGraph(
            f"unknown graph {graph!r}; registered: {service.graphs()}"
        )
    kwargs = {}
    for field, cast, default in op.fields:
        kwargs[field] = _field(request, field, name, cast, default)
    return await method(graph, **kwargs)


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
    "OP_BY_NAME",
    "OP_TABLE",
    "Op",
    "PIPELINE_DEPTH",
    "REQUIRED",
    "UnknownGraph",
    "bound_port",
    "perform_op",
    "result_payload",
    "serve_pipelined",
]

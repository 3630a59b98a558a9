"""HTTP/1.1 SPARQL-protocol front end for :class:`ExtractionService`.

The paper's Algorithm 3 talks to the RDF engine over HTTP, and that is
also how standard SPARQL clients and GNN-serving pipelines expect to
connect.  This module implements the slice of the SPARQL Protocol the
engine supports — plus JSON endpoints for the extraction ops — directly
on ``asyncio`` streams, dependency-free:

``GET /sparql?query=...``  /  ``POST /sparql``
    The SPARQL Protocol query operation.  POST bodies may be
    ``application/x-www-form-urlencoded`` (``query=...``) or raw
    ``application/sparql-query``.  Responses are
    ``application/sparql-results+json`` with **streaming pagination**:
    the result is written as chunked transfer-encoding pages of
    ``page_rows`` rows (default :data:`DEFAULT_PAGE_ROWS`, override with
    the ``page_rows`` parameter), cut lazily from the once-evaluated
    result (:meth:`ExtractionService.sparql_stream`), so a
    multi-million-row SELECT ships without the service ever holding its
    serialized body — and TCP flow control paces the producer to the
    consumer.  Binding values are typed integer literals indexing the
    graph's node/relation/class vocabularies.
    ``graph`` selects the registered graph (defaults to the only one).
    With ``Accept: text/csv`` the same pages ship as ``text/csv``
    (SPARQL 1.1 CSV results: comma-joined header of variable names, one
    CRLF-terminated row per binding, same integer values as the JSON
    bindings bit for bit).  With ``Accept:
    application/sparql-results+xml`` they ship as SPARQL 1.1 XML results
    with **IRI-decoded** bindings: each variable's vocabulary domain
    (node / relation / class) is inferred from the query's triple
    patterns, and its integer ids decode to ``<uri>`` terms through the
    graph's vocabularies — round-tripping a URI back through the same
    vocabulary yields the JSON binding's id exactly.  Variables whose
    domain is ambiguous (or queries the inference cannot type) fall back
    to the same typed integer literals as the JSON bindings.

``GET|POST /ppr``, ``GET|POST /ego``, ``GET|POST /paths``
    The extraction ops, mirroring the ndjson protocol's fields
    (``graph``, ``target``/``root``/``src``+``dst``,
    ``k``/``depth``/``fanout``/``max_hops``/``max_paths``/...) as URL
    parameters or a JSON body; responses are the same payloads the TCP
    front end ships, as ``application/json``.  ``/paths`` answers the
    hop-major list of simple relation paths from ``src`` to ``dst``
    (each ``[src, rel, node, ..., rel, dst]``), bit-identical to the
    scalar oracle and across every serving mode.

``GET|POST /predict``
    Task-oriented model inference over registered checkpoints: ``node``
    (node classification) or ``head`` (link prediction) plus ``task``,
    with optional ``model``, ``k``, ``candidates`` and ``budget_ms``
    routing fields — see ``docs/serving.md`` for the full request shape.

``POST /triples``
    Live ingest: append ``[s, p, o]`` rows to a registered graph.  The
    JSON body carries ``graph`` and ``triples``; the response reports the
    new epoch.  Subsequent requests answer on the merged graph — no
    restart, no artifact rebuild from scratch (``docs/live-graphs.md``).

``GET /metrics``, ``GET /graphs``, ``GET /ping``
    Observability endpoints.

Error contract (shared with the TCP front end via ``serve/wire.py``):
missing/malformed fields and unparseable queries answer **400** with a
structured JSON body ``{"error": "bad_request", "detail": ...}``; an
unregistered graph answers **404** (``unknown_graph``); admission
rejection answers **503** with a ``Retry-After`` header (whole seconds,
per RFC 9110) *and* the precise float hint in the JSON body — the HTTP
face of the service's backpressure contract.

Connections are persistent (HTTP/1.1 keep-alive) and pipelined through
the same in-order response core as the TCP front end, so pipelined
requests share coalescing windows.

Like the TCP front end, this module is agnostic to where kernels
execute: with ``ExtractionService(pool=...)`` (``repro serve --protocol
http --workers N``) the coalesced batches run in sharded worker
processes, and every response — including streamed ``/sparql`` pages —
is byte-identical to in-process serving.  A crashed worker surfaces as a
structured ``500 internal_error`` for its in-flight requests while the
pool respawns it.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, field
from typing import AsyncIterator, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.serve.service import ExtractionService, ServiceOverloaded
from repro.serve.wire import (
    MAX_LINE_BYTES,
    OP_BY_NAME,
    OP_TABLE,
    BadRequest,
    UnknownGraph,
    bound_port,
    perform_op,
    result_payload,
    serve_pipelined,
)
from repro.sparql.endpoint import PageStream
from repro.sparql.executor import ResultSet
from repro.sparql.parser import SparqlSyntaxError

__all__ = ["serve_http", "bound_port", "DEFAULT_PAGE_ROWS"]

#: Rows per chunked page of a streamed SPARQL result.  Each chunk holds at
#: most this many serialized rows, which bounds the per-chunk memory no
#: matter how large the full result is.
DEFAULT_PAGE_ROWS = 4096

# A request body larger than this is a client bug (queries are short).
MAX_BODY_BYTES = MAX_LINE_BYTES

# Total header-section budget per request: individual lines are bounded by
# the stream limit, but an endless sequence of small header lines must not
# grow the headers dict without bound.
MAX_HEADER_BYTES = 64 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Datatype IRI attached to the integer-id literals in result bindings.
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"


# -- request/response frames --------------------------------------------------


@dataclass
class HttpRequest:
    """One parsed request, or a framing error that must close the link."""

    method: str = ""
    path: str = ""
    params: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    last: bool = False  # stop reading after this request (Connection: close)
    error: Optional[Tuple[int, str]] = None  # (status, detail) framing error


@dataclass
class HttpResponse:
    """One response: fixed body (Content-Length) or a chunked stream."""

    status: int
    headers: List[Tuple[str, str]] = field(default_factory=list)
    body: Optional[bytes] = None
    stream: Optional[AsyncIterator[bytes]] = None
    close: bool = False


def _json_response(status: int, payload: object, **kwargs) -> HttpResponse:
    return HttpResponse(
        status,
        headers=[("Content-Type", "application/json")],
        body=(json.dumps(payload) + "\n").encode("utf-8"),
        **kwargs,
    )


def _error_response(status: int, error: str, detail: str, **kwargs) -> HttpResponse:
    return _json_response(status, {"error": error, "detail": detail}, **kwargs)


def _overloaded_response(exc: ServiceOverloaded) -> HttpResponse:
    response = _json_response(
        503, {"error": "overloaded", "retry_after": exc.retry_after}
    )
    # The header is whole seconds per RFC 9110; the body carries the
    # precise float for clients that can use sub-second hints.
    response.headers.append(("Retry-After", str(max(math.ceil(exc.retry_after), 1))))
    return response


# -- request parsing ----------------------------------------------------------


async def _read_request(reader: asyncio.StreamReader) -> Optional[HttpRequest]:
    """Read one HTTP/1.1 request; None at EOF; error frames close the link."""
    request_line = await reader.readline()
    if not request_line:
        return None
    try:
        method, target, version = request_line.decode("latin-1").split()
    except ValueError:
        return HttpRequest(
            error=(400, f"malformed request line {request_line!r}"), last=True
        )
    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        line = await reader.readline()
        if line == b"":
            return None  # peer died mid-headers: drop, don't dispatch
        if line in (b"\r\n", b"\n"):
            break
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            return HttpRequest(
                error=(400, f"header section exceeds {MAX_HEADER_BYTES} bytes"),
                last=True,
            )
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()

    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        try:
            length = int(length_header)
        except ValueError:
            length = -1
        if length < 0:
            return HttpRequest(
                error=(400, f"malformed Content-Length {length_header!r}"), last=True
            )
        if length > MAX_BODY_BYTES:
            return HttpRequest(
                error=(413, f"request body of {length} bytes exceeds "
                            f"{MAX_BODY_BYTES}"),
                last=True,
            )
        body = await reader.readexactly(length)
    elif headers.get("transfer-encoding", "").lower() == "chunked":
        return HttpRequest(
            error=(411, "chunked request bodies are not supported; "
                        "send Content-Length"),
            last=True,
        )

    split = urlsplit(target)
    params = {
        name: values[0] for name, values in parse_qs(split.query).items() if values
    }
    connection = headers.get("connection", "").lower()
    if version == "HTTP/1.0":
        keep_alive = connection == "keep-alive"
    else:
        keep_alive = connection != "close"
    return HttpRequest(
        method=method.upper(),
        path=split.path,
        params=params,
        headers=headers,
        body=body,
        last=not keep_alive,
    )


# -- SPARQL results+json streaming --------------------------------------------


def _results_json_head(variables: List[str]) -> bytes:
    return (
        '{"head":{"vars":' + json.dumps(list(variables)) + '},'
        '"results":{"bindings":['
    ).encode("utf-8")


def _encode_page(page: ResultSet, first: bool) -> bytes:
    """Serialize one page of bindings, comma-joined across page boundaries."""
    variables = page.variables
    # One bulk tolist() per column, not one numpy scalar read per cell:
    # this loop is the hot path the serving_http_throughput floor guards.
    columns = [page.columns[variable].tolist() for variable in variables]
    rows = []
    for values in zip(*columns):
        binding = {
            variable: {
                "type": "literal",
                "datatype": XSD_INTEGER,
                "value": str(value),
            }
            for variable, value in zip(variables, values)
        }
        rows.append(json.dumps(binding, separators=(",", ":")))
    text = ",".join(rows)
    if not first and text:
        text = "," + text
    return text.encode("utf-8")


async def _stream_pages(
    head: bytes,
    stream: PageStream,
    encode: Callable[[ResultSet, bool], bytes],
    tail: bytes,
) -> AsyncIterator[bytes]:
    """Chunk generator: ``head``, one chunk per page, ``tail``.

    ``encode(page, first)`` serializes one page (``first`` until a chunk
    has gone out) on a worker thread as the writer drains: the consumer
    paces the producer, and at most one serialized page exists at a time.
    Every format serializes the same lazily-cut pages, which keeps them
    bit-exact relative to each other.
    """
    yield head
    first = True
    while True:
        chunk = await asyncio.to_thread(_next_chunk, stream.pages, encode, first)
        if chunk is None:
            break
        first = False
        yield chunk
    yield tail


def _next_chunk(iterator, encode, first: bool) -> Optional[bytes]:
    page = next(iterator, None)
    if page is None:
        return None
    return encode(page, first)


# -- SPARQL results as text/csv (content negotiation) --------------------------


def _accepts(request: "HttpRequest", media_type: str) -> bool:
    """Whether the Accept header lists ``media_type``."""
    accept = request.headers.get("accept", "")
    return any(
        part.split(";")[0].strip().lower() == media_type
        for part in accept.split(",")
    )


def _encode_csv_page(page: ResultSet) -> bytes:
    """One page as SPARQL 1.1 CSV rows (CRLF-terminated, plain integers)."""
    columns = [page.columns[variable].tolist() for variable in page.variables]
    return "".join(
        ",".join(str(value) for value in values) + "\r\n"
        for values in zip(*columns)
    ).encode("utf-8")


# -- SPARQL results as XML with IRI-decoded bindings ---------------------------

SPARQL_RESULTS_XML = "application/sparql-results+xml"


def _note_domain(domains: Dict[str, Optional[str]], term, domain: str) -> None:
    from repro.sparql.ast import Var

    if isinstance(term, Var):
        if term.name in domains and domains[term.name] != domain:
            domains[term.name] = None  # conflicting evidence: stay integer
        else:
            domains[term.name] = domain


def _query_domains(query) -> Dict[str, Optional[str]]:
    """Output variable name → vocabulary domain, inferred from the AST.

    Positions type variables: in a ``?v a <Class>`` pattern the subject
    is a node and the object a class; in a regular pattern subject and
    object are nodes and the predicate a relation.  Projection aliases
    carry their source's domain; UNION arms must agree or the variable
    stays untyped (``None`` → serialized as an integer literal, exactly
    like the JSON bindings).
    """
    from repro.sparql.ast import BGP

    if isinstance(query.body, BGP):
        inner: Dict[str, Optional[str]] = {}
        for pattern in query.body.patterns:
            if pattern.is_type_pattern():
                _note_domain(inner, pattern.s, "node")
                _note_domain(inner, pattern.o, "class")
            else:
                _note_domain(inner, pattern.s, "node")
                _note_domain(inner, pattern.p, "relation")
                _note_domain(inner, pattern.o, "node")
    else:  # Union: merge the arms' output domains, demoting disagreements
        inner = {}
        for arm in query.body.arms:
            for name, domain in _query_domains(arm).items():
                if name in inner and inner[name] != domain:
                    inner[name] = None
                else:
                    inner.setdefault(name, domain)
    if query.projections:
        return {
            projection.output.name: inner.get(projection.source.name)
            for projection in query.projections
        }
    return inner


def _binding_vocabs(
    service: ExtractionService, graph: str, query: str, variables: List[str]
) -> Dict[str, object]:
    """Variable → vocabulary to decode its ids through (None = integer)."""
    from repro.sparql.parser import parse_query

    try:
        domains = _query_domains(parse_query(query))
    except Exception:  # noqa: BLE001 - typing is best-effort, never fatal
        domains = {}
    kg = service.kg_of(graph)
    vocabs = {
        "node": kg.node_vocab,
        "relation": kg.relation_vocab,
        "class": kg.class_vocab,
    }
    return {
        variable: vocabs.get(domains.get(variable)) for variable in variables
    }


def _xml_head(variables: List[str]) -> bytes:
    from xml.sax.saxutils import quoteattr

    return (
        '<?xml version="1.0"?>\n'
        f'<sparql xmlns="http://www.w3.org/2005/sparql-results#"><head>'
        + "".join(f"<variable name={quoteattr(v)}/>" for v in variables)
        + "</head><results>"
    ).encode("utf-8")


def _encode_xml_page(page: ResultSet, vocabs: Dict[str, object]) -> bytes:
    """One page of ``<result>`` elements, IRI-decoded where typed.

    Same bulk ``tolist()`` discipline as the JSON/CSV encoders — the
    three serializers consume identical lazily-cut pages, which is what
    keeps the formats bit-exact relative to each other.
    """
    from xml.sax.saxutils import escape, quoteattr

    variables = page.variables
    columns = [page.columns[variable].tolist() for variable in variables]
    names = [quoteattr(variable) for variable in variables]
    decoders = [vocabs.get(variable) for variable in variables]
    parts: List[str] = []
    for values in zip(*columns):
        parts.append("<result>")
        for name, vocab, value in zip(names, decoders, values):
            if vocab is not None:
                parts.append(
                    f"<binding name={name}><uri>{escape(vocab.term(value))}"
                    "</uri></binding>"
                )
            else:
                parts.append(
                    f'<binding name={name}><literal datatype="{XSD_INTEGER}">'
                    f"{value}</literal></binding>"
                )
        parts.append("</result>")
    return "".join(parts).encode("utf-8")


# -- routing ------------------------------------------------------------------


async def _handle_sparql(service: ExtractionService, request: HttpRequest) -> HttpResponse:
    params = dict(request.params)
    query: Optional[str] = params.get("query")
    if request.method == "POST":
        content_type = request.headers.get("content-type", "").split(";")[0].strip()
        if content_type == "application/x-www-form-urlencoded":
            form = {
                name: values[0]
                for name, values in parse_qs(request.body.decode("utf-8")).items()
                if values
            }
            params.update(form)
            query = params.get("query")
        elif content_type == "application/sparql-query":
            query = request.body.decode("utf-8")
        elif request.body:
            return _error_response(
                400, "bad_request",
                f"unsupported Content-Type {content_type!r}; use "
                "application/x-www-form-urlencoded or application/sparql-query",
            )
    if not query:
        return _error_response(400, "bad_request", "missing 'query' parameter")

    graphs = service.graphs()
    graph = params.get("graph") or (graphs[0] if len(graphs) == 1 else None)
    if graph is None:
        if not graphs:
            return _error_response(
                404, "unknown_graph", "no graphs are registered"
            )
        return _error_response(
            400, "bad_request",
            f"several graphs are registered ({graphs}); pass ?graph=<name>",
        )
    if not service.has_graph(graph):
        return _error_response(
            404, "unknown_graph",
            f"unknown graph {graph!r}; registered: {service.graphs()}",
        )
    try:
        page_rows = int(params.get("page_rows", DEFAULT_PAGE_ROWS))
        if page_rows <= 0:
            raise ValueError
    except ValueError:
        return _error_response(
            400, "bad_request",
            f"page_rows must be a positive integer, got {params.get('page_rows')!r}",
        )

    try:
        stream = await service.sparql_stream(graph, query, page_rows=page_rows)
    except ServiceOverloaded as exc:
        return _overloaded_response(exc)
    except SparqlSyntaxError as exc:
        return _error_response(400, "bad_request", f"invalid SPARQL: {exc}")
    except KeyError as exc:
        # Evaluation-time query errors (e.g. projecting an unbound
        # variable) are the client's fault, not a server failure.
        return _error_response(400, "bad_request", f"invalid query: {exc}")
    if _accepts(request, SPARQL_RESULTS_XML):
        # Checked before CSV: a client asking for both formats gets the
        # richer (IRI-decoded) one.
        vocabs = _binding_vocabs(service, graph, query, stream.variables)
        media, head, encode, tail = (
            f"{SPARQL_RESULTS_XML}; charset=utf-8", _xml_head(stream.variables),
            lambda page, _first: _encode_xml_page(page, vocabs), b"</results></sparql>",
        )
    elif _accepts(request, "text/csv"):
        media, head, encode, tail = (
            "text/csv; charset=utf-8", (",".join(stream.variables) + "\r\n").encode("utf-8"),
            lambda page, _first: _encode_csv_page(page), b"",
        )
    else:
        media, head, encode, tail = (
            "application/sparql-results+json", _results_json_head(stream.variables),
            _encode_page, b"]}}",
        )
    return HttpResponse(
        200,
        headers=[("Content-Type", media)],
        stream=_stream_pages(head, stream, encode, tail),
    )


async def _handle_op(
    service: ExtractionService, op: str, request: HttpRequest
) -> HttpResponse:
    fields: Dict[str, object] = {"op": op, **request.params}
    if request.method == "POST" and request.body:
        content_type = request.headers.get("content-type", "").split(";")[0].strip()
        if content_type not in ("application/json", ""):
            return _error_response(
                400, "bad_request",
                f"unsupported Content-Type {content_type!r}; use application/json",
            )
        try:
            body = json.loads(request.body)
        except ValueError as exc:
            return _error_response(400, "bad_request", f"invalid JSON body: {exc}")
        if not isinstance(body, dict):
            return _error_response(400, "bad_request", "JSON body must be an object")
        fields.update(body)
        fields["op"] = op  # the route decides the op; a body key cannot
    try:
        result = await perform_op(service, fields)
    except ServiceOverloaded as exc:
        return _overloaded_response(exc)
    except UnknownGraph as exc:
        return _error_response(404, "unknown_graph", exc.detail)
    except BadRequest as exc:
        return _error_response(400, "bad_request", exc.detail)
    except SparqlSyntaxError as exc:
        return _error_response(400, "bad_request", f"invalid SPARQL: {exc}")
    except ValueError as exc:
        # Out-of-range parameters rejected by the kernels (alpha, eps, k,
        # ...) are client errors, not server faults.
        return _error_response(400, "bad_request", str(exc))
    except Exception as exc:  # noqa: BLE001 - reported to the client
        return _error_response(500, "internal_error", f"{type(exc).__name__}: {exc}")
    return _json_response(200, result_payload(result))


#: path -> (allowed methods, op passed to the shared dispatcher), from the
#: op table's HTTP column; ``/sparql`` streams through :func:`_handle_sparql`.
_OP_ROUTES = {
    f"/{op.name}": (op.http, op.name)
    for op in OP_TABLE
    if op.http and op.name != "sparql"
}


async def _respond(service: ExtractionService, request: HttpRequest) -> HttpResponse:
    """One request to one response; never raises."""
    if request.error is not None:
        status, detail = request.error
        return _error_response(status, "bad_request", detail, close=True)
    try:
        if request.path == "/sparql":
            if request.method not in OP_BY_NAME["sparql"].http:
                return _error_response(
                    405, "method_not_allowed", f"{request.method} /sparql"
                )
            response = await _handle_sparql(service, request)
        elif request.path in _OP_ROUTES:
            methods, op = _OP_ROUTES[request.path]
            if request.method not in methods:
                return _error_response(
                    405, "method_not_allowed", f"{request.method} {request.path}"
                )
            response = await _handle_op(service, op, request)
        else:
            response = _error_response(
                404, "not_found",
                f"no route for {request.path!r}; endpoints: /sparql "
                f"{' '.join(sorted(_OP_ROUTES))}",
            )
    except Exception as exc:  # noqa: BLE001 - reported to the client
        response = _error_response(
            500, "internal_error", f"{type(exc).__name__}: {exc}"
        )
    if request.last:
        response.close = True
    return response


# -- response writing ---------------------------------------------------------


async def _write_response(writer: asyncio.StreamWriter, response: HttpResponse) -> None:
    reason = _REASONS.get(response.status, "Unknown")
    headers = list(response.headers)
    if response.stream is None:
        body = response.body if response.body is not None else b""
        headers.append(("Content-Length", str(len(body))))
    else:
        headers.append(("Transfer-Encoding", "chunked"))
    if response.close:
        headers.append(("Connection", "close"))
    head = [f"HTTP/1.1 {response.status} {reason}"]
    head.extend(f"{name}: {value}" for name, value in headers)
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))

    if response.stream is None:
        if response.body:
            writer.write(response.body)
        await writer.drain()
        return
    try:
        async for chunk in response.stream:
            if not chunk:
                continue  # a zero-size chunk would terminate the body
            writer.write(f"{len(chunk):x}\r\n".encode("latin-1") + chunk + b"\r\n")
            await writer.drain()  # consumer-paced: block while the peer is slow
        writer.write(b"0\r\n\r\n")
        await writer.drain()
    except ConnectionError:
        raise
    except Exception:
        # The status line already went out; the only honest signal left is
        # an abrupt close, which chunked framing lets the client detect.
        writer.close()
        raise ConnectionError("response stream failed mid-body") from None


async def serve_http(
    service: ExtractionService,
    host: str = "127.0.0.1",
    port: int = 0,
) -> asyncio.AbstractServer:
    """Start serving ``service`` over HTTP; ``port=0`` picks a free port."""

    async def handler(reader, writer):
        await serve_pipelined(
            reader,
            writer,
            read_frame=_read_request,
            respond=lambda request: _respond(service, request),
            write_response=_write_response,
        )

    return await asyncio.start_server(
        handler, host, port, limit=MAX_LINE_BYTES
    )

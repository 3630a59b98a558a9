"""SPARQL endpoint façade.

Algorithm 3 of the paper talks to an RDF engine over HTTP: it counts the
result size, plans query batches (LIMIT/OFFSET pages per UNION arm), fetches
pages from ``P`` parallel workers with a compression flag, and merges the
triples.  :class:`SparqlEndpoint` reproduces that interface in-process while
accounting for the quantities the paper's cost model cares about (requests
issued, rows shipped, bytes before/after compression).
"""

from __future__ import annotations

import threading
import zlib
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Deque, Iterator, List, Optional, Union as TypingUnion

from repro.kg.graph import KnowledgeGraph
from repro.sparql.ast import SelectQuery
from repro.sparql.executor import QueryExecutor, ResultSet
from repro.sparql.parser import parse_query

# How many query strings the log retains by default.  The scalar counters
# (requests, rows, bytes) are always exact over the endpoint's lifetime; the
# log is a debugging window, and an unbounded list would grow without limit
# in a long-running service.  Pass ``query_log=None`` for opt-in full
# retention (tests, short-lived cost-model experiments).
QUERY_LOG_LIMIT = 256


@dataclass
class EndpointStats:
    """Counters accumulated across requests (thread-safe via endpoint lock).

    ``queries`` is a bounded ring of the most recent query strings
    (:data:`QUERY_LOG_LIMIT` by default); construct with
    ``EndpointStats.with_query_log(None)`` to retain every query.
    """

    requests: int = 0
    rows_returned: int = 0
    bytes_raw: int = 0
    bytes_shipped: int = 0
    queries: Deque[str] = field(
        default_factory=lambda: deque(maxlen=QUERY_LOG_LIMIT)
    )

    @classmethod
    def with_query_log(cls, limit: Optional[int]) -> "EndpointStats":
        """Stats whose query log keeps ``limit`` entries (``None``: all)."""
        return cls(queries=deque(maxlen=limit))

    def compression_ratio(self) -> float:
        """Raw/shipped byte ratio (1.0 when compression is off or no data)."""
        if self.bytes_shipped == 0:
            return 1.0
        return self.bytes_raw / self.bytes_shipped


@dataclass
class PageStream:
    """A planned streaming read: head metadata + a lazy page iterator.

    ``variables`` and ``total_rows`` are known before the first page is
    pulled (response heads need them); ``pages`` yields
    :class:`ResultSet` slices of ``page_rows`` rows each, in order, and
    accounts endpoint stats as each page ships.
    """

    variables: List[str]
    total_rows: int
    page_rows: int
    pages: Iterator[ResultSet]

    @property
    def num_pages(self) -> int:
        return -(-self.total_rows // self.page_rows) if self.total_rows else 0


class SparqlEndpoint:
    """An in-process stand-in for an RDF engine's HTTP SPARQL endpoint.

    Parameters
    ----------
    kg:
        The knowledge graph served by this endpoint.
    compression:
        When True (paper default), shipped bytes are modeled as the
        zlib-compressed size of the serialized result page.
    query_log:
        How many recent query strings ``stats.queries`` retains
        (default :data:`QUERY_LOG_LIMIT`); ``None`` keeps every query —
        opt into that only for short-lived endpoints, a long-running
        service would leak memory under sustained traffic.
    """

    def __init__(
        self,
        kg: KnowledgeGraph,
        compression: bool = True,
        query_log: Optional[int] = QUERY_LOG_LIMIT,
    ):
        self.kg = kg
        self.executor = QueryExecutor(kg)
        self.compression = compression
        self.stats = EndpointStats.with_query_log(query_log)
        self._lock = threading.Lock()

    # -- core request handling --

    def query(self, query: TypingUnion[str, SelectQuery]) -> ResultSet:
        """Execute one request (a query string or parsed AST) and account it."""
        parsed = parse_query(query) if isinstance(query, str) else query
        result = self.executor.evaluate(parsed)
        self._account(parsed, result)
        return result

    def count(self, query: TypingUnion[str, SelectQuery]) -> int:
        """``getGraphSize``: result cardinality ignoring pagination."""
        parsed = parse_query(query) if isinstance(query, str) else query
        with self._lock:
            self.stats.requests += 1
            self.stats.queries.append(f"COUNT({parsed})")
        return self.executor.count(parsed)

    def _account(self, parsed: SelectQuery, result: ResultSet) -> None:
        payload = _serialize(result)
        raw_size = len(payload)
        shipped = len(zlib.compress(payload)) if self.compression else raw_size
        with self._lock:
            self.stats.requests += 1
            self.stats.rows_returned += result.num_rows
            self.stats.bytes_raw += raw_size
            self.stats.bytes_shipped += shipped
            self.stats.queries.append(str(parsed))

    # -- streaming pagination (the wire-facing LIMIT/OFFSET planner) --

    def stream_pages(
        self,
        query: TypingUnion[str, SelectQuery],
        page_rows: int,
    ) -> "PageStream":
        """Plan ``query`` as a stream of LIMIT/OFFSET pages.

        The query is evaluated **once** (honouring its own LIMIT/OFFSET)
        into the compact columnar result; pages are then cut lazily with
        :meth:`ResultSet.page` as the consumer pulls them, so the wire
        representation of a huge SELECT is never materialized whole — only
        one page's worth of serialized rows exists at a time.  Each page
        is accounted to :attr:`stats` (rows returned, modeled raw/shipped
        bytes) as it is shipped; the request itself counts once.

        Returns a :class:`PageStream` carrying the output variables and
        total row count up front (for response heads) plus the lazy page
        iterator.  Concatenating the pages is bit-exact with :meth:`query`
        on the same query.
        """
        if page_rows <= 0:
            raise ValueError(f"page_rows must be positive, got {page_rows}")
        parsed = parse_query(query) if isinstance(query, str) else query
        result = self.executor.evaluate(parsed)
        with self._lock:
            self.stats.requests += 1
            self.stats.queries.append(f"STREAM({parsed})")

        def pages() -> Iterator[ResultSet]:
            for page in result.iter_pages(page_rows):
                self._account_page(page)
                yield page

        return PageStream(
            variables=list(result.variables),
            total_rows=result.num_rows,
            page_rows=page_rows,
            pages=pages(),
        )

    def _account_page(self, page: ResultSet) -> None:
        """Account one shipped page's rows/bytes (request already counted)."""
        account_page(self.stats, page, self.compression, self._lock)

    def evaluate_stream(self, query: TypingUnion[str, SelectQuery]) -> ResultSet:
        """Evaluate for *remote* paging: account the request, not the pages.

        The pool's parent process cuts streamed-``/sparql`` pages on its
        side of the pipe; the owning worker calls this so the query counts
        as one request here while every shipped page is accounted
        parent-side with :func:`account_page` — summed in
        ``metrics_snapshot``, pooled counters match in-process serving
        page for page.
        """
        parsed = parse_query(query) if isinstance(query, str) else query
        result = self.executor.evaluate(parsed)
        with self._lock:
            self.stats.requests += 1
            self.stats.queries.append(f"STREAM({parsed})")
        return result

    # -- paginated parallel fetch (the request-handler workers of Alg. 3) --

    def fetch_paginated(
        self,
        query: TypingUnion[str, SelectQuery],
        batch_size: int,
        workers: int = 1,
        total: Optional[int] = None,
    ) -> List[ResultSet]:
        """Fetch all pages of ``query`` with LIMIT/OFFSET batches.

        Pages are issued to a pool of ``workers`` threads; results come back
        in page order.  ``total`` (when known from a prior :meth:`count`)
        avoids a trailing empty-page probe.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        parsed = parse_query(query) if isinstance(query, str) else query
        if total is None:
            total = self.count(parsed)
        offsets = list(range(0, total, batch_size))
        if not offsets:
            return []
        pages = [parsed.with_page(limit=batch_size, offset=offset) for offset in offsets]
        if workers <= 1:
            return [self.query(page) for page in pages]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(self.query, pages))

    def fetch_all(
        self,
        query: TypingUnion[str, SelectQuery],
        batch_size: int,
        workers: int = 1,
    ) -> ResultSet:
        """Fetch and concatenate every page of ``query``."""
        pages = self.fetch_paginated(query, batch_size=batch_size, workers=workers)
        parsed = parse_query(query) if isinstance(query, str) else query
        if not pages:
            return ResultSet.empty([v.name for v in parsed.output_variables()])
        merged = pages[0]
        for page in pages[1:]:
            merged = merged.concat(page)
        return merged


def account_page(
    stats: EndpointStats,
    page: ResultSet,
    compression: bool,
    lock: Optional[threading.Lock] = None,
) -> None:
    """Account one shipped page (rows + modeled raw/shipped bytes) to ``stats``.

    The single definition of page accounting: the in-process endpoint uses
    it for :meth:`SparqlEndpoint.stream_pages`, and the pool's parent uses
    it for pages cut from a worker-evaluated result — so both serving
    modes count streamed traffic identically.
    """
    payload = _serialize(page)
    raw_size = len(payload)
    shipped = len(zlib.compress(payload)) if compression else raw_size
    if lock is None:
        lock = threading.Lock()
    with lock:
        stats.rows_returned += page.num_rows
        stats.bytes_raw += raw_size
        stats.bytes_shipped += shipped


def _serialize(result: ResultSet) -> bytes:
    """Model the wire representation of a result page (TSV of ids).

    Columns convert to Python ints once (``tolist``) and rows are joined
    from them — byte-identical to formatting each cell with
    ``str(int(...))``, without a numpy scalar per cell.
    """
    columns = [map(str, result.columns[v].tolist()) for v in result.variables]
    return "\n".join(map("\t".join, zip(*columns))).encode("ascii")

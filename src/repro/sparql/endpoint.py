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
from dataclasses import dataclass
from typing import Deque, Iterator, List, NamedTuple, Optional, Tuple, Union as TypingUnion

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.sparql.ast import SelectQuery
from repro.sparql.executor import QueryExecutor, ResultSet
from repro.sparql.parser import parse_query

# How many query strings the log retains.  The scalar counters (requests,
# rows, bytes) are always exact over the endpoint's lifetime; the log is a
# debugging window, and an unbounded list would grow without limit in a
# long-running service.
QUERY_LOG_LIMIT = 256


#: Bytes of shipped pages an :class:`EndpointStats` keeps unserialized at
#: most, as :func:`_retained_bytes` estimates them.  A page that would
#: carry the queue past it settles the pages queued before it first, so
#: each settle serializes at most this much (a few ms of tiny pages), and
#: a page larger than the bound waits alone.
PENDING_BYTES_LIMIT = 1 << 18

#: Python-object bytes a queued page holds beyond its column data: its
#: tuples (~110 B) and each column array's header (~125 B), as measured
#: with ``tracemalloc`` on CPython 3.11 and numpy 2.4, with ~15% to spare.
_PAGE_OVERHEAD = 192
_COLUMN_OVERHEAD = 144

#: A queued page: its variables, its columns in that order, and whether
#: its shipped bytes are modeled compressed.
_Page = Tuple[Tuple[str, ...], Tuple[np.ndarray, ...], bool]


class EndpointCounters(NamedTuple):
    """One consistent reading of an :class:`EndpointStats`."""

    requests: int
    rows_returned: int
    bytes_raw: int
    bytes_shipped: int


class EndpointStats:
    """Counters accumulated across requests (thread-safe, own lock).

    ``requests``, ``rows_returned`` and ``queries`` are counted as requests
    arrive.  ``bytes_raw`` / ``bytes_shipped`` are exact as well, but
    computed when read: each shipped page is queued and serialized and
    compressed on the first read after it — or early, on the recording
    thread, once the queue would pass :data:`PENDING_BYTES_LIMIT`.  Stats
    nobody reads never serialize a page.  A queued page is a private copy
    of its columns, so it never pins a larger result, held in tuples the
    garbage collector stops tracking, so a long queue of small pages does
    not make collections more frequent or longer.  :meth:`snapshot` reads
    all four counters at one moment.

    ``queries`` is a bounded ring of the :data:`QUERY_LOG_LIMIT` most
    recent query strings.
    """

    def __init__(self) -> None:
        self.requests = 0
        self.rows_returned = 0
        self.queries: Deque[str] = deque(maxlen=QUERY_LOG_LIMIT)
        self._bytes_raw = 0
        self._bytes_shipped = 0
        self._pending: List[_Page] = []
        self._pending_bytes = 0
        self._settling = 0  # batches taken off the queue, not yet counted
        self._lock = threading.Condition()

    def record(
        self,
        query: Optional[str] = None,
        page: Optional[ResultSet] = None,
        compression: bool = True,
    ) -> None:
        """Count one request (``query`` is its log line) and/or one shipped
        ``page`` (its bytes modeled zlib-compressed when ``compression``)."""
        batch = None
        if page is not None:
            variables = tuple(page.variables)
            columns = tuple(page.columns[v].copy() for v in variables)
            retained = _retained_bytes(columns)
        with self._lock:
            if query is not None:
                self.requests += 1
                self.queries.append(query)
            if page is not None:
                self.rows_returned += page.num_rows
                if self._pending and self._pending_bytes + retained > PENDING_BYTES_LIMIT:
                    batch = self._take()
                self._pending.append((variables, columns, compression))
                self._pending_bytes += retained
        if batch is not None:
            self._settle(batch)

    def _take(self) -> List[_Page]:
        """Empty the queue into a batch to settle; the caller holds the lock."""
        batch, self._pending, self._pending_bytes = self._pending, [], 0
        self._settling += 1
        return batch

    def _settle(self, batch: List[_Page]) -> None:
        """Serialize and compress ``batch`` (lock released), then count it."""
        raw = shipped = 0
        try:
            for variables, columns, compression in batch:
                payload = _serialize(ResultSet(list(variables), dict(zip(variables, columns))))
                raw += len(payload)
                shipped += len(zlib.compress(payload)) if compression else len(payload)
        finally:
            with self._lock:
                self._bytes_raw += raw
                self._bytes_shipped += shipped
                self._settling -= 1
                self._lock.notify_all()

    def snapshot(self) -> EndpointCounters:
        """Every counter at one moment: each page in ``rows_returned`` is
        in the byte counters too.  Settles the queue, and waits for a
        batch another thread is settling."""
        while True:
            with self._lock:
                self._lock.wait_for(lambda: self._settling == 0)
                if not self._pending:
                    return EndpointCounters(
                        self.requests, self.rows_returned,
                        self._bytes_raw, self._bytes_shipped,
                    )
                batch = self._take()
            self._settle(batch)

    @property
    def bytes_raw(self) -> int:
        return self.snapshot().bytes_raw

    @property
    def bytes_shipped(self) -> int:
        return self.snapshot().bytes_shipped

    def compression_ratio(self) -> float:
        """Raw/shipped byte ratio (1.0 when compression is off or no data)."""
        counters = self.snapshot()
        if counters.bytes_shipped == 0:
            return 1.0
        return counters.bytes_raw / counters.bytes_shipped


def _retained_bytes(columns: Tuple[np.ndarray, ...]) -> int:
    """What a queued page with these (owned) ``columns`` keeps alive."""
    return _PAGE_OVERHEAD + sum(_COLUMN_OVERHEAD + column.nbytes for column in columns)


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
        zlib-compressed size of the serialized result page.  The byte
        counters are exact but computed when read (see
        :class:`EndpointStats`): an endpoint nobody asks for them never
        serializes a page.
    """

    def __init__(self, kg: KnowledgeGraph, compression: bool = True):
        self.kg = kg
        self.executor = QueryExecutor(kg)
        self.compression = compression
        self.stats = EndpointStats()

    # -- core request handling --

    def query(self, query: TypingUnion[str, SelectQuery]) -> ResultSet:
        """Execute one request (a query string or parsed AST) and account it."""
        parsed = parse_query(query) if isinstance(query, str) else query
        result = self.executor.evaluate(parsed)
        self.stats.record(str(parsed), result, self.compression)
        return result

    def count(self, query: TypingUnion[str, SelectQuery]) -> int:
        """``getGraphSize``: result cardinality ignoring pagination."""
        parsed = parse_query(query) if isinstance(query, str) else query
        self.stats.record(f"COUNT({parsed})")
        return self.executor.count(parsed)

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
        is accounted to :attr:`stats` as it is shipped (rows at once,
        modeled raw/shipped bytes when read); the request itself counts
        once.

        Returns a :class:`PageStream` carrying the output variables and
        total row count up front (for response heads) plus the lazy page
        iterator.  Concatenating the pages is bit-exact with :meth:`query`
        on the same query.
        """
        if page_rows <= 0:
            raise ValueError(f"page_rows must be positive, got {page_rows}")
        parsed = parse_query(query) if isinstance(query, str) else query
        result = self.executor.evaluate(parsed)
        self.stats.record(f"STREAM({parsed})")

        def pages() -> Iterator[ResultSet]:
            for page in result.iter_pages(page_rows):
                self.stats.record(page=page, compression=self.compression)
                yield page

        return PageStream(
            variables=list(result.variables),
            total_rows=result.num_rows,
            page_rows=page_rows,
            pages=pages(),
        )

    def evaluate_stream(self, query: TypingUnion[str, SelectQuery]) -> ResultSet:
        """Evaluate for *remote* paging: account the request, not the pages.

        The pool's parent process cuts streamed-``/sparql`` pages on its
        side of the pipe; the owning worker calls this so the query counts
        as one request here while every shipped page is accounted
        parent-side with :meth:`EndpointStats.record` — summed in
        ``metrics_snapshot``, pooled counters match in-process serving
        page for page.
        """
        parsed = parse_query(query) if isinstance(query, str) else query
        result = self.executor.evaluate(parsed)
        self.stats.record(f"STREAM({parsed})")
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


def _serialize(result: ResultSet) -> bytes:
    """Model the wire representation of a result page (TSV of ids).

    Columns convert to Python ints once (``tolist``) and rows are joined
    from them — byte-identical to formatting each cell with
    ``str(int(...))``, without a numpy scalar per cell.
    """
    columns = [map(str, result.columns[v].tolist()) for v in result.variables]
    return "\n".join(map("\t".join, zip(*columns))).encode("ascii")

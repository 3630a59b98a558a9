"""Endpoint byte counters are exact but computed when read.

``EndpointStats`` counts requests and rows as they happen and queues
shipped pages; ``bytes_raw`` / ``bytes_shipped`` serialize and compress
the queue when read.  These tests pin that down: unread stats never
serialize, read stats equal per-page eager accounting on every path
(``query``, ``stream_pages``, threaded ``fetch_paginated``, the epoch-bump
hand-off of a serving shard), a snapshot is consistent, the queue and each
settle stay within the byte bound, and a queued page never keeps a larger
result alive.
"""

import gc
import threading
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest

from repro.core import extract_tosg
from repro.serve.transport import GraphShard
from repro.sparql import endpoint as endpoint_module
from repro.sparql.endpoint import EndpointStats, SparqlEndpoint, _retained_bytes, _serialize
from repro.sparql.executor import ResultSet

ALL = "select ?s ?p ?o where { ?s ?p ?o }"


def eager(pages, compression=True):
    """``(bytes_raw, bytes_shipped)`` as per-page eager accounting gave them."""
    raw = shipped = 0
    for page in pages:
        payload = _serialize(page)
        raw += len(payload)
        shipped += len(zlib.compress(payload)) if compression else len(payload)
    return raw, shipped


@pytest.fixture
def serialize_calls(monkeypatch):
    calls = []

    def counted(result):
        calls.append(result.num_rows)
        return _serialize(result)

    monkeypatch.setattr(endpoint_module, "_serialize", counted)
    return calls


def test_unread_stats_never_serialize(toy_kg, toy_task, serialize_calls):
    endpoint = SparqlEndpoint(toy_kg)
    endpoint.query(ALL)
    endpoint.fetch_paginated(ALL, batch_size=4, workers=3)
    list(endpoint.stream_pages(ALL, page_rows=5).pages)
    extract_tosg(toy_kg, toy_task, method="sparql", batch_size=3)
    assert endpoint.stats.requests == 7  # query, count + 4 pages of 13 rows, stream
    del endpoint
    gc.collect()
    assert serialize_calls == []


def test_reading_settles_each_page_once(toy_kg, serialize_calls):
    endpoint = SparqlEndpoint(toy_kg)
    endpoint.query(ALL)
    assert serialize_calls == []
    first = endpoint.stats.bytes_shipped
    assert serialize_calls == [toy_kg.num_edges]
    assert endpoint.stats.bytes_shipped == first
    assert endpoint.stats.compression_ratio() > 0
    assert serialize_calls == [toy_kg.num_edges]


@pytest.mark.parametrize("compression", [True, False])
def test_query_counters_equal_eager_accounting(toy_kg, compression):
    endpoint = SparqlEndpoint(toy_kg, compression=compression)
    queries = [ALL, "select ?s where { ?s ?p ?o } limit 3",
               "select ?v where { ?v a <NoClass> . }"]
    results = [endpoint.query(q) for q in queries]
    raw, shipped = eager(results, compression)
    assert (endpoint.stats.bytes_raw, endpoint.stats.bytes_shipped) == (raw, shipped)
    assert endpoint.stats.rows_returned == sum(r.num_rows for r in results)
    assert endpoint.stats.compression_ratio() == (raw / shipped if shipped else 1.0)


def test_stream_pages_counters_equal_eager_accounting(toy_kg):
    endpoint = SparqlEndpoint(toy_kg)
    pages = list(endpoint.stream_pages(ALL, page_rows=4).pages)
    assert (endpoint.stats.bytes_raw, endpoint.stats.bytes_shipped) == eager(pages)
    assert endpoint.stats.rows_returned == toy_kg.num_edges


def test_threaded_fetch_counters_equal_eager_accounting(toy_kg):
    endpoint = SparqlEndpoint(toy_kg)
    pages = endpoint.fetch_paginated(ALL, batch_size=2, workers=4)
    assert len(pages) == 7
    assert (endpoint.stats.bytes_raw, endpoint.stats.bytes_shipped) == eager(pages)
    assert endpoint.stats.requests == 1 + len(pages)


def test_epoch_bump_hands_queued_pages_to_the_new_endpoint(toy_kg):
    shard = GraphShard(toy_kg)
    before = shard.execute("sparql", {"query": ALL})
    old = shard.endpoint
    shard.ingest({"graph": "toy", "seq": 1, "triples": [[0, 0, 2]], "compact": False})
    assert shard.endpoint is not old and shard.endpoint.stats is old.stats
    after = shard.execute("sparql", {"query": ALL})
    assert after.num_rows == before.num_rows + 1
    raw, shipped = eager([before, after])
    endpoint = shard.stats()["endpoint"]
    assert endpoint == {"requests": 2, "rows_returned": before.num_rows + after.num_rows,
                        "bytes_raw": raw, "bytes_shipped": shipped}


def test_queue_and_each_settle_stay_within_the_bound(monkeypatch):
    monkeypatch.setattr(endpoint_module, "PENDING_BYTES_LIMIT", 1200)
    settled = []
    settle = EndpointStats._settle

    def counted(self, batch):
        settled.append((len(batch), sum(_retained_bytes(c) for _, c, _ in batch)))
        return settle(self, batch)

    monkeypatch.setattr(EndpointStats, "_settle", counted)
    stats = EndpointStats()
    rng = np.random.default_rng(5)
    pages = []
    for rows in (3, 4, 0, 2, 11, 1, 5, 5, 0, 0, 90, 7, 1):
        columns = {"a": rng.integers(0, 99, rows), "b": rng.integers(0, 9, rows)}
        page = ResultSet(["a", "b"], columns)
        stats.record(page=page)
        pages.append(page)
        # Within the bound, or one page larger than it waiting alone.
        assert stats._pending_bytes <= 1200 or len(stats._pending) == 1
    assert (stats.bytes_raw, stats.bytes_shipped) == eager(pages)
    assert stats.rows_returned == 129
    assert len(settled) > 2 and all(size <= 1200 or n == 1 for n, size in settled)


@pytest.mark.parametrize("width", [1, 3])
def test_the_estimate_covers_what_a_tiny_page_holds(monkeypatch, width):
    monkeypatch.setattr(endpoint_module, "PENDING_BYTES_LIMIT", 1 << 40)
    page = ResultSet(list("abc"[:width]), {v: np.arange(1) for v in "abc"[:width]})
    stats = EndpointStats()
    stats.record(page=page)  # first-use allocations outside the measurement
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(20_000):
            stats.record(page=page)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # Nothing settled, so all of ``held`` is the queue: the estimate the
    # bound applies to covers it.
    assert len(stats._pending) == 20_001
    assert 0.5 * stats._pending_bytes < held <= stats._pending_bytes


def test_many_tiny_pages_stay_within_the_bound():
    page = ResultSet(["a", "b"], {"a": np.arange(1), "b": np.arange(1)})
    stats = EndpointStats()
    for _ in range(20_000):
        stats.record(page=page)
        assert stats._pending_bytes <= endpoint_module.PENDING_BYTES_LIMIT
    assert len(stats._pending) < 20_000 // 10
    assert stats.rows_returned == 20_000
    assert stats.bytes_shipped == 20_000 * eager([page])[1]


def test_concurrent_records_and_reads_lose_nothing(monkeypatch):
    monkeypatch.setattr(endpoint_module, "PENDING_BYTES_LIMIT", 2000)
    stats = EndpointStats()
    page = ResultSet(["a"], {"a": np.arange(7)})
    raw, shipped = eager([page])
    seen = []

    def writer():
        for _ in range(200):
            stats.record("q", page)

    def reader():
        for _ in range(50):
            seen.append(stats.snapshot())

    threads = [threading.Thread(target=writer) for _ in range(4)]
    threads.append(threading.Thread(target=reader))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert seen == sorted(seen)  # a read never steps back
    for counters in seen:  # and every page in the rows is in the bytes
        pages = counters.rows_returned // 7
        assert (counters.bytes_raw, counters.bytes_shipped) == (pages * raw, pages * shipped)
    assert (stats.requests, stats.rows_returned) == (800, 800 * 7)
    assert (stats.bytes_raw, stats.bytes_shipped) == (800 * raw, 800 * shipped)


def test_a_read_waits_for_a_batch_another_thread_is_settling(monkeypatch):
    monkeypatch.setattr(endpoint_module, "PENDING_BYTES_LIMIT", 400)
    entered, release = threading.Event(), threading.Event()

    def blocking(result):
        entered.set()
        assert release.wait(timeout=30)
        return _serialize(result)

    monkeypatch.setattr(endpoint_module, "_serialize", blocking)
    stats = EndpointStats()
    pages = [ResultSet(["a"], {"a": np.arange(3)}), ResultSet(["a"], {"a": np.arange(4)})]
    stats.record(page=pages[0])
    writer = threading.Thread(target=stats.record, kwargs={"page": pages[1]})
    writer.start()  # passes the bound: settles the first page on its own thread
    assert entered.wait(timeout=30)
    seen = []
    reader = threading.Thread(target=lambda: seen.append(stats.bytes_shipped))
    reader.start()
    reader.join(timeout=0.2)
    release.set()
    writer.join()
    reader.join()
    assert seen == [eager(pages)[1]]


def test_a_queued_page_does_not_pin_its_result(toy_kg):
    endpoint = SparqlEndpoint(toy_kg)
    stream = endpoint.stream_pages(ALL, page_rows=4)
    pages = list(stream.pages)
    base = pages[0].columns["s"].base
    assert base is not None and len(base) == toy_kg.num_edges  # pages are views
    whole = weakref.ref(base)
    del stream, pages, base
    gc.collect()
    assert whole() is None
    assert len(endpoint.stats._pending) == 4  # still queued, still unread
    assert endpoint.stats.rows_returned == toy_kg.num_edges


def test_a_queued_page_is_a_snapshot(toy_kg):
    endpoint = SparqlEndpoint(toy_kg)
    result = endpoint.query(ALL)
    expected = eager([result])
    result.columns["s"][:] = 10**9  # a caller reusing the arrays changes nothing
    assert (endpoint.stats.bytes_raw, endpoint.stats.bytes_shipped) == expected

"""Endpoint: pagination, workers, accounting."""

import numpy as np
import pytest

from repro.sparql.endpoint import EndpointStats, SparqlEndpoint, _serialize
from repro.sparql.executor import ResultSet
from repro.sparql.parser import parse_query

ALL = "select ?s ?p ?o where { ?s ?p ?o }"


def serialize_per_row(result):
    """Reference wire model: one ``str(int(...))`` per cell, row by row."""
    lines = (
        "\t".join(str(int(result.columns[v][row])) for v in result.variables)
        for row in range(result.num_rows)
    )
    return "\n".join(lines).encode("ascii")


@pytest.mark.parametrize(
    "query",
    [
        ALL,
        "select ?s where { ?s ?p ?o }",
        "select ?s ?o where { ?s ?p ?o } limit 0",
    ],
)
def test_serialize_is_byte_identical_to_the_per_row_oracle(toy_kg, query):
    result = SparqlEndpoint(toy_kg).query(query)
    assert _serialize(result) == serialize_per_row(result)


def test_serialize_edge_shapes_match_the_per_row_oracle():
    rng = np.random.default_rng(3)
    big = rng.integers(0, 2**62, size=(257, 2))
    results = [
        ResultSet([], {}),
        ResultSet.empty(["a", "b"]),
        ResultSet(["a"], {"a": np.array([0, 7, 123456789], dtype=np.int64)}),
        ResultSet(["a", "b"], {"a": big[:, 0], "b": big[:, 1]}),
        ResultSet(["b", "a"], {"a": big[:, 0], "b": big[:, 1]}),
    ]
    for result in results:
        assert _serialize(result) == serialize_per_row(result)


def test_query_accounts_stats(toy_kg):
    endpoint = SparqlEndpoint(toy_kg)
    result = endpoint.query(ALL)
    assert result.num_rows == toy_kg.num_edges
    assert endpoint.stats.requests == 1
    assert endpoint.stats.rows_returned == toy_kg.num_edges
    assert endpoint.stats.bytes_raw > 0


def test_compression_reduces_shipped_bytes(toy_kg):
    compressed = SparqlEndpoint(toy_kg, compression=True)
    plain = SparqlEndpoint(toy_kg, compression=False)
    compressed.query(ALL)
    plain.query(ALL)
    assert plain.stats.compression_ratio() == 1.0
    assert compressed.stats.bytes_raw == plain.stats.bytes_raw
    # zlib on tiny payloads may not shrink, but accounting must be coherent.
    assert compressed.stats.bytes_shipped > 0


def test_count_endpoint(toy_kg):
    endpoint = SparqlEndpoint(toy_kg)
    assert endpoint.count(ALL) == toy_kg.num_edges
    assert endpoint.stats.requests == 1  # counts are requests too


def test_fetch_paginated_covers_everything(toy_kg):
    endpoint = SparqlEndpoint(toy_kg)
    pages = endpoint.fetch_paginated(ALL, batch_size=4)
    assert sum(p.num_rows for p in pages) == toy_kg.num_edges
    assert all(p.num_rows <= 4 for p in pages)


def test_fetch_paginated_parallel_matches_serial(toy_kg):
    serial = SparqlEndpoint(toy_kg).fetch_paginated(ALL, batch_size=3, workers=1)
    parallel = SparqlEndpoint(toy_kg).fetch_paginated(ALL, batch_size=3, workers=4)
    serial_rows = [tuple(map(int, (p.columns["s"][i], p.columns["p"][i], p.columns["o"][i])))
                   for p in serial for i in range(p.num_rows)]
    parallel_rows = [tuple(map(int, (p.columns["s"][i], p.columns["p"][i], p.columns["o"][i])))
                     for p in parallel for i in range(p.num_rows)]
    assert serial_rows == parallel_rows


def test_fetch_all_merges_pages(toy_kg):
    endpoint = SparqlEndpoint(toy_kg)
    merged = endpoint.fetch_all(ALL, batch_size=5)
    assert merged.num_rows == toy_kg.num_edges


def test_fetch_all_empty_result(toy_kg):
    endpoint = SparqlEndpoint(toy_kg)
    merged = endpoint.fetch_all("select ?v where { ?v a <NoClass> . }", batch_size=5)
    assert merged.num_rows == 0
    assert merged.variables == ["v"]


def test_invalid_batch_size(toy_kg):
    endpoint = SparqlEndpoint(toy_kg)
    with pytest.raises(ValueError):
        endpoint.fetch_paginated(ALL, batch_size=0)


def test_parsed_query_accepted(toy_kg):
    endpoint = SparqlEndpoint(toy_kg)
    parsed = parse_query(ALL)
    assert endpoint.query(parsed).num_rows == toy_kg.num_edges


# -- edge cases: empty results, oversized pages, zero-byte accounting --

EMPTY = "select ?v where { ?v a <NoClass> . }"


def test_fetch_paginated_empty_result_returns_no_pages(toy_kg):
    endpoint = SparqlEndpoint(toy_kg)
    pages = endpoint.fetch_paginated(EMPTY, batch_size=5)
    assert pages == []
    # Only the count probe was issued; no page requests.
    assert endpoint.stats.requests == 1
    assert endpoint.stats.rows_returned == 0


def test_fetch_paginated_known_zero_total_skips_count(toy_kg):
    endpoint = SparqlEndpoint(toy_kg)
    assert endpoint.fetch_paginated(EMPTY, batch_size=5, total=0) == []
    assert endpoint.stats.requests == 0


def test_fetch_paginated_page_size_larger_than_result(toy_kg):
    endpoint = SparqlEndpoint(toy_kg)
    pages = endpoint.fetch_paginated(ALL, batch_size=10_000)
    assert len(pages) == 1
    assert pages[0].num_rows == toy_kg.num_edges
    # One count + one (single-page) fetch.
    assert endpoint.stats.requests == 2


def test_fetch_all_empty_result_keeps_projected_variables(toy_kg):
    endpoint = SparqlEndpoint(toy_kg)
    merged = endpoint.fetch_all(EMPTY, batch_size=4)
    assert merged.num_rows == 0
    assert merged.variables == ["v"]


def test_fetch_all_single_oversized_page_matches_unpaged(toy_kg):
    endpoint = SparqlEndpoint(toy_kg)
    merged = endpoint.fetch_all(ALL, batch_size=10_000, workers=3)
    unpaged = SparqlEndpoint(toy_kg).query(ALL)
    assert merged.num_rows == unpaged.num_rows
    for variable in merged.variables:
        assert merged.columns[variable].tolist() == unpaged.columns[variable].tolist()


# -- query-log retention: bounded by default, opt-in full history --


def test_query_log_is_bounded_under_sustained_traffic(toy_kg):
    """Regression: the per-request query log must not grow without bound."""
    from repro.sparql.endpoint import QUERY_LOG_LIMIT

    endpoint = SparqlEndpoint(toy_kg)
    total = QUERY_LOG_LIMIT + 50
    for _ in range(total):
        endpoint.count(ALL)
    # Counters stay exact over the whole lifetime ...
    assert endpoint.stats.requests == total
    # ... while the log is a ring of only the most recent queries.
    assert len(endpoint.stats.queries) == QUERY_LOG_LIMIT
    assert endpoint.stats.queries.maxlen == QUERY_LOG_LIMIT


def test_query_log_keeps_most_recent_entries(toy_kg):
    endpoint = SparqlEndpoint(toy_kg, query_log=3)
    endpoint.count(ALL)
    for _ in range(3):
        endpoint.query(ALL)
    assert len(endpoint.stats.queries) == 3
    assert all(not q.startswith("COUNT") for q in endpoint.stats.queries)


def test_query_log_opt_in_full_retention(toy_kg):
    endpoint = SparqlEndpoint(toy_kg, query_log=None)
    from repro.sparql.endpoint import QUERY_LOG_LIMIT

    total = QUERY_LOG_LIMIT + 10
    for _ in range(total):
        endpoint.count(ALL)
    assert len(endpoint.stats.queries) == total


def test_compression_ratio_with_zero_bytes_is_one(toy_kg):
    # Fresh stats: nothing shipped yet, the ratio must not divide by zero.
    assert EndpointStats().compression_ratio() == 1.0
    endpoint = SparqlEndpoint(toy_kg, compression=True)
    endpoint.query(EMPTY)  # zero-row page serializes to zero raw bytes
    assert endpoint.stats.bytes_raw == 0
    ratio = endpoint.stats.compression_ratio()
    assert ratio >= 0.0  # coherent even though zlib adds header bytes
    plain = SparqlEndpoint(toy_kg, compression=False)
    plain.query(EMPTY)
    assert plain.stats.bytes_shipped == 0
    assert plain.stats.compression_ratio() == 1.0


def test_stream_pages_concatenates_bit_exact(toy_kg):
    endpoint = SparqlEndpoint(toy_kg)
    query = "select ?s ?p ?o where { ?s ?p ?o }"
    expected = SparqlEndpoint(toy_kg).query(query)

    stream = endpoint.stream_pages(query, page_rows=4)
    assert stream.variables == list(expected.variables)
    assert stream.total_rows == expected.num_rows
    assert stream.num_pages == -(-expected.num_rows // 4)

    pages = list(stream.pages)
    assert len(pages) == stream.num_pages
    assert all(page.num_rows <= 4 for page in pages)
    merged = pages[0]
    for page in pages[1:]:
        merged = merged.concat(page)
    for v in expected.variables:
        assert merged.columns[v].tolist() == expected.columns[v].tolist()


def test_stream_pages_accounts_stats_per_shipped_page(toy_kg):
    endpoint = SparqlEndpoint(toy_kg, compression=False)
    query = "select ?s ?p ?o where { ?s ?p ?o }"
    stream = endpoint.stream_pages(query, page_rows=5)
    # The request is counted at plan time; rows/bytes only as pages ship.
    assert endpoint.stats.requests == 1
    assert endpoint.stats.rows_returned == 0

    iterator = stream.pages
    first = next(iterator)
    assert endpoint.stats.rows_returned == first.num_rows
    assert endpoint.stats.bytes_raw > 0
    for _page in iterator:
        pass
    assert endpoint.stats.rows_returned == stream.total_rows
    assert any(q.startswith("STREAM(") for q in endpoint.stats.queries)


def test_stream_pages_honours_query_pagination(toy_kg):
    endpoint = SparqlEndpoint(toy_kg)
    stream = endpoint.stream_pages(
        "select ?s ?p ?o where { ?s ?p ?o } limit 6 offset 2", page_rows=4
    )
    expected = SparqlEndpoint(toy_kg).query(
        "select ?s ?p ?o where { ?s ?p ?o } limit 6 offset 2"
    )
    pages = list(stream.pages)
    merged = pages[0]
    for page in pages[1:]:
        merged = merged.concat(page)
    assert merged.num_rows == expected.num_rows == 6
    for v in expected.variables:
        assert merged.columns[v].tolist() == expected.columns[v].tolist()


def test_stream_pages_empty_result(toy_kg):
    endpoint = SparqlEndpoint(toy_kg)
    stream = endpoint.stream_pages(
        "select ?s ?o where { ?s <noSuchRelation> ?o }", page_rows=4
    )
    assert stream.total_rows == 0
    assert stream.num_pages == 0
    assert list(stream.pages) == []


def test_stream_pages_rejects_non_positive_page_rows(toy_kg):
    endpoint = SparqlEndpoint(toy_kg)
    with pytest.raises(ValueError):
        endpoint.stream_pages("select ?s ?p ?o where { ?s ?p ?o }", page_rows=0)

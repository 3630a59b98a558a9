"""Live ingest through the serving layer: POST /triples end to end.

Satellite contract of the epochal-snapshot work (``docs/live-graphs.md``):
ingesting triples into a *running* service — in-process, on a 2-worker
pool, or over a real HTTP socket — bumps the graph's epoch without
restart, and every subsequent ``/sparql`` / ``/ppr`` / ``/ego`` answer
is bit-identical to a cold rebuild of the merged graph.  Also covered
here: CSV and SPARQL-results-XML content negotiation on ``/sparql``
(bit-exact vs the JSON bindings; the XML form additionally decodes ids
back to IRIs through the graph's vocabularies), pool-aware page
accounting in ``/metrics``, delta replay on
worker respawn, and compaction mid-traffic leaving in-flight streams on
their original epoch.
"""

import asyncio
import json
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import quote

import numpy as np
import pytest

from repro.kg.cache import artifacts_for
from repro.models.shadowsaint import extract_ego_batch
from repro.sampling.ppr import batch_ppr_top_k
from repro.serve import ExtractionService, WorkerCrashed, WorkerPool, bound_port, serve_http
from repro.serve.loadgen import read_http_response
from repro.sparql.endpoint import SparqlEndpoint

ALL_TRIPLES = "select ?s ?p ?o where { ?s ?p ?o }"


def run(coroutine):
    return asyncio.run(coroutine)


def delta_rows(kg, rows, seed):
    rng = np.random.default_rng(seed)
    return np.stack(
        [
            rng.integers(0, kg.num_nodes, rows),
            rng.integers(0, kg.num_edge_types, rows),
            rng.integers(0, kg.num_nodes, rows),
        ],
        axis=1,
    ).astype(np.int64).tolist()


def assert_sparql_equal(result, expected):
    assert list(result.variables) == list(expected.variables)
    for variable in result.variables:
        assert np.array_equal(result.columns[variable], expected.columns[variable])


# -- in-process ---------------------------------------------------------------


def test_in_process_ingest_bumps_epoch_and_matches_cold_rebuild(toy_kg):
    async def scenario():
        service = ExtractionService()
        service.register("toy", toy_kg)
        await service.ppr_top_k("toy", 0, k=4)  # warm the caches pre-ingest

        result = await service.ingest_triples("toy", delta_rows(toy_kg, 8, seed=3))
        assert result["graph"] == "toy" and result["added"] == 8
        assert result["epoch"] == 1 and not result["compacted"]

        cold = service._graphs["toy"].live.epoch.cold_rebuild()
        ppr = await service.ppr_top_k("toy", 0, k=4)
        assert ppr == batch_ppr_top_k(artifacts_for(cold).csr("both"), [0], 4)[0]
        ego = await service.extract_ego("toy", 0, depth=2, fanout=3, salt=5)
        [expected] = extract_ego_batch(cold, [0], 2, 3, 5)
        assert np.array_equal(ego.nodes, expected.nodes)
        assert_sparql_equal(
            await service.sparql("toy", ALL_TRIPLES),
            SparqlEndpoint(cold).query(ALL_TRIPLES),
        )

        live = service.metrics_snapshot()["graphs"]["toy"]["live"]
        assert live["epoch"] == 1 and live["delta_rows"] == 8
        assert live["ingested_triples"] == 8
        await service.drain()

    run(scenario())


def test_ingest_rejects_id_minting_payloads_without_advancing(toy_kg):
    async def scenario():
        service = ExtractionService()
        service.register("toy", toy_kg)
        with pytest.raises(ValueError, match="does not mint new nodes"):
            await service.ingest_triples("toy", [[toy_kg.num_nodes, 0, 0]])
        empty = await service.ingest_triples("toy", [])
        assert empty["added"] == 0 and empty["epoch"] == 0
        await service.drain()

    run(scenario())


def test_compaction_mid_traffic_leaves_inflight_stream_on_its_epoch(toy_kg):
    async def scenario():
        service = ExtractionService(compact_every=4)
        service.register("toy", toy_kg)
        oracle = SparqlEndpoint(toy_kg).query(ALL_TRIPLES)

        # In-flight: the stream is admitted on epoch 0, pages not yet cut.
        stream = await service.sparql_stream("toy", ALL_TRIPLES, page_rows=3)

        result = await service.ingest_triples("toy", delta_rows(toy_kg, 5, seed=7))
        assert result["compacted"] and result["delta_rows"] == 0
        assert result["epoch"] == 1

        # The pages the in-flight stream yields are the epoch-0 answer,
        # untouched by the ingest-plus-compaction that happened mid-way.
        pages = list(stream.pages)
        assert sum(page.num_rows for page in pages) == oracle.num_rows
        start = 0
        for page in pages:
            for variable in oracle.variables:
                assert np.array_equal(
                    page.columns[variable],
                    oracle.columns[variable][start:start + page.num_rows],
                )
            start += page.num_rows

        # New traffic sees the compacted epoch.
        assert_sparql_equal(
            await service.sparql("toy", ALL_TRIPLES),
            SparqlEndpoint(
                service._graphs["toy"].live.epoch.cold_rebuild()
            ).query(ALL_TRIPLES),
        )
        await service.drain()

    run(scenario())


# -- the worker pool ----------------------------------------------------------


def test_pooled_ingest_is_lockstep_and_bit_identical(toy_kg):
    async def scenario(service):
        result = await service.ingest_triples("toy", delta_rows(toy_kg, 8, seed=3))
        assert result["epoch"] == 1

        cold = service._graphs["toy"].live.epoch.cold_rebuild()
        ppr = await service.ppr_top_k("toy", 0, k=4)
        assert ppr == batch_ppr_top_k(artifacts_for(cold).csr("both"), [0], 4)[0]
        ego = await service.extract_ego("toy", 0, depth=2, fanout=3, salt=5)
        [expected] = extract_ego_batch(cold, [0], 2, 3, 5)
        assert np.array_equal(ego.nodes, expected.nodes)
        assert_sparql_equal(
            await service.sparql("toy", ALL_TRIPLES),
            SparqlEndpoint(cold).query(ALL_TRIPLES),
        )
        live = service.metrics_snapshot()["graphs"]["toy"]["live"]
        assert live["epoch"] == 1 and live["ingested_triples"] == 8
        await service.drain()

    with WorkerPool(workers=2) as pool:
        service = ExtractionService(pool=pool)
        service.register("toy", toy_kg)
        run(scenario(service))


def test_pool_parent_builds_no_artifact_across_ingests(toy_kg, tmp_path):
    from repro.kg.store import open_artifacts, save_artifacts

    async def scenario(service):
        for seed in range(5):
            await service.ingest_triples("toy", delta_rows(toy_kg, 3, seed=seed))
            await service.ppr_top_k("toy", 0, k=4)
            await service.extract_ego("toy", 0, depth=2, fanout=3, salt=5)
            await service.paths("toy", 0, 7, max_hops=3, max_paths=8)
            await service.sparql("toy", ALL_TRIPLES)
        await service.drain()

    store = str(tmp_path / "store")
    save_artifacts(toy_kg, store)
    registered = open_artifacts(store).kg  # every artifact mapped, as in serving
    with WorkerPool(workers=1) as pool:
        service = ExtractionService(pool=pool)
        service.register("toy", registered, mmap_dir=store)
        run(scenario(service))
        live = service._graphs["toy"].live
        assert live.epoch.number == 5
        # The workers merged what the reads needed; the parent reads none
        # of its epochs' CSR projections or orderings, so it built none,
        # and every link points at the registered graph's mapped artifacts.
        mapped_csr = artifacts_for(registered)._csr
        for number in range(1, 6):
            kg = live.resolve(number).kg
            assert not artifacts_for(kg)._csr and not kg.hexastore._indices, number
            origins = artifacts_for(kg)._origins
            assert {d: m for d, (m, _) in origins.items()} == mapped_csr, number
            assert kg.hexastore._origins == registered.hexastore._indices, number


def test_pooled_respawn_replays_the_delta_log(toy_kg):
    with WorkerPool(workers=1) as pool:
        service = ExtractionService(pool=pool)
        service.register("toy", toy_kg)
        rows = delta_rows(toy_kg, 6, seed=11)
        run(service.ingest_triples("toy", rows))
        before = run(service.ppr_top_k("toy", 0, k=4))

        victim = pool.shards_of("toy")[0]
        inflight = pool._workers[victim].request("sleep", {"seconds": 60})
        os.kill(pool.worker_pids()[victim], signal.SIGKILL)
        with pytest.raises(WorkerCrashed):
            inflight.result(timeout=30)

        # The respawned worker replayed registration + the recorded delta:
        # it answers on epoch 1, identically to the pre-crash answer.
        assert pool.ping(victim) == "pong"
        assert run(service.ppr_top_k("toy", 0, k=4)) == before
        cold = service._graphs["toy"].live.epoch.cold_rebuild()
        assert before == batch_ppr_top_k(artifacts_for(cold).csr("both"), [0], 4)[0]
        run(service.drain())


def _wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.005)


def _worker_epoch(pool, index):
    """The epoch worker ``index`` holds.

    Re-sending the last logged delta is a no-op on a worker that already
    applied it, and the no-op answer reports that worker's epoch.
    """
    last = pool._deltas_for(index)[-1]
    return pool._workers[index].request("triples", last).result(timeout=30)["epoch"]


def _assert_worker_tracks_parent(service, pool):
    live = service._graphs["toy"].live
    assert _worker_epoch(pool, 0) == live.epoch.number
    # After one more ingest, a read at the parent's epoch must resolve to
    # the same merged graph on the worker.
    run(service.ingest_triples("toy", [[0, 0, 3], [3, 1, 0]]))
    cold = live.epoch.cold_rebuild()
    expected = batch_ppr_top_k(artifacts_for(cold).csr("both"), [0], 4)[0]
    assert run(service.ppr_top_k("toy", 0, k=4)) == expected
    assert _worker_epoch(pool, 0) == live.epoch.number


def test_ingest_racing_a_respawn_replay_applies_the_delta_once(toy_kg):
    """The respawn replays a delta whose ingest is still waiting to send it."""
    with WorkerPool(workers=1) as pool:
        service = ExtractionService(pool=pool)
        service.register("toy", toy_kg)
        slot = pool._workers[0]
        respawning, logged = threading.Event(), threading.Event()
        spawn = slot.spawn

        def gated_spawn():
            # Hold the respawn until the ingest has logged its delta: the
            # replay then carries it, and the waiting ingest sends it again.
            respawning.set()
            assert logged.wait(timeout=30)
            spawn()

        slot.spawn = gated_spawn
        os.kill(pool.worker_pids()[0], signal.SIGKILL)
        assert respawning.wait(timeout=30)
        with ThreadPoolExecutor(1) as executor:
            ingest = executor.submit(
                run, service.ingest_triples("toy", [[0, 0, 2], [2, 0, 0]])
            )
            _wait_until(lambda: pool._graphs["toy"].deltas)
            logged.set()
            assert ingest.result(timeout=60)["epoch"] == 1
        _assert_worker_tracks_parent(service, pool)
        run(service.drain())


def test_ingest_on_an_unnoticed_dead_worker_succeeds_through_replay(toy_kg):
    """A delta sent to a dead worker before the crash is noticed still lands."""
    with WorkerPool(workers=1) as pool:
        service = ExtractionService(pool=pool)
        service.register("toy", toy_kg)
        transport = pool._workers[0].transport
        noticed, release = threading.Event(), threading.Event()
        on_disconnect = transport._on_disconnect

        def held(dead):
            # The reader saw the pipe close; the pool hears of it only
            # after the ingest has been sent to the dead worker.
            noticed.set()
            assert release.wait(timeout=30)
            on_disconnect(dead)

        transport._on_disconnect = held
        os.kill(pool.worker_pids()[0], signal.SIGKILL)
        assert noticed.wait(timeout=30)
        try:
            result = run(service.ingest_triples("toy", [[0, 0, 2], [2, 0, 0]]))
        finally:
            release.set()
        assert result["epoch"] == 1
        slot = pool._workers[0]
        _wait_until(lambda: slot.respawns == 1 and slot.ready.is_set())
        _assert_worker_tracks_parent(service, pool)
        run(service.drain())


def test_pooled_page_accounting_agrees_with_in_process(toy_kg):
    async def drive(service):
        stream = await service.sparql_stream("toy", ALL_TRIPLES, page_rows=3)
        for _page in stream.pages:
            pass
        snapshot = service.metrics_snapshot()["graphs"]["toy"]["endpoint"]
        await service.drain()
        return snapshot

    inproc = ExtractionService()
    inproc.register("toy", toy_kg)
    expected = run(drive(inproc))

    with WorkerPool(workers=2) as pool:
        pooled_service = ExtractionService(pool=pool)
        pooled_service.register("toy", toy_kg)
        pooled = run(drive(pooled_service))

    # The pages the parent cuts from a worker-evaluated stream are folded
    # into the worker-side endpoint counters, so pooled /metrics reports
    # the same rows and bytes the in-process endpoint accounts itself.
    for key in ("requests", "rows_returned", "bytes_shipped", "compression_ratio"):
        assert pooled[key] == expected[key], key


# -- over a real HTTP socket --------------------------------------------------


async def _request(reader, writer, method, target, body=None, headers=()):
    lines = [f"{method} {target} HTTP/1.1", "Host: test"]
    lines.extend(f"{name}: {value}" for name, value in headers)
    payload = b"" if body is None else body
    if body is not None:
        lines.append("Content-Type: application/json")
        lines.append(f"Content-Length: {len(payload)}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload)
    await writer.drain()
    return await read_http_response(reader)


def serve_and_call(kg, calls, **service_kwargs):
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


def test_http_post_triples_then_queries_match_cold_rebuild(toy_kg):
    rows = delta_rows(toy_kg, 8, seed=3)

    async def calls(reader, writer):
        ingest = await _request(
            reader, writer, "POST", "/triples",
            body=json.dumps({"graph": "toy", "triples": rows}).encode(),
        )
        bad = await _request(
            reader, writer, "POST", "/triples",
            body=json.dumps(
                {"graph": "toy", "triples": [[toy_kg.num_nodes, 0, 0]]}
            ).encode(),
        )
        query = await _request(
            reader, writer, "GET", f"/sparql?query={quote(ALL_TRIPLES)}"
        )
        metrics = await _request(reader, writer, "GET", "/metrics")
        return ingest, bad, query, metrics

    (ingest, bad, query, metrics), service = serve_and_call(toy_kg, calls)

    status, _headers, body, _chunks = ingest
    assert status == 200
    payload = json.loads(body)
    assert payload == {
        "graph": "toy", "added": 8, "epoch": 1, "delta_rows": 8,
        "compacted": False,
    }

    status, _headers, body, _chunks = bad
    assert status == 400
    assert json.loads(body)["error"] == "bad_request"

    # The streamed bindings equal a cold rebuild of the merged epoch.
    cold = service._graphs["toy"].live.epoch.cold_rebuild()
    oracle = SparqlEndpoint(cold).query(ALL_TRIPLES)
    status, _headers, body, chunks = query
    assert status == 200 and chunks
    bindings = json.loads(body)["results"]["bindings"]
    assert len(bindings) == oracle.num_rows

    status, _headers, body, _chunks = metrics
    live = json.loads(body)["graphs"]["toy"]["live"]
    assert live["epoch"] == 1 and live["delta_rows"] == 8


def test_sparql_csv_negotiation_is_bit_exact_with_json_bindings(toy_kg):
    target = f"/sparql?query={quote(ALL_TRIPLES)}"

    async def calls(reader, writer):
        as_json = await _request(reader, writer, "GET", target)
        as_csv = await _request(
            reader, writer, "GET", target, headers=[("Accept", "text/csv")]
        )
        return as_json, as_csv

    (as_json, as_csv), _service = serve_and_call(toy_kg, calls)

    status, headers, body, _chunks = as_json
    assert status == 200
    assert headers["content-type"] == "application/sparql-results+json"
    parsed = json.loads(body)
    variables = parsed["head"]["vars"]
    json_rows = [
        [binding[variable]["value"] for variable in variables]
        for binding in parsed["results"]["bindings"]
    ]

    status, headers, body, chunks = as_csv
    assert status == 200 and chunks
    assert headers["content-type"] == "text/csv; charset=utf-8"
    lines = body.decode("utf-8").split("\r\n")
    assert lines[-1] == ""  # CRLF-terminated rows
    assert lines[0].split(",") == variables
    csv_rows = [line.split(",") for line in lines[1:-1]]
    assert csv_rows == json_rows


# -- SPARQL results XML: IRI-decoded bindings ---------------------------------

SPARQL_XML_NS = "http://www.w3.org/2005/sparql-results#"


def _parse_sparql_xml(body):
    """Parse a SPARQL 1.1 XML results document into (variables, rows).

    Each row maps variable → ("uri", term) or ("literal", text) so the
    tests can check both the decoded IRIs and the integer fallback.
    """
    import xml.etree.ElementTree as ET

    ns = {"sr": SPARQL_XML_NS}
    root = ET.fromstring(body.decode("utf-8"))
    assert root.tag == f"{{{SPARQL_XML_NS}}}sparql"
    variables = [
        element.attrib["name"]
        for element in root.findall("sr:head/sr:variable", ns)
    ]
    rows = []
    for result in root.findall("sr:results/sr:result", ns):
        row = {}
        for binding in result.findall("sr:binding", ns):
            uri = binding.find("sr:uri", ns)
            if uri is not None:
                row[binding.attrib["name"]] = ("uri", uri.text)
            else:
                literal = binding.find("sr:literal", ns)
                assert literal.attrib["datatype"].endswith("#integer")
                row[binding.attrib["name"]] = ("literal", literal.text)
        rows.append(row)
    return variables, rows


def test_sparql_xml_negotiation_decodes_iris_bit_exact_with_json(toy_kg):
    target = f"/sparql?query={quote(ALL_TRIPLES)}"

    async def calls(reader, writer):
        as_json = await _request(reader, writer, "GET", target)
        as_xml = await _request(
            reader, writer, "GET", target,
            headers=[("Accept", "application/sparql-results+xml")],
        )
        return as_json, as_xml

    (as_json, as_xml), _service = serve_and_call(toy_kg, calls)

    status, _headers, body, _chunks = as_json
    assert status == 200
    parsed = json.loads(body)
    variables = parsed["head"]["vars"]
    json_rows = [
        [binding[variable]["value"] for variable in variables]
        for binding in parsed["results"]["bindings"]
    ]

    status, headers, body, chunks = as_xml
    assert status == 200 and chunks
    assert headers["content-type"] == "application/sparql-results+xml; charset=utf-8"
    xml_variables, xml_rows = _parse_sparql_xml(body)
    assert xml_variables == variables

    # Every binding came back as an IRI; mapping each term back through
    # the vocabulary it was decoded from reproduces the JSON ids exactly.
    vocabs = {
        "s": toy_kg.node_vocab,
        "p": toy_kg.relation_vocab,
        "o": toy_kg.node_vocab,
    }
    decoded = []
    for row in xml_rows:
        assert all(kind == "uri" for kind, _term in row.values())
        decoded.append(
            [str(vocabs[variable].id(row[variable][1])) for variable in variables]
        )
    assert decoded == json_rows


def test_sparql_xml_decodes_class_bindings(toy_kg):
    query = "select ?v ?c where { ?v a ?c . }"

    async def calls(reader, writer):
        return await _request(
            reader, writer, "GET", f"/sparql?query={quote(query)}",
            headers=[("Accept", "application/sparql-results+xml")],
        )

    response, _service = serve_and_call(toy_kg, calls)
    status, _headers, body, _chunks = response
    assert status == 200
    _variables, rows = _parse_sparql_xml(body)
    assert rows
    for row in rows:
        kind, term = row["v"]
        assert kind == "uri" and toy_kg.node_vocab.id(term) >= 0
        kind, term = row["c"]
        assert kind == "uri" and toy_kg.class_vocab.id(term) >= 0


def test_sparql_xml_ambiguous_variable_falls_back_to_integer_literal(toy_kg):
    # ?x is a relation in one UNION arm and a node in the other — the
    # domains disagree, so the XML serializer must not decode it and
    # instead ships the raw id as an integer literal (exactly the JSON
    # value, so the formats stay bit-exact).
    query = (
        "select ?x { select ?p as ?x where { ?s ?p ?o. }"
        " union select ?s as ?x where { ?s ?p ?o. } }"
    )
    target = f"/sparql?query={quote(query)}"

    async def calls(reader, writer):
        as_json = await _request(reader, writer, "GET", target)
        as_xml = await _request(
            reader, writer, "GET", target,
            headers=[("Accept", "application/sparql-results+xml")],
        )
        return as_json, as_xml

    (as_json, as_xml), _service = serve_and_call(toy_kg, calls)
    json_values = [
        binding["x"]["value"]
        for binding in json.loads(as_json[2])["results"]["bindings"]
    ]
    status, _headers, body, _chunks = as_xml
    assert status == 200
    _variables, rows = _parse_sparql_xml(body)
    assert [row["x"] for row in rows] == [
        ("literal", value) for value in json_values
    ]


def test_sparql_xml_wins_content_negotiation_over_csv(toy_kg):
    async def calls(reader, writer):
        return await _request(
            reader, writer, "GET", f"/sparql?query={quote(ALL_TRIPLES)}",
            headers=[("Accept", "text/csv, application/sparql-results+xml")],
        )

    response, _service = serve_and_call(toy_kg, calls)
    status, headers, _body, _chunks = response
    assert status == 200
    assert headers["content-type"].startswith("application/sparql-results+xml")

"""The correctness gate: byte-exact oracle checks and live epoch windows."""

import json

import pytest

import client
from oracle import GRAPH, Oracle
from serving import Checker


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    from repro.datasets import catalog
    from repro.kg.store import save_artifacts

    directory = tmp_path_factory.mktemp("store")
    save_artifacts(catalog.mag("tiny", 7).kg, str(directory))
    return str(directory)


def _sample(request, body, sent, done, status=200):
    return client.Sample(0, request, due=sent, sent=sent, done=done, status=status, body=body)


def test_a_corrupted_response_is_rejected(store):
    oracle = Oracle(store)
    request = {"op": "ppr", "graph": GRAPH, "target": 3, "k": 8}
    good = oracle.ndjson_line(request)
    digit = next(i for i, byte in enumerate(good) if chr(byte) in "123456789")
    corrupted = good[:digit] + (b"1" if good[digit:digit + 1] != b"1" else b"2") + good[digit + 1:]
    samples = [_sample(request, good, 1.0, 1.1), _sample(request, corrupted, 1.2, 1.3),
               _sample(request, b'{"ok": false, "error": "overloaded"}\n', 1.4, 1.5, 503)]
    verdicts = Checker(oracle, "tcp").check(samples)
    assert [verdicts[id(s)] for s in samples] == ["ok", "wrong", "refused"]
    oracle.close()


def test_sparql_bindings_are_compared_by_value(store):
    oracle = Oracle(store)
    term = oracle.kg.node_vocab.term(3)
    request = {"op": "sparql", "graph": GRAPH, "query": f"select ?p ?o where {{ <{term}> ?p ?o }}"}
    columns = oracle.payload(request)["columns"]
    rows = [{v: {"type": "literal", "value": str(columns[v][i])} for v in columns}
            for i in range(len(columns["p"]))]
    body = json.dumps({"head": {"vars": list(columns)}, "results": {"bindings": rows}})
    wrong_rows = [dict(row, o={"type": "literal", "value": "999999"}) for row in rows]
    wrong = json.dumps({"head": {"vars": list(columns)}, "results": {"bindings": wrong_rows}})
    samples = [_sample(request, body.encode(), 1.0, 1.1), _sample(request, wrong.encode(), 1.2, 1.3)]
    verdicts = Checker(oracle, "http").check(samples)
    assert [verdicts[id(s)] for s in samples] == ["ok", "wrong"]
    oracle.close()


def test_live_reads_are_checked_at_the_epochs_they_could_see(store):
    reference = Oracle(store)
    target = 3
    read = {"op": "ppr", "graph": GRAPH, "target": target, "k": 8}
    before = reference.http_body(read)
    triples = [[target, 0, 5], [5, 0, target], [target, 1, 7]]
    ingest = {"op": "triples", "graph": GRAPH, "triples": triples}
    result = reference.ingest(triples)
    after = reference.http_body(read)
    assert before != after, "the ingest must change this read's answer"
    ack = json.dumps({"graph": GRAPH, **result}).encode()

    samples = [
        _sample(read, before, 1.0, 1.1),       # before the ingest: epoch 0 only
        _sample(ingest, ack, 2.0, 2.5),
        _sample(read, after, 2.1, 2.2),        # overlaps it: epoch 0 or 1
        _sample(read, before, 2.2, 2.3),       # overlaps it: epoch 0 or 1
        _sample(read, after, 3.0, 3.1),        # after the ack: epoch 1 only
        _sample(read, before, 3.2, 3.3),       # stale answer after the ack
    ]
    checker = Checker(Oracle(store), "http")
    verdicts = checker.check(samples)
    assert [verdicts[id(s)] for s in samples] == ["ok", "ok", "ok", "ok", "ok", "wrong"]
    assert checker.exact == 3 and checker.windowed == 2
    reference.close()

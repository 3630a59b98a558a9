"""The worker wire over TCP: bit-identity, crash/reconnect, hardening.

The distributed tier's contract (``repro/serve/transport.py``) in test
form:

* pooled serving over a remote :class:`WorkerTransport` is
  **bit-identical** to in-process serving for every pool op — JSON
  floats round-trip via repr (shortest round-trip), and the codec
  reconstructs the exact container types (ppr tuples, ego int64 arrays,
  sparql columns);
* a remote worker killed mid-request fails only its in-flight requests,
  each with a structured :class:`WorkerCrashed`; when the worker comes
  back, the slot reconnects on demand and replays registrations **and**
  the recorded ingest deltas, so answers stay bit-identical across the
  outage;
* what cannot cross the wire (an in-memory graph for a remote owner, a
  parsed query AST) fails parent-side with an actionable error;
* a worker keeps a parent's shards until the parent says goodbye, or
  until the parent has been gone for ``PARENT_IDLE_SECONDS``;
* the standalone worker server survives garbage frames, oversized
  frames and partial frames: one structured error response (or a silent
  drop for a half-frame), never a dispatched half-request.
"""

import asyncio
import dataclasses
import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from multiprocessing.connection import Connection

import numpy as np
import pytest

from repro.kg.store import open_artifacts, save_artifacts
from repro.serve import ExtractionService, WorkerCrashed, WorkerPool
from repro.serve import transport
from repro.serve.kernels import WINDOWS
from repro.serve.transport import (
    GraphShard,
    WorkerListener,
    WorkerServer,
    decode_result,
    encode_frame,
    encode_result,
)


def run(coroutine):
    return asyncio.run(coroutine)


@pytest.fixture
def toy_store(toy_kg, tmp_path):
    save_artifacts(toy_kg, str(tmp_path))
    return str(tmp_path)


def _ids(kg, s, p, o):
    """One ingest row (integer ids) from toy-graph labels."""
    return [kg.node_vocab.id(s), kg.relation_vocab.id(p), kg.node_vocab.id(o)]


# -- an in-thread standalone worker (the `repro serve-worker` core) ------------


class _WorkerThread:
    """One standalone worker server accepting on a background thread."""

    def __init__(self):
        self.server = WorkerServer()
        self.listener = WorkerListener(self.server)
        self.port = self.listener.port
        self.thread = threading.Thread(target=self.listener.serve_forever, daemon=True)
        self.thread.start()

    @property
    def address(self) -> str:
        return f"127.0.0.1:{self.port}"

    def stop(self):
        self.listener.close()
        self.thread.join(timeout=30)


@pytest.fixture
def worker_thread():
    worker = _WorkerThread()
    yield worker
    worker.stop()


# -- bit-identity across the TCP wire for every pool op ------------------------


def test_remote_pool_bit_identical_for_every_op(toy_kg, toy_store, worker_thread):
    """All ops answered over TCP match in-process serving bitwise.

    Covers ping, register (via registration), triples (live ingest),
    ppr, ego, sparql, sparql_stream and count; /predict crosses the same
    wire in ``test_remote_predict_bit_identical`` (it needs a trained
    checkpoint).
    """
    query = "select ?s ?p ?o where { ?s ?p ?o } limit 64"
    new_triples = [
        _ids(toy_kg, "p5", "cites", "p0"),
        _ids(toy_kg, "p4", "publishedIn", "v1"),
    ]
    targets = list(range(8))

    async def drive(service):
        pprs = await asyncio.gather(
            *(service.ppr_top_k("toy", t, k=6) for t in targets)
        )
        egos = await asyncio.gather(
            *(service.extract_ego("toy", t, depth=2, fanout=3, salt=5)
              for t in targets)
        )
        rows = await service.sparql("toy", query)
        count = await service.count("toy", query)
        stream = await service.sparql_stream("toy", query, page_rows=5)
        pages = list(stream.pages)
        ingest = await service.ingest_triples("toy", new_triples)
        after = await service.sparql(
            "toy", "select ?o where { <p4> <publishedIn> ?o }"
        )
        return pprs, egos, rows, count, pages, ingest, after

    with WorkerPool(workers=0, remote_workers=[worker_thread.address]) as pool:
        assert pool.ping(0) == "pong"
        remote = ExtractionService(max_batch=8, pool=pool)
        remote.register("toy", open_artifacts(toy_store).kg, mmap_dir=toy_store)
        r_pprs, r_egos, r_rows, r_count, r_pages, r_ingest, r_after = run(
            drive(remote)
        )
        description = pool.describe()

    local = ExtractionService(max_batch=8)
    local.register("toy", toy_kg)
    l_pprs, l_egos, l_rows, l_count, l_pages, l_ingest, l_after = run(drive(local))

    # ppr: identical lists of (node, score) tuples — types included, so
    # == is a bitwise comparison of the float scores.
    assert r_pprs == l_pprs
    for r_ego, l_ego in zip(r_egos, l_egos):
        np.testing.assert_array_equal(r_ego.nodes, l_ego.nodes)
        np.testing.assert_array_equal(r_ego.src, l_ego.src)
        np.testing.assert_array_equal(r_ego.dst, l_ego.dst)
        np.testing.assert_array_equal(r_ego.rel, l_ego.rel)
    assert r_rows.variables == l_rows.variables
    for variable in l_rows.variables:
        assert r_rows.columns[variable].dtype == np.int64
        np.testing.assert_array_equal(
            r_rows.columns[variable], l_rows.columns[variable]
        )
    assert r_count == l_count
    assert [page.num_rows for page in r_pages] == [
        page.num_rows for page in l_pages
    ]
    assert r_ingest["added"] == l_ingest["added"]
    assert r_ingest["epoch"] == l_ingest["epoch"]
    for variable in l_after.variables:
        np.testing.assert_array_equal(
            r_after.columns[variable], l_after.columns[variable]
        )
    # The transport reported itself, and stats were pulled over the wire.
    assert description["transports"] == ["remote"]
    assert pool.graph_stats("toy")["artifact_cache"]["mapped_nbytes"] > 0


def test_remote_predict_bit_identical(toy_kg, toy_task, toy_store, worker_thread):
    from repro.models import ModelConfig, RGCNNodeClassifier
    from repro.nn.checkpoint import save_checkpoint

    config = ModelConfig(
        hidden_dim=16, num_layers=2, dropout=0.0, lr=0.05, batch_size=16, seed=3
    )
    model = RGCNNodeClassifier(toy_kg, toy_task, config)
    rng = np.random.default_rng(0)
    for _ in range(2):
        model.train_epoch(rng)
    checkpoint = os.path.join(toy_store, "nc-rgcn.ckpt")
    save_checkpoint(model, checkpoint, metrics={"test_metric": 0.9})
    targets = [int(t) for t in toy_task.target_nodes]

    async def drive(service):
        return await asyncio.gather(
            *(service.predict("toy", "PV", node=t) for t in targets)
        )

    with WorkerPool(workers=0, remote_workers=[worker_thread.address]) as pool:
        remote = ExtractionService(pool=pool)
        remote.register("toy", open_artifacts(toy_store).kg, mmap_dir=toy_store)
        remote.register_checkpoint("toy", checkpoint)
        remote_payloads = run(drive(remote))

    local = ExtractionService(coalesce=False)
    local.register("toy", toy_kg)
    local.register_checkpoint("toy", checkpoint)
    assert remote_payloads == run(drive(local))


# -- what cannot cross the wire ------------------------------------------------


def test_remote_pool_rejects_pickled_graph_registration(toy_kg, worker_thread):
    with WorkerPool(workers=0, remote_workers=[worker_thread.address]) as pool:
        with pytest.raises(ValueError, match="artifact path"):
            pool.register("toy", toy_kg, warm=False)


def test_pooled_sparql_with_a_parsed_query_fails_with_type_error(toy_kg):
    from repro.sparql.parser import parse_query

    query = parse_query("select ?s where { ?s ?p ?o }")
    with WorkerPool(workers=1) as pool:
        pool.register("toy", toy_kg, warm=False)
        with pytest.raises(TypeError, match="not JSON serializable"):
            pool.call("sparql", {"graph": "toy", "query": query}, timeout=30)
        # Nothing was sent: the worker still answers.
        assert pool.ping(0) == "pong"


def _assert_same(decoded, answer):
    """``decoded == answer``, with containers and arrays compared exactly."""
    if isinstance(answer, np.ndarray):
        assert decoded.dtype == answer.dtype
        np.testing.assert_array_equal(decoded, answer)
    elif dataclasses.is_dataclass(answer):
        assert type(decoded) is type(answer)
        _assert_same(vars(decoded), vars(answer))
    elif isinstance(answer, dict):
        assert type(decoded) is dict and decoded.keys() == answer.keys()
        for key in answer:
            _assert_same(decoded[key], answer[key])
    elif isinstance(answer, (list, tuple)):
        assert type(decoded) is type(answer) and len(decoded) == len(answer)
        for item, expected in zip(decoded, answer):
            _assert_same(item, expected)
    else:
        assert decoded == answer


#: One sample payload per op, beyond ``graph`` (and ``epoch``) — a window
#: op declared without one fails its generated case below.
_CODEC_SAMPLES = {
    "ppr": {"targets": [0, 3, 5, 3], "k": 6, "alpha": 0.25, "eps": 2e-4},
    "ego": {"roots": [0, 3, 9], "depth": 2, "fanout": 3, "salt": 5},
    "paths": {"pairs": [[3, 6], [0, 9], [2, 0]], "max_hops": 3, "max_paths": 8},
    "predict": {"items": [0, 2, 5, 7], "task": "PV", "model": "RGCN", "k": 2,
                "candidates": 0},
    "sparql": {"query": "select ?s ?p ?o where { ?s ?p ?o }"},
    "count": {"query": "select ?s ?o where { ?s <cites> ?o }"},
}


@pytest.mark.parametrize("op", [*WINDOWS, "sparql", "count"])
def test_codec_round_trips_every_op(op, toy_kg, toy_task, tmp_path):
    """Worker JSON → parent decode rebuilds the in-process answer exactly.

    The worker's encoding is the front ends' ``result_payload`` (per
    answer of a window), so both wires ship the same JSON.
    """
    from repro.models import ModelConfig, RGCNNodeClassifier
    from repro.nn.checkpoint import save_checkpoint
    from repro.serve.wire import result_payload

    shard = GraphShard(toy_kg, compression=True)
    if op == "predict":
        config = ModelConfig(hidden_dim=8, num_layers=2, dropout=0.0, lr=0.05,
                             batch_size=16, seed=3)
        model = RGCNNodeClassifier(toy_kg, toy_task, config)
        model.train_epoch(np.random.default_rng(0))
        checkpoint = str(tmp_path / "nc.ckpt")
        save_checkpoint(model, checkpoint, metrics={"test_metric": 0.9})
        shard.registry.add("toy", checkpoint, expected_graph="toy")
    payload = {"graph": "toy", "epoch": 0, **_CODEC_SAMPLES[op]}
    answer = shard.execute(op, payload)
    shipped = json.loads(encode_frame({"result": encode_result(op, answer)}))["result"]
    _assert_same(decode_result(op, shipped), answer)
    answers, encoded = ([answer], [shipped]) if op not in WINDOWS else (answer, shipped)
    for one, wire in zip(answers, encoded):
        assert json.dumps(result_payload(one)) == json.dumps(wire)


# -- crash containment, reconnect-on-demand, replay ----------------------------


_WORKER_SCRIPT = """
import sys
from repro.serve.transport import WorkerListener, WorkerServer

listener = WorkerListener(WorkerServer(), port=int(sys.argv[1]))
print("ready", flush=True)
listener.serve_forever()
"""


def _spawn_worker_process(port: int) -> subprocess.Popen:
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
        "src",
    )
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-c", _WORKER_SCRIPT, str(port)],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    assert process.stdout.readline().strip() == "ready"
    return process


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_remote_worker_killed_and_restarted_replays_state(toy_kg, toy_store):
    """SIGKILL mid-request → WorkerCrashed; restart → replayed bitwise.

    The restarted worker process starts empty: the slot's reconnect must
    replay the registration **and** the ingest delta recorded before the
    kill, or the post-outage answers would be served off a stale epoch.
    """
    port = _free_port()
    process = _spawn_worker_process(port)
    try:
        with WorkerPool(workers=0, remote_workers=[f"127.0.0.1:{port}"]) as pool:
            service = ExtractionService(pool=pool)
            service.register("toy", open_artifacts(toy_store).kg, mmap_dir=toy_store)
            run(
                service.ingest_triples("toy", [_ids(toy_kg, "p5", "cites", "p0")])
            )
            before_ppr = run(service.ppr_top_k("toy", 0, k=4))
            before_rows = run(
                service.sparql("toy", "select ?o where { <p5> <cites> ?o }")
            )

            inflight = pool._workers[0].request("sleep", {"seconds": 60})
            process.kill()
            process.wait(timeout=30)
            with pytest.raises(WorkerCrashed, match="died with this request"):
                inflight.result(timeout=30)

            process = _spawn_worker_process(port)
            # Reconnect-on-demand: the next routed request retries the
            # spawn, replays registrations + deltas, then answers.
            after_ppr = run(service.ppr_top_k("toy", 0, k=4))
            after_rows = run(
                service.sparql("toy", "select ?o where { <p5> <cites> ?o }")
            )
            assert after_ppr == before_ppr
            assert after_rows.variables == before_rows.variables
            for variable in before_rows.variables:
                np.testing.assert_array_equal(
                    after_rows.columns[variable], before_rows.columns[variable]
                )
            assert pool.describe()["respawns"] >= 1
    finally:
        process.kill()
        process.wait(timeout=30)


def test_reconnect_to_a_stateful_worker_does_not_reapply_deltas(
    toy_kg, toy_store, worker_thread
):
    """A dropped connection replays the whole log to a worker that kept it.

    The standalone worker outlives the connection with its graphs and
    epochs intact, so every replayed delta is one it already applied.
    """
    rows = [_ids(toy_kg, "p5", "cites", "p0"), _ids(toy_kg, "p0", "cites", "p5")]
    more = [_ids(toy_kg, "p4", "cites", "p0")]
    local = ExtractionService()
    local.register("toy", toy_kg)
    with WorkerPool(workers=0, remote_workers=[worker_thread.address]) as pool:
        service = ExtractionService(pool=pool)
        service.register("toy", open_artifacts(toy_store).kg, mmap_dir=toy_store)
        for target in (service, local):
            run(target.ingest_triples("toy", rows))
        slot = pool._workers[0]
        slot.transport._sock.shutdown(socket.SHUT_RDWR)
        deadline = time.monotonic() + 30
        while not (slot.respawns == 1 and slot.ready.is_set()):
            assert time.monotonic() < deadline, pool.describe()
            time.sleep(0.01)

        worker = worker_thread.server._shards[pool.parent_id]["toy"].live
        assert worker.epoch.number == service._graphs["toy"].live.epoch.number == 1
        for target in (service, local):
            run(target.ingest_triples("toy", more))
        assert worker.epoch.number == 2
        assert run(service.ppr_top_k("toy", 0, k=4)) == run(
            local.ppr_top_k("toy", 0, k=4)
        )


def test_a_second_parent_does_not_inherit_an_earlier_parents_epochs(
    toy_kg, toy_store, worker_thread
):
    """Parents that share a standalone worker each see only their own chain.

    Two pools, one after the other, ingest one different triple each into
    the same graph on one worker; the second parent must answer exactly
    like a fresh in-process parent that ingested only its own triple.
    """
    for rows in ([_ids(toy_kg, "p5", "cites", "p0")],
                 [_ids(toy_kg, "p4", "cites", "p1")]):
        local = ExtractionService()
        local.register("toy", toy_kg)
        run(local.ingest_triples("toy", rows))
        with WorkerPool(workers=0, remote_workers=[worker_thread.address]) as pool:
            service = ExtractionService(pool=pool)
            service.register("toy", open_artifacts(toy_store).kg, mmap_dir=toy_store)
            ingest = run(service.ingest_triples("toy", rows))
            assert ingest["epoch"] == 1
            assert run(service.ppr_top_k("toy", 0, k=6)) == run(
                local.ppr_top_k("toy", 0, k=6)
            )


def test_preregistered_graph_serves_each_parent_its_own_chain(toy_kg, toy_store):
    """A CLI pre-registered graph is mapped once and reused by every parent."""
    server = WorkerServer()
    server.register_local(
        {"name": "toy", "mmap_dir": toy_store, "warm": True, "compression": True}
    )
    assert server.graphs() == ["toy"]
    registration = {"name": "toy", "mmap_dir": toy_store, "compression": True}
    delta = {"graph": "toy", "triples": [_ids(toy_kg, "p5", "cites", "p0")],
             "compact": False, "seq": 1}
    server.execute("register", dict(registration, parent="a"), "a")
    assert server.execute("triples", delta, "a")[0]["epoch"] == 1
    server.execute("register", dict(registration, parent="b"), "b")
    first, second = server._shards["a"]["toy"], server._shards["b"]["toy"]
    assert second.live.epoch.number == 0
    assert second.live.epoch.base_kg is first.live.epoch.base_kg
    assert server.execute("triples", delta, "b")[0]["epoch"] == 1


def test_dead_replica_does_not_stall_routing(toy_kg, toy_store):
    """Requests route around a crashed owner while its reconnect pends.

    With two remote owners, killing one must not make round-robin park
    every other request on the dead slot for the respawn window
    (``RESPAWN_WAIT_SECONDS``): the live replica answers bit-identically,
    so routing prefers ready owners and only waits when none is left.
    """
    ports = [_free_port(), _free_port()]
    processes = [_spawn_worker_process(port) for port in ports]
    try:
        remotes = [f"127.0.0.1:{port}" for port in ports]
        with WorkerPool(workers=0, remote_workers=remotes, replicas=2) as pool:
            service = ExtractionService(pool=pool)
            service.register("toy", open_artifacts(toy_store).kg, mmap_dir=toy_store)
            before = run(service.ppr_top_k("toy", 0, k=4))
            assert sorted(pool.shards_of("toy")) == [0, 1]

            processes[0].kill()
            processes[0].wait(timeout=30)

            start = time.monotonic()
            answers = [run(service.ppr_top_k("toy", 0, k=4)) for _ in range(6)]
            elapsed = time.monotonic() - start
            assert answers == [before] * 6
            # Well under the 60 s respawn window the dead slot would cost.
            assert elapsed < 15.0
            described = pool.describe()
            assert described["alive"] == [False, True]

            # The worker coming back must rejoin: routing kicks its
            # reconnect in the background while replicas keep answering.
            processes[0] = _spawn_worker_process(ports[0])
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                assert run(service.ppr_top_k("toy", 0, k=4)) == before
                if pool.describe()["alive"] == [True, True]:
                    break
                time.sleep(0.1)
            assert pool.describe()["alive"] == [True, True]
            assert run(service.ppr_top_k("toy", 0, k=4)) == before
    finally:
        for process in processes:
            process.kill()
            process.wait(timeout=30)


def test_unreachable_remote_worker_fails_pool_construction():
    port = _free_port()  # nothing listens here
    with pytest.raises(OSError):
        WorkerPool(workers=0, remote_workers=[f"127.0.0.1:{port}"])


def test_remote_address_must_be_host_port():
    with pytest.raises(ValueError, match="HOST:PORT"):
        WorkerPool(workers=0, remote_workers=["localhost"])
    with pytest.raises(ValueError, match="HOST:PORT"):
        WorkerPool(workers=0, remote_workers=["localhost:not-a-port"])


# -- per-parent state on a standalone worker ----------------------------------


def test_a_closed_pool_leaves_no_shards_on_the_worker(toy_kg, toy_store, worker_thread):
    with WorkerPool(workers=0, remote_workers=[worker_thread.address]) as pool:
        service = ExtractionService(pool=pool)
        service.register("toy", open_artifacts(toy_store).kg, mmap_dir=toy_store)
        run(service.ingest_triples("toy", [_ids(toy_kg, "p5", "cites", "p0")]))
        assert pool.parent_id in worker_thread.server._shards
    # The goodbye is answered before close returns.
    assert pool.parent_id not in worker_thread.server._shards
    assert worker_thread.server.graphs() == []


def test_a_parent_gone_without_goodbye_is_swept_at_the_next_registration(
    toy_store, monkeypatch
):
    server = WorkerServer()
    registration = {"name": "toy", "mmap_dir": toy_store, "compression": True}
    # A connection registers parent "a", then closes without a goodbye.
    _, parent = server.execute("register", dict(registration, parent="a"))
    assert parent == "a"
    server.detach(parent)
    server.execute("register", dict(registration, parent="b"))
    assert sorted(server._shards) == ["a", "b"]  # not idle long enough yet
    monkeypatch.setattr(transport, "PARENT_IDLE_SECONDS", 0.0)
    server.execute("register", dict(registration, parent="c"))
    # "b" still has its connection open; "a" is gone.
    assert sorted(server._shards) == ["b", "c"]


# -- wire hardening on the standalone worker server ----------------------------


def _frame(body: bytes) -> bytes:
    """One length-prefixed frame, as ``Connection.send_bytes`` writes it."""
    return struct.pack("!i", len(body)) + body


def _request(request_id, op, **payload) -> bytes:
    return _frame(json.dumps({"id": request_id, "op": op, "payload": payload}).encode())


def _raw_exchange(port: int, data: bytes) -> list:
    """Send raw bytes, then read every response frame until the server
    closes (a single response to an error frame: it closes after it)."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    sock.sendall(data)
    sock.shutdown(socket.SHUT_WR)
    sock.settimeout(None)
    responses = []
    with Connection(sock.detach()) as conn:
        while True:
            assert conn.poll(10), "the server neither answered nor closed"
            try:
                responses.append(json.loads(conn.recv_bytes()))
            except EOFError:
                return responses


def test_worker_server_answers_garbage_bytes_with_one_error(worker_thread):
    (response,) = _raw_exchange(worker_thread.port, _frame(b"\x00\xff this is not json"))
    assert response["status"] == "error"
    assert response["result"][0] == "BadRequest"
    assert "invalid JSON" in response["result"][1]


def test_worker_server_rejects_non_object_and_bad_payload_frames(worker_thread):
    (response,) = _raw_exchange(worker_thread.port, _frame(b"[1,2,3]"))
    assert response["status"] == "error"
    assert "JSON object with a string 'op'" in response["result"][1]
    (response,) = _raw_exchange(
        worker_thread.port, _frame(b'{"id":1,"op":"ping","payload":[]}')
    )
    assert response["status"] == "error"
    assert "'payload' must be a JSON object" in response["result"][1]


def test_worker_server_rejects_oversized_frames(worker_thread):
    from repro.serve.wire import MAX_LINE_BYTES

    blob = b'{"id":1,"op":"ping","payload":{"x":"' + b"a" * MAX_LINE_BYTES + b'"}}'
    (response,) = _raw_exchange(worker_thread.port, _frame(blob))
    assert response["status"] == "error"
    assert "exceeds" in response["result"][1]


def test_worker_server_drops_partial_frames_without_dispatch(worker_thread):
    # Half a request at EOF must never execute — the server closes
    # without a response.
    assert _raw_exchange(worker_thread.port, _request(1, "ping")[:-3]) == []
    # And the server is still healthy for well-formed traffic afterwards.
    assert _raw_exchange(worker_thread.port, _request(2, "ping")) == [
        {"id": 2, "status": "ok", "result": "pong"}
    ]


def test_worker_server_maps_op_errors_to_structured_responses(
    worker_thread, toy_store
):
    register = _request(1, "register", name="toy", mmap_dir=toy_store, compression=True)
    unknown = _request(3, "nope", graph="toy")
    registered, response = _raw_exchange(worker_thread.port, register + unknown)
    assert registered["status"] == "ok"
    assert response["status"] == "error"
    assert response["result"][0] == "ValueError"
    assert "unknown pool op" in response["result"][1]
    (response,) = _raw_exchange(
        worker_thread.port,
        _request(4, "ppr", graph="missing", targets=[0], k=4, alpha=0.25, eps=0.0002),
    )
    assert response["status"] == "error"
    assert response["result"][0] == "KeyError"


# -- pipelining on one connection ----------------------------------------------


def test_worker_server_answers_pipelined_frames_in_order(worker_thread):
    frames = b"".join(_request(i, "ping") for i in range(8))
    responses = _raw_exchange(worker_thread.port, frames)
    assert [r["id"] for r in responses] == list(range(8))
    assert all(r["status"] == "ok" for r in responses)


# -- mixed local + remote tiers ------------------------------------------------


def test_mixed_local_and_remote_slots_share_one_graph(toy_store, worker_thread):
    """A pool spanning both transports serves one graph bit-identically."""
    kg = open_artifacts(toy_store).kg
    with WorkerPool(workers=1, remote_workers=[worker_thread.address]) as pool:
        assert pool.num_workers == 2
        service = ExtractionService(pool=pool)
        service.register("toy", kg, mmap_dir=toy_store)
        assert sorted(pool.shards_of("toy")) == [0, 1]
        for index in range(2):
            assert pool.ping(index) == "pong"
        # Round-robin really lands on both transports: issue a few calls
        # and compare against the in-process answer each time.
        local = ExtractionService()
        local.register("toy", kg)
        expected = run(local.ppr_top_k("toy", 0, k=4))
        for _ in range(4):
            assert run(service.ppr_top_k("toy", 0, k=4)) == expected
        assert pool.describe()["transports"] == ["local", "remote"]

"""/paths serving: bit-identity, failure injection, cache invalidation.

The path-extraction workload's serving contract in test form:

* ``/paths`` answers are **bit-identical** to the scalar DFS oracle in
  every serving mode — in-process coalesced, in-process serial, local
  worker pool, remote-TCP worker pool — and over both wire front ends
  (HTTP and ndjson-TCP);
* a worker killed with a ``/paths`` request in flight fails that request
  with a structured :class:`WorkerCrashed`, and the respawned slot
  re-answers the same request identically;
* overload sheds ``/paths`` with 503 + a kind-aware Retry-After (floored
  at the coalescing window, like every coalesced kind);
* an epoch ingest invalidates only the path-cache entries whose support
  sets touch the delta — disjoint entries survive and keep hitting;
* out-of-range kernel parameters on ``paths``/``ppr``/``ego`` map to a
  structured 400 ``bad_request`` on both front ends (the clamp gap).
"""

import asyncio
import json
import os
import signal
import threading

import pytest

from repro.kg.store import open_artifacts, save_artifacts
from repro.sampling.paths import enumerate_paths_scalar
from repro.serve import (
    ExtractionService,
    WorkerCrashed,
    WorkerPool,
    bound_port,
    serve_http,
    serve_tcp,
)
from repro.serve.loadgen import read_http_response
from repro.serve.transport import WorkerListener, WorkerServer


def run(coroutine):
    return asyncio.run(coroutine)


def _n(kg, label):
    return kg.node_vocab.id(label)


def _oracle(kg, src, dst, max_hops=3, max_paths=64):
    return enumerate_paths_scalar(kg, src, dst, max_hops=max_hops, max_paths=max_paths)


# Pairs spanning the toy graph's interesting shapes: a direct edge, two
# 2-hop cites->hasAuthor chains, the disconnected movie domain, a pair
# with no directed path at all.
PAIR_LABELS = [
    ("p0", "a0"),  # 1 hop: hasAuthor
    ("p0", "a1"),  # 2 hops: cites p2, hasAuthor a1
    ("p3", "a0"),  # 2 hops: cites p1, hasAuthor a0
    ("m0", "m1"),  # 1 hop in the disconnected movie domain
    ("a0", "p0"),  # no directed path (authors have no out-edges)
]


@pytest.fixture
def toy_store(toy_kg, tmp_path):
    save_artifacts(toy_kg, str(tmp_path))
    return str(tmp_path)


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


async def _request(reader, writer, method, target, body=None, headers=()):
    lines = [f"{method} {target} HTTP/1.1", "Host: test"]
    lines.extend(f"{name}: {value}" for name, value in headers)
    payload = b"" if body is None else body
    if body is not None:
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


def serve_and_send(kg, requests, **service_kwargs):
    async def scenario():
        service = ExtractionService(**service_kwargs)
        service.register("toy", kg)
        server = await serve_tcp(service, port=0)
        async with server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", bound_port(server)
            )
            responses = []
            for request in requests:
                writer.write(json.dumps(request).encode() + b"\n")
                await writer.drain()
                responses.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            return responses

    return asyncio.run(scenario())


# -- bit-identity across every serving mode ------------------------------------


def test_paths_bit_identical_across_service_modes(toy_kg, toy_store, worker_thread):
    """In-process (coalesced + serial), local pool and remote-TCP pool all
    reproduce the scalar DFS oracle bit for bit."""
    pairs = [(_n(toy_kg, s), _n(toy_kg, d)) for s, d in PAIR_LABELS]
    oracle = [_oracle(toy_kg, s, d) for s, d in pairs]
    assert any(oracle) and not all(oracle)  # non-empty *and* empty answers

    async def drive(service):
        return list(
            await asyncio.gather(
                *(service.paths("toy", s, d, max_hops=3, max_paths=64)
                  for s, d in pairs)
            )
        )

    coalesced = ExtractionService(max_batch=8)
    coalesced.register("toy", toy_kg)
    assert run(drive(coalesced)) == oracle

    serial = ExtractionService(coalesce=False)
    serial.register("toy", toy_kg)
    assert run(drive(serial)) == oracle

    with WorkerPool(workers=2) as pool:
        pooled = ExtractionService(pool=pool)
        pooled.register("toy", toy_kg)
        assert run(drive(pooled)) == oracle

    with WorkerPool(workers=0, remote_workers=[worker_thread.address]) as pool:
        remote = ExtractionService(pool=pool)
        remote.register("toy", open_artifacts(toy_store).kg, mmap_dir=toy_store)
        assert run(drive(remote)) == oracle


def test_paths_over_http_wire_matches_oracle(toy_kg):
    src, dst = _n(toy_kg, "p0"), _n(toy_kg, "a1")
    expected = _oracle(toy_kg, src, dst, max_hops=3, max_paths=8)
    body = json.dumps(
        {"graph": "toy", "src": src, "dst": dst, "max_hops": 3, "max_paths": 8}
    ).encode()

    async def calls(reader, writer):
        posted = await _request(
            reader, writer, "POST", "/paths", body=body,
            headers=[("Content-Type", "application/json")],
        )
        got = await _request(
            reader, writer, "GET",
            f"/paths?graph=toy&src={src}&dst={dst}&max_hops=3&max_paths=8",
        )
        return posted, got

    (posted, got), _service = serve_and_call(toy_kg, calls)
    for status, headers, payload, _chunks in (posted, got):
        assert status == 200
        assert headers["content-type"] == "application/json"
        assert json.loads(payload) == expected
    assert expected  # the pair must actually have paths


def test_paths_over_tcp_wire_matches_oracle(toy_kg):
    src, dst = _n(toy_kg, "p3"), _n(toy_kg, "a0")
    expected = _oracle(toy_kg, src, dst, max_hops=2, max_paths=16)
    [response] = serve_and_send(
        toy_kg,
        [{"op": "paths", "graph": "toy", "src": src, "dst": dst,
          "max_hops": 2, "max_paths": 16}],
    )
    assert response == {"ok": True, "result": expected}
    assert expected


# -- failure injection: worker death mid-/paths --------------------------------


def test_worker_killed_mid_paths_is_structured_and_respawn_reanswers(toy_kg):
    src, dst = _n(toy_kg, "p0"), _n(toy_kg, "a1")
    with WorkerPool(workers=2) as pool:
        service = ExtractionService(pool=pool)
        service.register("toy", toy_kg)
        before = run(service.paths("toy", src, dst, max_hops=3, max_paths=64))
        assert before == _oracle(toy_kg, src, dst)

        # Park the victim behind a sleep, then queue a paths request so the
        # kill lands with /paths work in flight on that worker.
        victim = pool.shards_of("toy")[0]
        handle = pool._workers[victim]
        parked = handle.request("sleep", {"seconds": 60})
        inflight = handle.request(
            "paths",
            {"graph": "toy", "pairs": [[src, dst]],
             "max_hops": 3, "max_paths": 64, "epoch": None},
        )
        os.kill(pool.worker_pids()[victim], signal.SIGKILL)

        with pytest.raises(WorkerCrashed, match="died with this request in flight"):
            parked.result(timeout=30)
        with pytest.raises(WorkerCrashed, match="died with this request in flight"):
            inflight.result(timeout=30)

        # The slot respawned with registrations replayed and the same
        # request answers bit-identically.
        assert pool.ping(victim) == "pong"
        assert pool.describe()["respawns"] == 1
        after = run(service.paths("toy", src, dst, max_hops=3, max_paths=64))
        assert after == before


# -- failure injection: overload -----------------------------------------------


def test_paths_overload_maps_to_503_with_retry_after(toy_kg):
    src, dst = _n(toy_kg, "p0"), _n(toy_kg, "a0")

    async def scenario():
        # A window that never closes on its own: the first request parks
        # in flight until admission starts shedding.
        service = ExtractionService(max_pending=1, max_batch=1000, max_delay=60.0)
        service.register("toy", toy_kg)
        server = await serve_http(service, port=0)
        async with server:
            port = bound_port(server)
            r1, w1 = await asyncio.open_connection("127.0.0.1", port)
            w1.write(
                f"GET /paths?graph=toy&src={src}&dst={dst} HTTP/1.1\r\n"
                "Host: test\r\n\r\n".encode()
            )
            await w1.drain()
            await asyncio.sleep(0.05)  # let it get admitted and parked
            r2, w2 = await asyncio.open_connection("127.0.0.1", port)
            shed = await _request(
                r2, w2, "GET", f"/paths?graph=toy&src={src}&dst={dst}"
            )
            await service.drain()
            first = await read_http_response(r1)
            for w in (w1, w2):
                w.close()
                await w.wait_closed()
            return shed, first

    shed, first = asyncio.run(scenario())
    status, headers, body, _chunks = shed
    assert status == 503
    payload = json.loads(body)
    assert payload["error"] == "overloaded"
    # paths is a coalesced kind: its Retry-After hint floors at one
    # coalescing window (60s here), not at a single service time.
    assert payload["retry_after"] >= 60.0
    assert int(headers["retry-after"]) >= 60
    # The parked request completed after the drain, bit-identically.
    assert first[0] == 200
    assert json.loads(first[2]) == _oracle(toy_kg, src, dst)


# -- epoch ingest: selective path-cache invalidation ---------------------------


def test_ingest_invalidates_only_dirtied_path_cache_entries(toy_kg):
    """An ingest touching the movie domain must not evict paper-domain
    path entries — and the surviving entry keeps serving cache hits."""
    paper = (_n(toy_kg, "p0"), _n(toy_kg, "a1"))
    movie = (_n(toy_kg, "m0"), _n(toy_kg, "m1"))
    sequel = toy_kg.relation_vocab.id("sequelOf")
    m0, m2, m3 = (_n(toy_kg, m) for m in ("m0", "m2", "m3"))

    async def scenario():
        service = ExtractionService(max_batch=8)
        service.register("toy", toy_kg)
        live = service._graph("toy").live

        paper_before = await service.paths("toy", *paper)
        movie_before = await service.paths("toy", *movie)
        assert live.stats()["paths_cache"]["entries"] == 2

        ingest = await service.ingest_triples("toy", [[m0, sequel, m2]])
        stats = live.stats()["paths_cache"]
        # Only the movie-domain entry's support set touches the delta.
        assert stats["invalidated"] == 1
        assert stats["entries"] == 1

        hits_before = stats["hits"]
        paper_after = await service.paths("toy", *paper)
        movie_after = await service.paths("toy", *movie)
        new_paths = await service.paths("toy", m0, m3)
        stats = live.stats()["paths_cache"]
        return (
            ingest, paper_before, movie_before, paper_after, movie_after,
            new_paths, stats["hits"] - hits_before, live.kg,
        )

    (ingest, paper_before, movie_before, paper_after, movie_after,
     new_paths, hit_delta, merged) = asyncio.run(scenario())
    assert ingest["added"] == 1 and ingest["epoch"] >= 1
    # The surviving paper entry answered from cache, bit-identically.
    assert hit_delta >= 1
    assert paper_after == paper_before
    # The dirtied movie entry was recomputed on the new epoch and still
    # matches the scalar oracle over the merged graph.
    assert movie_after == movie_before == _oracle(merged, *movie)
    # The ingested edge opened a new 2-hop path m0 -> m2 -> m3.
    assert new_paths == _oracle(merged, m0, m3)
    assert any(len(path) == 5 for path in new_paths)


# -- the clamp gap: non-positive kernel parameters -> structured 400 -----------


_CLAMP_CASES = [
    ("paths", {"src": "p0", "dst": "a0", "max_hops": 0}, "max_hops"),
    ("paths", {"src": "p0", "dst": "a0", "max_paths": -3}, "max_paths"),
    ("ppr", {"target": "p0", "k": 0}, "k"),
    ("ego", {"root": "p0", "depth": -1}, "depth"),
    ("ego", {"root": "p0", "fanout": 0}, "fanout"),
]


def _clamp_request(kg, op, fields):
    request = {"op": op, "graph": "toy"}
    for name, value in fields.items():
        request[name] = _n(kg, value) if isinstance(value, str) else value
    return request


@pytest.mark.parametrize("op,fields,param", _CLAMP_CASES)
def test_nonpositive_kernel_params_answer_400_over_http(toy_kg, op, fields, param):
    request = _clamp_request(toy_kg, op, fields)
    query = "&".join(f"{k}={v}" for k, v in request.items() if k != "op")

    async def calls(reader, writer):
        return await _request(reader, writer, "GET", f"/{op}?{query}")

    (status, _headers, body, _chunks), _service = serve_and_call(toy_kg, calls)
    assert status == 400
    payload = json.loads(body)
    assert payload["error"] == "bad_request"
    assert param in payload["detail"]


@pytest.mark.parametrize("op,fields,param", _CLAMP_CASES)
def test_nonpositive_kernel_params_answer_400_over_tcp(toy_kg, op, fields, param):
    [response] = serve_and_send(toy_kg, [_clamp_request(toy_kg, op, fields)])
    assert response["ok"] is False
    assert response["error"] == "bad_request"
    assert param in response["detail"]

"""Closed-loop load generator for the extraction service.

A fixed population of ``concurrency`` workers each keeps exactly one
request in flight: issue, await, record latency, issue the next (the
classic closed-loop model, which measures service capacity rather than
open-loop queueing collapse).  Requests are wire request dicts — the
objects the ndjson and HTTP front ends take, e.g. ``{"op": "ppr",
"target": 17, "k": 16}`` — so one loop drives every op of
:data:`repro.serve.wire.OP_TABLE`.

:func:`run_load` drives one :class:`ExtractionService` configuration
(serial or coalesced, in-process or on a worker pool, called through
:func:`repro.serve.wire.perform_op` or over real HTTP sockets) and
returns a :class:`LoadReport`.  :func:`compare_serving` runs two
configurations over the *same* request sequence, verifies their answers
are identical at every position, and reports the throughput ratio — the
numbers guarded by ``benchmarks/check_perf_floors.py``.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import time
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.kg.graph import KnowledgeGraph
from repro.serve import wire
from repro.serve.http import serve_http
from repro.serve.metrics import percentile
from repro.serve.pool import WorkerPool
from repro.serve.service import ExtractionService, ServiceOverloaded

#: The name :func:`run_load` registers its graph under; a request without
#: a ``graph`` field addresses it.
GRAPH_NAME = "load"

DEFAULT_CONCURRENCY = 64


ROW_HEADERS = [
    "mode", "reqs", "conc", "wall(s)", "req/s", "p50(ms)", "p95(ms)", "occupancy",
]


@dataclass
class LoadReport:
    """One load run: configuration, wall-clock numbers, tail latency."""

    mode: str
    requests: int
    concurrency: int
    wall_seconds: float
    throughput_rps: float
    p50_ms: float
    p95_ms: float
    rejected: int
    batch_occupancy: float
    #: request index -> JSON answer payload
    results: Dict[int, Any] = field(repr=False, default_factory=dict)
    metrics: dict = field(repr=False, default_factory=dict)

    def as_row(self) -> List[str]:
        """Rendered cells matching :data:`ROW_HEADERS` (for render_table)."""
        return [
            self.mode,
            str(self.requests),
            str(self.concurrency),
            f"{self.wall_seconds:.3f}",
            f"{self.throughput_rps:.0f}",
            f"{self.p50_ms:.2f}",
            f"{self.p95_ms:.2f}",
            f"{self.batch_occupancy:.1f}",
        ]

    def as_json(self) -> dict:
        """The report minus the raw per-request results (for persistence)."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self) if spec.repr}


async def _closed_loop(
    open_client, requests: Sequence[dict], concurrency: int
) -> Tuple[Dict[int, Any], List[float], int]:
    """Run ``requests`` with ``concurrency`` in-flight workers.

    ``open_client()`` is an async context manager yielding one worker's
    ``send(request)`` coroutine function.  Answers are keyed by request
    *index*: sequences legitimately repeat (hot targets), and a coalescing
    window or result cache may answer repeats together, so the
    comparisons must still see every position.
    """
    next_index = 0
    latencies: List[float] = []
    rejected = 0
    results: Dict[int, Any] = {}

    async def worker() -> None:
        nonlocal next_index, rejected
        async with open_client() as send:
            while next_index < len(requests):
                index = next_index
                next_index += 1
                start = time.perf_counter()
                while True:
                    try:
                        results[index] = await send(requests[index])
                        break
                    except ServiceOverloaded as exc:
                        # Closed-loop clients honour the backpressure
                        # contract: back off for the hinted interval.
                        rejected += 1
                        await asyncio.sleep(exc.retry_after)
                latencies.append(time.perf_counter() - start)

    await asyncio.gather(*(worker() for _ in range(concurrency)))
    return results, latencies, rejected


def _in_process(service: ExtractionService):
    """Clients calling the wire dispatcher directly (raw results)."""

    @contextlib.asynccontextmanager
    async def open_client():
        yield functools.partial(wire.perform_op, service)

    return open_client


async def read_http_response(
    reader: asyncio.StreamReader,
) -> Tuple[int, Dict[str, str], bytes, int]:
    """Parse one HTTP/1.1 response: (status, headers, body, chunk count).

    Decodes both Content-Length and chunked-transfer-encoded bodies; the
    chunk count lets callers assert streaming actually happened.  This is
    the one minimal client parser in the repo — the protocol tests import
    it too, so the load generator and the tests can never disagree about
    what the server sent.
    """
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    chunks = 0
    if headers.get("transfer-encoding", "").lower() == "chunked":
        body = bytearray()
        while True:
            size = int((await reader.readline()).strip(), 16)
            if size == 0:
                await reader.readline()  # trailing CRLF
                break
            body += await reader.readexactly(size)
            await reader.readexactly(2)  # chunk CRLF
            chunks += 1
        return status, headers, bytes(body), chunks
    body = await reader.readexactly(int(headers.get("content-length", "0")))
    return status, headers, body, chunks


def _over_http(port: int):
    """Clients holding one keep-alive connection each: ``POST /<op>``."""

    @contextlib.asynccontextmanager
    async def open_client():
        reader, writer = await asyncio.open_connection("127.0.0.1", port)

        async def send(request: dict) -> Any:
            body = json.dumps(request).encode("utf-8")
            writer.write(
                f"POST /{request['op']} HTTP/1.1\r\nHost: loadgen\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}"
                "\r\n\r\n".encode("latin-1") + body
            )
            await writer.drain()
            status, _headers, raw, _chunks = await read_http_response(reader)
            payload = json.loads(raw) if raw else None
            if status == 503:
                # 503 + retry_after is the HTTP face of the backpressure
                # contract.
                raise ServiceOverloaded(float(payload["retry_after"]))
            if status != 200:
                raise RuntimeError(f"unexpected HTTP {status}: {payload!r}")
            return payload

        try:
            yield send
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - peer already gone
                pass

    return open_client


def run_load(
    kg: KnowledgeGraph,
    requests: Sequence[dict],
    *,
    concurrency: int = DEFAULT_CONCURRENCY,
    coalesce: bool = True,
    pool: Optional[WorkerPool] = None,
    mmap_dir: Optional[str] = None,
    checkpoints: Sequence[str] = (),
    http: bool = False,
    max_batch: int = 64,
    max_delay: float = 0.002,
    max_pending: Optional[int] = None,
) -> LoadReport:
    """Drive one service configuration with the closed-loop generator.

    ``kg`` is registered as :data:`GRAPH_NAME`, with ``checkpoints`` for
    ``predict`` requests.  ``coalesce=False`` is the serial baseline:
    every request runs its scalar oracle alone.  ``pool`` dispatches the
    coalesced windows to a worker pool (the caller owns its lifecycle;
    registration is idempotent, so one pool can back several runs), and
    ``mmap_dir`` registers the graph there by that artifact-store path
    (without it the pool saves a private store).

    ``http=True`` crosses real sockets through ``serve/http.py`` — the
    wire-level capacity, parsing and serialization included.  Otherwise
    requests go through :func:`~repro.serve.wire.perform_op` in process,
    and their results through :func:`~repro.serve.wire.result_payload`
    after the timed window, so every mode reports the same JSON payloads.
    ``max_pending`` defaults to ``2 * concurrency`` so a healthy run is
    never admission-limited; pass something smaller to exercise shedding.
    """
    requests = [{"graph": GRAPH_NAME, **request} for request in requests]
    service = ExtractionService(
        max_pending=max_pending if max_pending is not None else 2 * concurrency,
        max_batch=max_batch,
        max_delay=max_delay,
        coalesce=coalesce,
        pool=pool,
    )
    service.register(GRAPH_NAME, kg, mmap_dir=mmap_dir)
    for path in checkpoints:
        service.register_checkpoint(GRAPH_NAME, path)

    async def run():
        if not http:
            start = time.perf_counter()
            outcome = await _closed_loop(_in_process(service), requests, concurrency)
            await service.drain()
            return outcome, time.perf_counter() - start
        server = await serve_http(service, port=0)
        async with server:
            start = time.perf_counter()
            outcome = await _closed_loop(
                _over_http(wire.bound_port(server)), requests, concurrency
            )
            wall = time.perf_counter() - start
            await service.drain()
        return outcome, wall

    (results, latencies, rejected), wall = asyncio.run(run())
    if not http:
        results = {index: wire.result_payload(result) for index, result in results.items()}
    mode = "http" if http else (
        "pooled" if pool is not None else ("coalesced" if coalesce else "serial")
    )
    ops = sorted({request["op"] for request in requests})
    return LoadReport(
        # PPR influence is the original load; other ops prefix the mode
        # (``paths-serial``, ``predict-pooled``, ...).
        mode=mode if ops == ["ppr"] else "-".join(ops + [mode]),
        requests=len(requests),
        concurrency=concurrency,
        wall_seconds=wall,
        throughput_rps=len(requests) / max(wall, 1e-12),
        p50_ms=percentile(latencies, 0.50) * 1e3,
        p95_ms=percentile(latencies, 0.95) * 1e3,
        rejected=rejected,
        batch_occupancy=service.metrics.batch_occupancy(),
        results=results,
        metrics=service.metrics_snapshot(),
    )


def compare_serving(
    kg: KnowledgeGraph,
    requests: Sequence[dict],
    baseline: dict,
    candidate: dict,
    **common,
) -> Tuple[LoadReport, LoadReport, float]:
    """Two :func:`run_load` configurations over one request sequence.

    ``baseline`` and ``candidate`` are :func:`run_load` options;
    ``common`` applies to both.  Returns ``(baseline, candidate,
    throughput ratio)`` after asserting both answered every request
    position identically — coalescing, the wire, process boundaries and
    placement must never change an answer.  A pooled side is warmed
    outside its timed run: first-touch costs (worker-side artifact
    builds and checkpoint loads, codec code paths) are startup, not
    serving capacity.
    """
    reports = []
    for side in (baseline, candidate):
        options = {**common, **side}
        if options.get("pool") is not None:
            warm = requests[: options.get("concurrency", DEFAULT_CONCURRENCY)]
            run_load(kg, warm, **options)
        reports.append(run_load(kg, requests, **options))
    base, cand = reports
    for index in range(len(requests)):
        if cand.results.get(index) != base.results.get(index):
            raise AssertionError(
                f"{cand.mode} serving diverged from the {base.mode} baseline "
                f"at request {index}: {requests[index]!r}"
            )
    return base, cand, cand.throughput_rps / max(base.throughput_rps, 1e-12)

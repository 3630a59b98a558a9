"""The benchmark's own load client: an open loop at a fixed rate.

One client process drives at most two pipelined connections.  Both
protocols of ``repro serve`` are spoken here directly on asyncio streams
(ndjson over TCP; HTTP/1.1 with Content-Length or chunked bodies), so the
client depends on nothing in the program under test.

Open loop: request ``i`` is *due* at ``start + i / rate``.  Its latency
is measured from the due time, not from when it was actually written, so
a server stall that delays later sends shows up in their latency; how
late the generator itself ran (``sent - due``) is reported separately.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlencode

import common


@dataclass
class Sample:
    """One request's life: what was sent, when, and the raw answer."""

    index: int
    request: dict
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0  # HTTP status; 200/503/500 mapped from ndjson ok/error
    body: bytes = b""

    @property
    def op(self) -> str:
        return self.request["op"]

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lag(self) -> float:
        return self.sent - self.due


# -- protocols ----------------------------------------------------------------


class NdjsonProtocol:
    """``repro serve --protocol tcp``: one JSON object per line each way."""

    @staticmethod
    def encode(request: dict) -> bytes:
        return json.dumps(request).encode("utf-8") + b"\n"

    @staticmethod
    async def read(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
        line = await reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        if line.startswith(b'{"ok": true'):
            return 200, line
        return (503 if b'"overloaded"' in line else 500), line


class HttpProtocol:
    """``repro serve --protocol http``: pipelined HTTP/1.1 keep-alive."""

    @staticmethod
    def encode(request: dict) -> bytes:
        fields = {key: value for key, value in request.items() if key != "op"}
        op = request["op"]
        if op == "triples":
            body = json.dumps(fields).encode("utf-8")
            head = (
                "POST /triples HTTP/1.1\r\nHost: bench\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            )
            return head.encode("latin-1") + body
        return f"GET /{op}?{urlencode(fields)} HTTP/1.1\r\nHost: bench\r\n\r\n".encode(
            "latin-1"
        )

    @staticmethod
    async def read(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
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
        if headers.get("transfer-encoding", "").lower() == "chunked":
            chunks = []
            while True:
                size = int((await reader.readline()).split(b";")[0], 16)
                if size == 0:
                    await reader.readline()  # blank line after the last chunk
                    break
                chunks.append(await reader.readexactly(size))
                await reader.readexactly(2)
            return status, b"".join(chunks)
        length = int(headers.get("content-length", "0"))
        return status, await reader.readexactly(length)


PROTOCOLS = {"tcp": NdjsonProtocol, "http": HttpProtocol}


# -- one pipelined connection -------------------------------------------------


class _Connection:
    def __init__(self, protocol, reader, writer):
        self.protocol = protocol
        self.reader = reader
        self.writer = writer
        self.inflight: asyncio.Queue = asyncio.Queue()

    async def send(self, sample: Sample) -> None:
        # Write and enqueue without yielding in between: two senders may
        # share a connection, and responses come back in write order.
        sample.sent = time.perf_counter()
        self.writer.write(self.protocol.encode(sample.request))
        self.inflight.put_nowait(sample)
        await self.writer.drain()

    async def receive_one(self) -> Sample:
        sample = await self.inflight.get()
        sample.status, sample.body = await self.protocol.read(self.reader)
        sample.done = time.perf_counter()
        return sample

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


async def _connect(host: str, port: int, protocol, count: int) -> List[_Connection]:
    conns = []
    for _ in range(count):
        reader, writer = await asyncio.open_connection(host, port, limit=1 << 24)
        conns.append(_Connection(protocol, reader, writer))
    return conns


# -- open loop ----------------------------------------------------------------


async def open_loop(
    host: str,
    port: int,
    protocol,
    requests: Sequence[dict],
    rate: float,
    connections: int = 2,
    serial_op: Optional[str] = None,
) -> List[Sample]:
    """Send ``requests[i]`` at ``start + i / rate``; return every sample.

    Requests go out round-robin over the connections.  Requests whose op
    is ``serial_op`` (live ingest) have their own sender on the first
    connection and are sequenced: one is written only after the previous
    one was answered, so the server applies them in send order and each
    read's admissible epochs are known.  Waiting for an ingest never holds
    back the reads behind it.
    """
    conns = await _connect(host, port, protocol, connections)
    samples = [Sample(index, request) for index, request in enumerate(requests)]
    start = time.perf_counter() + 0.05
    for sample in samples:
        sample.due = start + sample.index / rate
    serial = [sample for sample in samples if sample.op == serial_op]
    reads = [sample for sample in samples if sample.op != serial_op]
    acked: Dict[int, asyncio.Event] = {sample.index: asyncio.Event() for sample in serial}

    async def sender(conn: _Connection, mine: List[Sample], sequenced: bool) -> None:
        previous = None
        for sample in mine:
            delay = sample.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            if sequenced and previous is not None:
                await acked[previous.index].wait()
            await conn.send(sample)
            previous = sample

    async def receiver(conn: _Connection, count: int) -> None:
        for _ in range(count):
            sample = await conn.receive_one()
            if sample.index in acked:
                acked[sample.index].set()

    tasks = [asyncio.ensure_future(sender(conns[0], serial, True))]
    for slot, conn in enumerate(conns):
        mine = reads[slot::connections]
        tasks.append(asyncio.ensure_future(sender(conn, mine, False)))
        tasks.append(asyncio.ensure_future(
            receiver(conn, len(mine) + (len(serial) if slot == 0 else 0))))
    try:
        await asyncio.gather(*tasks)
    finally:
        for task in tasks:
            task.cancel()
        for conn in conns:
            await conn.close()
    return samples


async def one_request(host: str, port: int, protocol, request: dict) -> Sample:
    """A single request on a fresh connection (setup probes, /metrics)."""
    (conn,) = await _connect(host, port, protocol, 1)
    try:
        sample = Sample(0, request)
        sample.due = time.perf_counter()
        await conn.send(sample)
        return await conn.receive_one()
    finally:
        await conn.close()


def lag_summary(samples: Sequence[Sample]) -> Dict[str, float]:
    """How late the generator wrote requests relative to their due time."""
    lags = [max(sample.lag, 0.0) * 1e3 for sample in samples]
    if not lags:
        return {"p50_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0}
    return {
        "p50_ms": common.percentile(lags, 0.50),
        "p99_ms": common.percentile(lags, 0.99),
        "max_ms": max(lags),
    }

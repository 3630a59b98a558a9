"""The open-loop client times from the due send time and reports its lag."""

import asyncio
import json

import client

STALL_SECONDS = 0.3


async def _serve_with_stall(reader, writer):
    """ndjson echo server that answers in order and stalls on one request."""
    while True:
        line = await reader.readline()
        if not line:
            break
        request = json.loads(line)
        if request.get("stall"):
            await asyncio.sleep(STALL_SECONDS)
        writer.write(json.dumps({"ok": True, "result": request["n"]}).encode() + b"\n")
        await writer.drain()
    writer.close()


def _run_open_loop(requests, rate, protocol=client.NdjsonProtocol):
    async def go():
        server = await asyncio.start_server(_serve_with_stall, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        async with server:
            return await client.open_loop(
                "127.0.0.1", port, protocol, requests, rate, connections=1)
    return asyncio.run(go())


def test_a_server_stall_inflates_the_requests_due_behind_it():
    rate = 100.0
    requests = [{"op": "ping", "n": i, "stall": i == 5} for i in range(30)]
    samples = _run_open_loop(requests, rate)
    assert [json.loads(s.body)["result"] for s in samples] == list(range(30))
    # Requests 6.. were written on time (the generator did not wait) ...
    assert max(s.lag for s in samples) < 0.1
    # ... yet each is charged the stall from its own due time onwards.
    for sample in samples[6:20]:
        expected = STALL_SECONDS - (sample.index - 5) / rate
        assert sample.latency >= expected - 0.02
    assert samples[0].latency < 0.1


class _SlowEncoding(client.NdjsonProtocol):
    """A generator that falls behind: encoding one request blocks the loop."""

    @staticmethod
    def encode(request):
        if request.get("slow"):
            import time

            time.sleep(0.2)
        return client.NdjsonProtocol.encode(request)


def test_generator_lag_is_reported():
    requests = [{"op": "ping", "n": i, "slow": i == 3} for i in range(12)]
    samples = _run_open_loop(requests, 100.0, protocol=_SlowEncoding)
    lag = client.lag_summary(samples)
    assert lag["max_ms"] >= 150
    assert set(lag) == {"p50_ms", "p99_ms", "max_ms"}

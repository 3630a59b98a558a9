"""Concurrent TOSG-extraction serving layer.

The async front door over the batch-kernel program (see
``docs/serving.md`` and ``docs/architecture.md``): an admission-bounded
:class:`ExtractionService` routes concurrent PPR / ego-scope / SPARQL
requests per graph, a :class:`Coalescer` micro-batches compatible
requests into single batch-kernel calls, and :class:`ServiceMetrics`
exports latency, queue depth, batch occupancy and cache-hit counters as
one dict.  Kernel work runs either in-process (``asyncio.to_thread``) or
— with ``ExtractionService(pool=WorkerPool(...))`` — in a multi-process
sharded :class:`WorkerPool` where each worker owns a shard of the
per-graph artifact cache, removing the single-interpreter throughput
cap while staying bit-identical to in-process extraction.  Two wire
front ends share one validation/pipelining core (``serve/wire.py``):
newline-delimited JSON over TCP (:func:`serve_tcp`) and the
HTTP/SPARQL-protocol server with streaming pagination
(:func:`serve_http`).
"""

from repro.serve.coalesce import Coalescer
from repro.serve.http import serve_http
from repro.serve.loadgen import LoadReport, compare_serving, run_load
from repro.serve.metrics import ServiceMetrics
from repro.serve.placement import shard_for
from repro.serve.pool import WorkerCrashed, WorkerError, WorkerPool
from repro.serve.registry import ModelRegistry
from repro.serve.service import ExtractionService, ServiceOverloaded
from repro.serve.tcp import serve_tcp
from repro.serve.wire import BadRequest, UnknownGraph, bound_port

__all__ = [
    "BadRequest",
    "Coalescer",
    "ExtractionService",
    "LoadReport",
    "ModelRegistry",
    "ServiceMetrics",
    "ServiceOverloaded",
    "UnknownGraph",
    "WorkerCrashed",
    "WorkerError",
    "WorkerPool",
    "bound_port",
    "compare_serving",
    "run_load",
    "serve_http",
    "serve_tcp",
    "shard_for",
]

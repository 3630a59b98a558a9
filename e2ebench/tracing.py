"""Span-recording launcher and the per-layer metrics of the traced run.

Launcher::

    python e2ebench/tracing.py --spans OUT.json -- repro serve ...
    python e2ebench/tracing.py --spans OUT.json -- pipeline --child SEED SECONDS

rebinds the public callables named in :data:`PATCHES` to wrappers that
record a span (name, start, end, parent span, request id) per call, then
hands control to ``repro.cli.main`` or to the ``train`` pipeline child.
Each name is patched where its caller looks it up (``serve/tcp.py`` and
``serve/http.py`` import ``perform_op`` by name, so both are patched).
Spans and counters stay in memory and are written to ``OUT.json`` when
the process exits.

Parents come from a context variable, so they follow ``await`` chains,
asyncio tasks and ``asyncio.to_thread``; work handed to a plain thread
pool starts a new root.  Worker processes of a ``--workers N`` pool fork
from the pool's fork server, which the launcher makes import this module
(:func:`trace_pool_workers`): each worker records its own spans, counters
and live-cache statistics and rewrites ``OUT.json.workers/worker-<pid>.json``
about once a second and when it exits.

The metrics side (:func:`time_metrics`) turns a span dump into each
layer's median per-call *self time* — its span minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import asyncio
import atexit
import contextvars
import functools
import importlib
import itertools
import json
import math
import os
import signal
import statistics
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import common  # noqa: E402

_SPAN: contextvars.ContextVar = contextvars.ContextVar("e2ebench_span", default=None)
_RID: contextvars.ContextVar = contextvars.ContextVar("e2ebench_rid", default=None)
_OP: contextvars.ContextVar = contextvars.ContextVar("e2ebench_op", default="?")


class Recorder:
    """In-memory spans + counters of one process; dumped once at exit."""

    def __init__(self) -> None:
        self.spans: List[Tuple] = []  # (id, parent, name, start, end, rid)
        self.counters: Dict[str, List[float]] = {}
        self.endpoints: List[object] = []
        self.live_graphs: List[object] = []
        #: id(open coalescing window) -> when it opened
        self.windows: Dict[int, float] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters.setdefault(name, []).append(float(value))

    def wrap(self, fn: Callable, name: Union[str, Callable[..., str]],
             on_call: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``name`` may derive from the args."""
        recorder = self

        def enter(args, kwargs):
            if on_call is not None:
                on_call(recorder, args, kwargs)
            span_name = name(*args, **kwargs) if callable(name) else name
            span_id = next(recorder._ids)
            parent = _SPAN.get()
            token = _SPAN.set(span_id)
            return span_name, span_id, parent, token, time.perf_counter()

        def leave(state):
            span_name, span_id, parent, token, start = state
            end = time.perf_counter()
            _SPAN.reset(token)
            recorder.spans.append((span_id, parent, span_name, start, end, _RID.get()))

        if asyncio.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                state = enter(args, kwargs)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    leave(state)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = enter(args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(state)
        return wrapper

    def dump(self, path: str) -> None:
        endpoints = [
            {"requests": e.stats.requests, "rows_returned": e.stats.rows_returned,
             "bytes_shipped": e.stats.bytes_shipped}
            for e in self.endpoints
        ]
        live = [graph.stats() for graph in self.live_graphs]
        with self._lock:
            spans, counters = list(self.spans), {k: list(v) for k, v in self.counters.items()}
        # Written whole, then renamed: a reader never sees half a dump.
        with open(path + ".tmp", "w") as handle:
            json.dump({"spans": spans, "counters": counters,
                       "endpoints": endpoints, "live": live}, handle)
        os.replace(path + ".tmp", path)


# -- what gets wrapped --------------------------------------------------------


def _op_of_request(_service, request, *rest, **kw) -> str:
    op = request.get("op", "?") if isinstance(request, dict) else "?"
    # The op and request id stay set for the rest of this request's task,
    # so result encoding after perform_op returns is attributed too.
    _OP.set(op)
    if isinstance(request, dict) and "rid" in request:
        _RID.set(str(request["rid"]))
    return f"serve.wire.perform_op_ms.{op}"


def _payload_name(*_args, **_kw) -> str:
    return f"serve.wire.result_payload_us.{_OP.get()}"


def _graph_suffix(kg) -> str:
    return "kgprime_" if "-tosa-" in kg.name else ""


def _trainer_name(stem: str) -> Callable[..., str]:
    """FG and KG′ training are separate layers' worth of work: name them apart."""
    def name(model, *_args, **_kw) -> str:
        return f"training.trainer.{_graph_suffix(model.kg)}{stem}"
    return name


def _adjacency_name(kg, *_args, **_kw) -> str:
    return f"transform.adjacency.{_graph_suffix(kg)}build_s"


def _extend_name(_epoch, _triples, compact=False) -> str:
    return "kg.epoch.compact_ms" if compact else "kg.epoch.extend_ms"


def _count_targets(recorder, args, kwargs) -> None:
    targets = args[1] if len(args) > 1 else kwargs["targets"]
    recorder.count("sampling.ppr.batch_targets", len(targets))


def _count_window(recorder, args, _kwargs) -> None:
    opened = recorder.windows.pop(id(args[2]), None)
    if opened is not None:
        recorder.count("serve.coalesce.wait_ms", (time.perf_counter() - opened) * 1e3)


def _keep_endpoint(recorder, args, _kwargs) -> None:
    recorder.endpoints.append(args[0])


def _keep_live_graph(recorder, args, _kwargs) -> None:
    recorder.live_graphs.append(args[0])


#: (module, attribute path, span name or namer, on_call hook)
PATCHES: Sequence[Tuple[str, str, object, Optional[Callable]]] = (
    ("repro.datasets.catalog", "mag", "datasets.catalog.generate_s", None),
    ("repro.kg.store", "open_artifacts", "kg.store.open_ms", None),
    ("repro.kg.cache", "GraphArtifacts.warm", "kg.cache.warm_s", None),
    ("repro.kg.graph", "KnowledgeGraph.induced_subgraph", "kg.graph.induced_subgraph_s", None),
    ("repro.kg.epoch", "GraphEpoch.extend", _extend_name, None),
    ("repro.kg.epoch", "LiveGraph.__init__", "kg.epoch.live_init", _keep_live_graph),
    ("repro.sparql.endpoint", "SparqlEndpoint.__init__", "sparql.endpoint.init", _keep_endpoint),
    ("repro.sparql.endpoint", "SparqlEndpoint.query", "sparql.endpoint.query_ms", None),
    ("repro.sparql.endpoint", "SparqlEndpoint.count", "sparql.endpoint.query_ms", None),
    # Streamed /sparql evaluates eagerly and cuts pages lazily afterwards.
    ("repro.sparql.endpoint", "SparqlEndpoint.stream_pages", "sparql.endpoint.query_ms", None),
    ("repro.sparql.endpoint", "SparqlEndpoint.evaluate_stream", "sparql.endpoint.query_ms",
     None),
    ("repro.core.sparql_method", "SparqlTOSGExtractor.extract", "core.sparql_method.extract_s", None),
    ("repro.core.ibs", "InfluenceBasedSampler.sample", "core.ibs.sample_s", None),
    ("repro.core.ibs", "batch_ppr_top_k", "sampling.ppr.batch_ms", _count_targets),
    ("repro.sampling.ppr", "batch_ppr_top_k", "sampling.ppr.batch_ms", _count_targets),
    ("repro.sampling.ppr", "batch_ppr_top_k_with_support", "sampling.ppr.batch_ms", _count_targets),
    ("repro.sampling.paths", "enumerate_paths_batch", "sampling.paths.batch_ms", None),
    ("repro.sampling.paths", "enumerate_paths_batch_with_support", "sampling.paths.batch_ms", None),
    ("repro.models.shadowsaint", "extract_ego_batch", "models.shadowsaint.ego_batch_ms", None),
    ("repro.transform.adjacency", "build_hetero_adjacency", _adjacency_name, None),
    ("repro.models.graphsaint", "GraphSAINTClassifier.train_epoch", _trainer_name("epoch_s"), None),
    ("repro.models.graphsaint", "GraphSAINTClassifier.predict_logits", _trainer_name("infer_s"),
     None),
    ("repro.serve.tcp", "perform_op", _op_of_request, None),
    ("repro.serve.http", "perform_op", _op_of_request, None),
    ("repro.serve.tcp", "result_payload", _payload_name, None),
    ("repro.serve.http", "result_payload", _payload_name, None),
    ("repro.serve.coalesce", "Coalescer._run", "serve.coalesce.window", _count_window),
    ("repro.serve.service", "ExtractionService._dispatch_ppr", "serve.kernels.ppr_batch_ms", None),
    ("repro.serve.service", "ExtractionService._dispatch_predict", "serve.kernels.predict_batch_ms", None),
    ("repro.serve.pool", "WorkerPool.call", "serve.pool.call_ms", None),
    ("repro.serve.pool", "WorkerPool.ingest", "serve.pool.ingest_ms", None),
)


def install(recorder: Recorder, frames: bool = True) -> None:
    for module_name, path, name, on_call in PATCHES:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        setattr(owner, attr, recorder.wrap(getattr(owner, attr), name, on_call))

    # Coalescing windows: stamp when each opens, so the wait until its
    # dispatch can be recorded when the window runs.
    from repro.serve import coalesce

    window_init = coalesce._Window.__init__

    def stamped_init(self, *args, **kwargs):
        window_init(self, *args, **kwargs)
        recorder.windows[id(self)] = time.perf_counter()

    coalesce._Window.__init__ = stamped_init
    if not frames:
        return

    # Pool transport hop: bytes of every frame on the parent's pipes.
    from multiprocessing import connection

    send_bytes, recv_bytes = connection.Connection._send_bytes, connection.Connection._recv_bytes

    def counted_send(self, buf):
        recorder.count("serve.transport.frame_bytes", len(buf))
        return send_bytes(self, buf)

    def counted_recv(self, maxsize=None):
        buf = recv_bytes(self, maxsize)
        recorder.count("serve.transport.frame_bytes", buf.getbuffer().nbytes)
        return buf

    connection.Connection._send_bytes = counted_send
    connection.Connection._recv_bytes = counted_recv


#: Set by the launcher for its children: ``<launcher pid>:<directory>``,
#: the directory its pool workers write their dumps to.
WORKER_SPANS_ENV = "E2EBENCH_WORKER_SPANS"
#: Seconds between two rewrites of a worker's dump.
WORKER_DUMP_EVERY = 1.0


def worker_dumps(directory: str) -> List[dict]:
    """Every ``worker-<pid>.json`` dump in ``directory``."""
    if not os.path.isdir(directory):
        return []
    out = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("worker-") and name.endswith(".json"):
            with open(os.path.join(directory, name)) as handle:
                out.append(json.load(handle))
    return out


def trace_pool_workers(directory: str) -> None:
    """Have every pool worker started from now on dump its spans to ``directory``.

    ``repro.serve.pool`` sets the fork server's preload list; a wrapper
    adds this module to it, so the fork server arms itself
    (:func:`_arm_fork_server`) before it forks any worker.  The fork
    server does not take this process's ``sys.path``, so this directory
    goes on ``PYTHONPATH``.
    """
    from multiprocessing import forkserver

    os.makedirs(directory, exist_ok=True)
    os.environ[WORKER_SPANS_ENV] = f"{os.getpid()}:{directory}"
    paths = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = HERE + (os.pathsep + paths if paths else "")
    preload = forkserver.set_forkserver_preload

    def with_tracing(module_names):
        preload(["tracing", *module_names])

    forkserver.set_forkserver_preload = with_tracing


def _arm_fork_server(directory: str) -> None:
    """In the fork server: wrap the program once; each forked worker records."""
    from multiprocessing import util

    recorder = Recorder()
    install(recorder, frames=False)

    def start_worker(recorder: Recorder) -> None:
        recorder.spans, recorder.counters = [], {}
        recorder.endpoints, recorder.live_graphs, recorder.windows = [], [], {}
        recorder._lock = threading.Lock()
        path = os.path.join(directory, f"worker-{os.getpid()}.json")

        def flush() -> None:
            while True:
                time.sleep(WORKER_DUMP_EVERY)
                recorder.dump(path)

        threading.Thread(target=flush, daemon=True).start()
        # A worker leaves through multiprocessing's exit path, not atexit.
        util.Finalize(recorder, recorder.dump, args=(path,), exitpriority=100)

    # Runs in each new worker once multiprocessing has reset its state.
    util.register_after_fork(recorder, start_worker)


def launch(argv: List[str]) -> int:
    """``--spans OUT -- (repro ARGS | pipeline ARGS)``."""
    split = argv.index("--")
    spans_path = argv[argv.index("--spans") + 1]
    target, args = argv[split + 1], argv[split + 2 :]
    common.require_program()
    recorder = Recorder()
    install(recorder)
    trace_pool_workers(spans_path + ".workers")
    atexit.register(recorder.dump, spans_path)
    # Stop like Ctrl-C (``repro serve`` exits cleanly on KeyboardInterrupt),
    # so the spans are written at exit.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if target == "repro":
        from repro.cli import main

        return main(args)
    import training

    return training.child_main(args)


# -- from spans to per-layer metrics ------------------------------------------


def self_times(spans: Sequence[Sequence]) -> Dict[str, List[float]]:
    """``name -> [self seconds per call]``: duration minus covered child time."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _id, parent, _name, start, end, _rid in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: Dict[str, List[float]] = {}
    for span_id, _parent, name, start, end, _rid in spans:
        covered, cursor = 0.0, start
        for child_start, child_end in sorted(children.get(span_id, [])):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.setdefault(name, []).append(max(end - start - covered, 0.0))
    return out


_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}
_OPS = ("ppr", "ego", "paths", "predict", "sparql", "count", "triples")

#: Every layer figure a traced run can give, with its unit: the per-layer
#: table of README.md.  Most layers run on one or two workloads only; the
#: diagnostics line of a traced run lists each with its value, or null
#: where the workload does not reach it.
LAYERS: Dict[str, str] = {
    "datasets.catalog.generate_s": "s",
    "kg.store.open_ms": "ms",
    "kg.cache.warm_s": "s",
    "kg.cache.builds": "count",
    "kg.graph.induced_subgraph_s": "s",
    "kg.epoch.extend_ms": "ms",
    "kg.epoch.compact_ms": "ms",
    "kg.epoch.invalidated_per_ingest": "count",
    "kg.epoch.ppr_cache.hit_share": "share",
    "kg.epoch.ego_cache.hit_share": "share",
    "kg.epoch.paths_cache.hit_share": "share",
    "sparql.endpoint.query_ms": "ms",
    "sparql.endpoint.rows_returned": "rows",
    "sparql.endpoint.bytes_shipped": "bytes",
    "core.sparql_method.extract_s": "s",
    "core.sparql_method.pages": "count",
    "core.sparql_method.subqueries": "count",
    "core.sparql_method.rows_fetched": "rows",
    "core.sparql_method.dedup_share": "share",
    "core.ibs.sample_s": "s",
    "core.api.reduction_ratio": "share",
    "sampling.ppr.batch_ms": "ms",
    "sampling.ppr.batch_targets": "count",
    "sampling.paths.batch_ms": "ms",
    "models.shadowsaint.ego_batch_ms": "ms",
    "transform.adjacency.build_s": "s",
    "transform.adjacency.kgprime_build_s": "s",
    "training.trainer.epoch_s": "s",
    "training.trainer.infer_s": "s",
    "training.trainer.kgprime_epoch_s": "s",
    "training.trainer.kgprime_infer_s": "s",
    "training.resources.modeled_peak_mb": "MB",
    **{f"serve.wire.perform_op_ms.{op}": "ms" for op in _OPS},
    **{f"serve.wire.result_payload_us.{op}": "us" for op in _OPS},
    "serve.coalesce.wait_ms": "ms",
    "serve.coalesce.batch_occupancy": "count",
    "serve.kernels.ppr_batch_ms": "ms",
    "serve.kernels.predict_batch_ms": "ms",
    "serve.service.queue_depth_peak": "count",
    "serve.service.rejected": "count",
    "serve.registry.predict_cache_hit_share": "share",
    "serve.pool.call_ms": "ms",
    "serve.pool.ingest_ms": "ms",
    "serve.transport.frame_bytes": "bytes",
    "serve.tcp.response_bytes_per_op": "bytes",
    "serve.http.response_bytes_per_op": "bytes",
    "serve.http.ingest_p50_ms": "ms",
    "serve.http.ingest_p95_ms": "ms",
    "pipeline.kgprime_s": "s",
    "pipeline.fg_s": "s",
    "pipeline.ibs_extract_s": "s",
    "pipeline.kgprime_accuracy": "share",
    "pipeline.fg_accuracy": "share",
    "process.memory_mb": "MB",
    "trace.overhead_ratio": "ratio",
}

#: The per-layer metrics of ``BENCHMARK.json``: the layers every workload
#: runs, so every traced run measures each of them.  The benchmark's
#: contract has each traced run print every one, and a layer a workload
#: bypasses has no value to print; the rest of :data:`LAYERS` stays in the
#: diagnostics line.
PER_LAYER: Dict[str, str] = {
    name: LAYERS[name]
    for name in (
        "kg.cache.warm_s",
        "sparql.endpoint.query_ms",
        "sparql.endpoint.rows_returned",
        "sparql.endpoint.bytes_shipped",
        "sampling.ppr.batch_ms",
        "sampling.ppr.batch_targets",
        "process.memory_mb",
        "trace.overhead_ratio",
    )
}


def time_metrics(*span_lists: Sequence[Sequence]) -> Dict[str, float]:
    """Median per-call self time of every layer span, over all the dumps.

    Each list is one process's spans (span ids are per process).
    """
    merged: Dict[str, List[float]] = {}
    for spans in span_lists:
        for name, values in self_times(spans).items():
            merged.setdefault(name, []).extend(values)
    return {
        name: statistics.median(values) * _SCALE[LAYERS[name]]
        for name, values in merged.items()
        if LAYERS.get(name) in _SCALE
    }


def counter_median(dumps: Sequence[dict], name: str) -> Optional[float]:
    values = [v for dump in dumps for v in dump["counters"].get(name, [])]
    return statistics.median(values) if values else None


def layer_table(values: Dict[str, Optional[float]]) -> Dict[str, Optional[float]]:
    """Every :data:`LAYERS` figure; null where the workload does not reach it."""
    return {name: values.get(name) for name, _unit in LAYERS.items()}


def report(values: Dict[str, Optional[float]]) -> Dict[str, dict]:
    """Every :data:`PER_LAYER` metric with its unit.

    Every workload runs these layers, so a value that is absent or not
    positive means the trace lost them: refused, never printed as 0.
    """
    out = {}
    for name, unit in PER_LAYER.items():
        value = values.get(name)
        if value is None or not value > 0 or not math.isfinite(value):
            raise ValueError(f"per-layer metric {name} has no measured value: {value!r}")
        out[name] = common.metric(value, unit)
    return out


if __name__ == "__main__":
    sys.exit(launch(sys.argv[1:]))
elif os.environ.get(WORKER_SPANS_ENV, "").startswith(f"{os.getppid()}:"):
    # Imported by name in a child of the launcher: the pool's fork server.
    _arm_fork_server(os.environ[WORKER_SPANS_ENV].split(":", 1)[1])

"""The concurrent TOSG-extraction service.

:class:`ExtractionService` is the asyncio front door over the batch-kernel
program: callers issue *single* PPR-influence, ego-scope or SPARQL requests
against registered graphs, and the service turns concurrent request
streams into batched kernel calls via the per-graph
:class:`~repro.serve.coalesce.Coalescer` router.

Three contracts, in order of the request path:

* **Admission** — at most ``max_pending`` requests are in flight at once.
  Beyond that the service *rejects* with :class:`ServiceOverloaded`
  carrying a ``retry_after`` hint (seconds), instead of queueing without
  bound: a loaded service must shed, not buffer, the paper's
  millions-of-users regime.
* **Coalescing** — requests of one window op whose kernel parameters
  match (same graph, epoch and the parameters its declaration in
  ``serve/kernels.py`` names) share one batch kernel call per window.
  Results are bit-identical to per-request scalar extraction because
  the kernels are bit-exact against their oracles.
* **Isolation** — kernel work runs off the event loop
  (``asyncio.to_thread``); the loop only routes, so slow extraction never
  blocks admission, metrics or other graphs.  With ``pool=`` the kernels
  additionally leave the *process*: coalesced batches are routed to the
  :class:`~repro.serve.pool.WorkerPool` worker that owns the graph's
  artifact shard, which removes the single-interpreter (GIL) throughput
  cap while keeping results bit-identical to the in-process path.

Admission, coalescing windows, per-kind retry-after hints and metrics
behave identically with and without a pool — the pool only changes where
a dispatched batch executes, and so how many batches of one key run at
once (one per owning worker).
"""

from __future__ import annotations

import asyncio
import functools
import time
from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Optional, Tuple, Union

from repro.kg.cache import artifacts_for
from repro.kg.graph import KnowledgeGraph
from repro.models.shadowsaint import _EgoGraph
from repro.serve.coalesce import MAX_BATCH, Coalescer
from repro.serve.kernels import WINDOWS
from repro.serve.metrics import ServiceMetrics
from repro.serve.pool import WorkerPool
from repro.serve.registry import ModelRegistry
from repro.serve.transport import GraphShard
from repro.sparql.ast import SelectQuery
from repro.sparql.endpoint import EndpointStats, PageStream
from repro.sparql.executor import ResultSet

# Default in-flight bound: enough to keep several full coalescing windows
# busy without letting latency grow without limit under overload.
MAX_PENDING = 256

# Bound on the /predict result cache (entries, LRU eviction).
PREDICT_CACHE_SIZE = 1024

# Per-request service time the retry-after hint assumes before any
# request has completed.
UNOBSERVED_SERVICE_SECONDS = 0.002

# Default /predict parameters: top-k tails returned per LP request, and 0
# PPR candidates (= score the full tail-class pool).
PREDICT_TOP_K = 10

Query = Union[str, SelectQuery]


class ServiceOverloaded(RuntimeError):
    """Admission rejected: the in-flight bound is reached.

    ``retry_after`` estimates (in seconds) when capacity is likely to free
    up — the current queue drained at the recent per-request service rate
    of the rejected request's *kind*.  HTTP front ends map this to
    ``503`` + ``Retry-After``.
    """

    def __init__(self, retry_after: float):
        super().__init__(
            f"service overloaded, retry in {retry_after:.3f}s"
        )
        self.retry_after = retry_after


class _RegisteredGraph(GraphShard):
    """Per-graph routing state: the shard plus the parent's own bookkeeping.

    The shard's epoch chain (``live``) numbers the epochs that key windows
    and result caches; without a pool, the shard also answers every op.
    ``page_stats`` accounts streamed-``/sparql`` pages, which are always
    cut here; ``metrics_snapshot`` merges them with the endpoint counters.
    """

    __slots__ = ("ingest_lock", "page_stats")

    def __init__(self, kg, registry, compact_every=0):
        super().__init__(kg, registry, compact_every=compact_every)
        self.ingest_lock = asyncio.Lock()
        self.page_stats = EndpointStats()

    @property
    def epoch(self) -> int:
        """The current epoch number (keys windows and result caches)."""
        return self.live.epoch.number


class ExtractionService:
    """Admission gate + per-graph request router over the batch kernels.

    Parameters
    ----------
    max_pending:
        In-flight request bound (the admission queue size).  Requests
        arriving beyond it raise :class:`ServiceOverloaded`.
    max_batch:
        Largest batch of every window op's scheduler; see
        :class:`~repro.serve.coalesce.Coalescer`.  A key's batches run on
        one lane in-process and on one lane per owning worker in pool
        mode, so windows fill only while every lane is busy.
    coalesce:
        ``False`` switches to the serial one-request-at-a-time baseline:
        every request runs the *scalar* kernel alone, serialized per
        service.  Exists for benchmarking the coalescing win and as the
        ground truth the batched path must match bit-for-bit.
    pool:
        Optional :class:`~repro.serve.pool.WorkerPool`.  When given,
        every kernel dispatch (coalesced PPR/ego batches, SPARQL
        evaluation) is shipped to the worker process owning the graph's
        shard instead of running in this interpreter; the service keeps
        admission, coalescing and metrics exactly as in-process.  The
        caller owns the pool's lifecycle (``pool.close()``); pool mode
        requires ``coalesce=True`` — the serial baseline is by definition
        the in-process scalar oracle.
    compact_every:
        Delta-log compaction threshold applied to every registered graph:
        an ingest that would grow a graph's delta log to this many rows
        folds the whole delta into a fresh base epoch instead (``0``, the
        default, never auto-compacts).  See ``docs/live-graphs.md``.
    """

    def __init__(
        self,
        max_pending: int = MAX_PENDING,
        max_batch: int = MAX_BATCH,
        coalesce: bool = True,
        pool: Optional[WorkerPool] = None,
        compact_every: int = 0,
    ):
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if pool is not None and not coalesce:
            raise ValueError(
                "pool mode requires coalesce=True; the serial baseline is "
                "the in-process scalar oracle"
            )
        self.max_pending = max_pending
        self.coalesce = coalesce
        self.pool = pool
        self.compact_every = max(int(compact_every), 0)
        self.metrics = ServiceMetrics()
        self._graphs: Dict[str, _RegisteredGraph] = {}
        self._pending = 0
        self._serial_lock = asyncio.Lock()
        self.max_batch = max_batch
        # One coalescing scheduler per window op, each dispatching through
        # its ``_dispatch_<op>`` method (looked up by name on the class).
        self._coalescers = {
            op: Coalescer(
                getattr(self, f"_dispatch_{op}"),
                max_batch=max_batch,
                metrics=self.metrics,
                lanes=self._lanes,
            )
            for op in WINDOWS
        }
        # Checkpointed models (lazy, identity-cached).  In pool mode the
        # parent registry holds *metadata only* (for routing); the models
        # themselves live in the owning workers' registries.
        self.registry = ModelRegistry()
        # Bounded LRU over finished /predict payloads, keyed on
        # (graph, epoch, task, architecture, item, k, candidates).  Active
        # only when coalescing — the serial baseline must measure the
        # uncached scalar path.  Event-loop-confined: no lock needed.
        self._predict_cache: "OrderedDict[tuple, dict]" = OrderedDict()
        self._predict_cache_hits = 0
        self._predict_cache_misses = 0

    # -- registry --

    def register(
        self,
        name: str,
        kg: KnowledgeGraph,
        warm: bool = True,
        mmap_dir: Optional[str] = None,
    ) -> None:
        """Register ``kg`` under ``name``; ``warm`` prebuilds the CSR.

        Warming at registration keeps the first request's latency in line
        with steady state — artifact construction is the one cost that is
        *not* graph-size independent.  In pool mode the graph is also
        registered with the pool, and warming happens worker-side — the
        parent never builds kernel artifacts, not even across ingests: a
        new epoch's artifacts are merged only on first use
        (``repro/kg/epoch.py``), and the parent uses none.

        ``mmap_dir`` (pool mode) names the saved artifact store the owning
        workers memory-map (see ``repro/kg/store.py``); ``kg`` should then
        be ``open_artifacts(mmap_dir).kg``.  Without it the pool saves the
        graph to a private store.  Without a pool the argument is ignored —
        an ``open_artifacts`` graph already carries its mapped artifacts.
        """
        if name in self._graphs:
            raise ValueError(f"graph {name!r} already registered")
        self._graphs[name] = _RegisteredGraph(
            kg, self.registry, compact_every=self.compact_every
        )
        if self.pool is not None:
            self.pool.register(name, kg, warm=warm, mmap_dir=mmap_dir)
        elif warm:
            artifacts_for(kg).warm()

    def register_checkpoint(self, graph: str, path: str) -> dict:
        """Attach the checkpoint at ``path`` to registered graph ``graph``.

        The parent registry reads the O(header) metadata (validating
        magic/version/CRC and that the checkpoint's graph matches the
        registered ``kg``); model parameters are loaded lazily by whoever
        executes predict windows — this process in-process, the owning
        workers in pool mode (the pool ships the *path*, replayed on
        respawn like graph registrations).  Returns the checkpoint meta.
        """
        entry = self._graph(graph)
        meta = self.registry.add(graph, path, expected_graph=entry.kg.name)
        if self.pool is not None:
            self.pool.register_checkpoint(graph, path)
        return meta

    async def ingest_triples(self, graph: str, triples) -> dict:
        """``POST /triples``: append triples to ``graph`` as a new epoch.

        The payload must be ``(n, 3)`` integer ``[s, p, o]`` rows among the
        graph's *existing* node/relation ids (ingest never grows the id
        spaces; a malformed payload raises ``ValueError`` → 400).  The
        parent decides whether this ingest triggers compaction and, in
        pool mode, ships the delta (with that decision) to every owning
        worker *first* — every process's epoch chain advances in lockstep
        and a respawned worker replays the same chain.  Then the parent's
        own shard applies it exactly as a worker does
        (:meth:`~repro.serve.transport.GraphShard.ingest`).  In-flight
        requests keep the epoch they were admitted under; requests
        arriving after the response see the new one.

        Returns ``{"graph", "added", "epoch", "delta_rows", "compacted"}``.
        """
        entry = self._graph(graph)
        arr = entry.live.validate_triples(triples)  # fail fast: ValueError → 400
        async with entry.ingest_lock:
            if len(arr) == 0:  # no epoch bump, nothing to ship
                return {"graph": graph, **entry.live.ingest(arr)}
            compact = entry.live.would_compact(len(arr))
            if self.pool is not None:
                # Owning workers first (all acks awaited): once the client
                # sees the new epoch number, every shard can serve it.
                await asyncio.to_thread(self.pool.ingest, graph, arr, compact)
            delta = {"graph": graph, "triples": arr, "compact": compact,
                     "seq": entry.seq + 1}
            result = await asyncio.to_thread(entry.ingest, delta)
            return {"graph": graph, **result}

    def ping(self) -> str:
        return "pong"

    def graphs(self) -> List[str]:
        return sorted(self._graphs)

    def has_graph(self, name: str) -> bool:
        return name in self._graphs

    def _graph(self, name: str) -> _RegisteredGraph:
        entry = self._graphs.get(name)
        if entry is None:
            raise KeyError(
                f"unknown graph {name!r}; registered: {self.graphs()}"
            )
        return entry

    def kg_of(self, name: str) -> KnowledgeGraph:
        """Current-epoch merged graph of ``name`` (KeyError if unknown).

        Front ends use this for answer *decoration* that needs the vocab
        tables — e.g. IRI-decoding SPARQL bindings for the XML results
        format.  Vocabularies are append-only across epochs, so ids from
        any result decode consistently against the current snapshot.
        """
        return self._graph(name).kg

    # -- admission gate --

    def _admit(self, kind: str) -> None:
        if self._pending >= self.max_pending:
            retry_after = self._retry_after(kind)
            self.metrics.record_rejected(retry_after)
            raise ServiceOverloaded(retry_after=retry_after)
        self._pending += 1
        self.metrics.record_admitted()

    def _retry_after(self, kind: str) -> float:
        # Drain estimate: the whole queue served at the recent smoothed
        # per-request rate of *this request's kind* (an ego/sparql reject
        # must not inherit the PPR rate).  Only coalesced kinds divide by
        # a batch factor — and by the *observed* batch occupancy, not the
        # configured max_batch: under light coalescing, dividing by the
        # full window size would underestimate the drain time.
        per_request = self.metrics.ewma_request_seconds(kind=kind, default=0.0)
        if per_request == 0.0:
            # No completions of this kind yet: fall back to the aggregate
            # rate, then to a constant.
            per_request = self.metrics.ewma_request_seconds(
                default=UNOBSERVED_SERVICE_SECONDS
            )
        drain = self._pending * per_request
        # Window kinds are op names, except /predict's per-model
        # ``predict:<architecture>`` (each model gets its own EWMA — the
        # basis of latency-budget routing).
        if self.coalesce and kind.partition(":")[0] in WINDOWS:
            occupancy = self.metrics.batch_occupancy()
            drain /= min(max(occupancy, 1.0), float(self.max_batch))
        # Capacity frees when one in-flight request of this kind
        # completes, so the floor is one service time.
        return max(drain, per_request)

    async def _serve(self, kind: str, start_request) -> object:
        """Admission + latency accounting around one request.

        ``start_request`` is a zero-argument callable returning the request
        coroutine; it is only invoked *after* admission succeeds, so a
        rejected request never touches the schedulers.
        """
        self._admit(kind)
        start = time.perf_counter()
        try:
            result = await start_request()
        except BaseException:
            self.metrics.record_completed(
                kind, time.perf_counter() - start, error=True
            )
            raise
        finally:
            self._pending -= 1
            self.metrics.record_departed()
        self.metrics.record_completed(kind, time.perf_counter() - start)
        return result

    # -- request kinds --

    async def _windowed(
        self, op: str, graph: str, item: Any, params: Dict[str, Any], kind: str = ""
    ) -> Any:
        """One request of window op ``op``: coalesced, or the scalar oracle."""
        entry = self._graph(graph)  # fail fast before entering the queue
        window = WINDOWS[op]
        # Validate here, not in the kernel: a bad parameter must reject
        # *this* request (ValueError → 400 on both front ends) instead of
        # failing the whole coalescing window on the dispatch thread.
        window.check(params)

        async def start():
            if self.coalesce:
                # The window key carries the epoch at admission: requests
                # admitted under different epochs never share a batch, and
                # the dispatcher runs each batch on its own snapshot.
                key = (graph, entry.epoch, *(params[name] for name in window.params))
                return await self._coalescers[op].submit(key, item)
            # The serial baseline: the scalar oracle, one request at a time,
            # on the admission-epoch snapshot.
            kg, payload = entry.kg, {"graph": graph, "epoch": entry.epoch, **params}
            async with self._serial_lock:
                return await asyncio.to_thread(window.oracle, kg, self.registry, payload, item)

        return await self._serve(kind or op, start)

    async def ppr_top_k(
        self,
        graph: str,
        target: int,
        k: int = 16,
        alpha: float = 0.25,
        eps: float = 2e-4,
    ) -> List[Tuple[int, float]]:
        """Top-``k`` influence list of ``target`` (IBS's per-target unit)."""
        return await self._windowed(
            "ppr", graph, int(target), {"k": k, "alpha": alpha, "eps": eps}
        )

    async def extract_ego(
        self,
        graph: str,
        root: int,
        depth: int = 2,
        fanout: int = 8,
        salt: int = 0,
    ) -> _EgoGraph:
        """One ShaDowSAINT ego scope around ``root``."""
        return await self._windowed(
            "ego", graph, int(root), {"depth": depth, "fanout": fanout, "salt": salt}
        )

    async def paths(
        self,
        graph: str,
        src: int,
        dst: int,
        max_hops: int = 3,
        max_paths: int = 64,
    ) -> List[list]:
        """All simple relational paths ``src -> dst`` (the KagNet unit).

        Returns a list of interleaved ``[src, rel, node, ..., rel, dst]``
        int lists, hop-major and lexicographic within a hop, truncated at
        ``max_paths`` — exactly
        :func:`repro.sampling.paths.enumerate_paths_scalar` on the
        admission-epoch snapshot.  Coalesced requests with matching
        ``(max_hops, max_paths)`` share one batched enumeration (and the
        live graph's retained per-pair cache); the serial baseline runs
        the scalar DFS oracle per request.
        """
        return await self._windowed(
            "paths", graph, (int(src), int(dst)),
            {"max_hops": int(max_hops), "max_paths": int(max_paths)},
        )

    async def predict(
        self,
        graph: str,
        task: str,
        node: Optional[int] = None,
        head: Optional[int] = None,
        model: Optional[str] = None,
        k: int = PREDICT_TOP_K,
        candidates: int = 0,
        budget_ms: Optional[float] = None,
    ) -> dict:
        """One model-inference request against a checkpointed model.

        ``node`` (node classification) or ``head`` (link prediction) names
        the query entity — pass exactly one.  ``model`` pins an
        architecture; otherwise :meth:`_route_predict` picks one
        query-aware: the most accurate checkpoint whose observed per-model
        latency (EWMA of ``predict:<arch>`` completions) fits
        ``budget_ms``, the fastest when none fits, the best recorded test
        metric when no budget is given.  ``k`` bounds the returned LP
        tails; ``candidates > 0`` localizes LP scoring to the PPR top-c
        neighbourhood of the head (extraction→inference pipelining)
        instead of the full tail-class pool.

        Coalesced mode answers through the micro-batched vectorized path
        plus a bounded LRU result cache (hits skip admission entirely);
        ``coalesce=False`` serves the scalar one-request-at-a-time oracle,
        which every batched answer must match bit for bit.
        """
        entry = self._graph(graph)
        if (node is None) == (head is None):
            raise ValueError(
                "op 'predict' takes exactly one of 'node' (node "
                "classification) or 'head' (link prediction)"
            )
        item = int(node if node is not None else head)
        architecture = model if model is not None else self._route_predict(
            graph, task, budget_ms
        )
        try:
            self.registry.meta(graph, task, architecture)
        except KeyError as exc:
            raise ValueError(str(exc)) from None

        cache_key = (graph, entry.epoch, task, architecture, item, k, candidates)
        if self.coalesce:
            cached = self._predict_cache.get(cache_key)
            if cached is not None:
                self._predict_cache.move_to_end(cache_key)
                self._predict_cache_hits += 1
                return cached
            self._predict_cache_misses += 1

        result = await self._windowed(
            "predict", graph, item,
            {"task": task, "model": architecture, "k": int(k),
             "candidates": int(candidates)},
            kind=f"predict:{architecture}",
        )
        if "error" in result:
            # Per-item failures ship inside the window payload so one bad
            # id cannot fail its whole batch; surface as a client error.
            raise ValueError(result["error"])
        if self.coalesce:
            self._predict_cache[cache_key] = result
            self._predict_cache.move_to_end(cache_key)
            while len(self._predict_cache) > PREDICT_CACHE_SIZE:
                self._predict_cache.popitem(last=False)
        return result

    def _route_predict(
        self, graph: str, task: str, budget_ms: Optional[float]
    ) -> str:
        """Pick the architecture answering ``task`` (query-aware routing).

        No budget: the checkpoint with the best recorded ``test_metric``
        (ties → fewer parameters, then architecture name — deterministic
        across serial/coalesced/pooled modes, so bit-exactness comparisons
        route identically).  With a budget: the best such checkpoint whose
        per-model latency EWMA fits the budget — a model with no traffic
        yet optimistically counts as fitting — falling back to the fastest
        observed model when none fits.
        """
        options = self.registry.candidates(graph, task)
        if not options:
            raise ValueError(
                f"no checkpoint serves task {task!r} on graph {graph!r}; "
                f"tasks with checkpoints: {self.registry.tasks(graph)}"
            )

        def quality(option: Tuple[str, dict]) -> Tuple[float, int]:
            architecture, meta = option
            metric = meta.get("metrics", {}).get("test_metric")
            best = float(metric) if metric is not None else float("-inf")
            return (best, -int(meta.get("num_parameters", 0)))

        if budget_ms is None:
            return max(options, key=quality)[0]
        budget = float(budget_ms) / 1e3
        timed = [
            (
                self.metrics.ewma_request_seconds(kind=f"predict:{arch}", default=0.0),
                (arch, meta),
            )
            for arch, meta in options
        ]
        fits = [option for ewma, option in timed if ewma <= budget]
        if fits:
            return max(fits, key=quality)[0]
        return min(timed, key=lambda pair: pair[0])[1][0]

    async def sparql(self, graph: str, query: Query) -> ResultSet:
        """One SPARQL request, evaluated by the graph's executor."""
        return await self._query_op("sparql", graph, query)

    async def count(self, graph: str, query: Query) -> int:
        """``getGraphSize`` for ``query`` (Algorithm 3's cardinality probe)."""
        return await self._query_op("count", graph, query)

    async def sparql_stream(self, graph: str, query: Query, page_rows: int = 4096):
        """Plan ``query`` as a stream of LIMIT/OFFSET pages.

        Returns a :class:`~repro.sparql.endpoint.PageStream`: the query is
        evaluated once under admission/latency accounting (it holds the
        expensive columnar work), and the pages are then cut lazily as the
        wire layer pulls them — the consumer-paced half of the HTTP front
        end's chunked streaming.  The executor accounts the query as one
        request; the pages are cut here and accounted into the graph's
        ``page_stats``, so streamed bytes and ``/metrics`` counters are
        the same whichever process evaluated the query.
        """
        entry = self._graph(graph)
        if page_rows <= 0:
            raise ValueError(f"page_rows must be positive, got {page_rows}")
        result = await self._query_op("sparql_stream", graph, query)

        def pages():
            for page in result.iter_pages(page_rows):
                entry.page_stats.record(page=page)
                yield page

        return PageStream(
            variables=list(result.variables),
            total_rows=result.num_rows,
            page_rows=page_rows,
            pages=pages(),
        )

    async def _query_op(self, op: str, graph: str, query: Query) -> Any:
        self._graph(graph)
        payload = {"graph": graph, "query": query}
        return await self._serve(
            "sparql", lambda: asyncio.to_thread(self._execute, op, payload)
        )

    # -- execution (worker-thread side) --

    def _execute(self, op: str, payload: dict) -> Any:
        """Run one graph op: on the owning pool worker, or on this
        process's own shard — the executor a worker runs."""
        if self.pool is not None:
            return self.pool.call(op, payload)
        return self._graphs[payload["graph"]].execute(op, payload)

    def _lanes(self, key: Hashable) -> int:
        """Batches of one window key that run at once: one per process
        that executes them (this one, or each worker owning the graph)."""
        return 1 if self.pool is None else len(self.pool.shards_of(key[0]))

    def _dispatch(self, op: str, key: Hashable, items: List[Any]) -> list:
        """Run one coalesced window of ``op`` (one answer per item)."""
        window = WINDOWS[op]
        graph, epoch, *params = key
        return self._execute(op, {
            "graph": graph, "epoch": epoch, window.items: items,
            **dict(zip(window.params, params)),
        })

    # -- lifecycle / observability --

    async def drain(self) -> None:
        """Dispatch waiting coalescing windows and wait for their batches."""
        for coalescer in self._coalescers.values():
            await coalescer.flush()

    def metrics_snapshot(self) -> dict:
        """Service + per-graph metrics as one JSON-serializable dict.

        In pool mode the per-graph artifact-cache and endpoint counters
        come from the owning workers (asked now, summed across replicas),
        and the snapshot gains a ``config.pool`` section with worker
        health and graph owners.
        """
        snapshot = self.metrics.snapshot()
        graphs = {}
        for name, entry in self._graphs.items():
            # The executor's counters: the owning workers', or this
            # process's shard's.
            stats = self.pool.graph_stats(name) if self.pool is not None else entry.stats()
            # Fold in the streamed-/sparql pages cut here (invisible to the
            # executor's EndpointStats); the ratio is computed over the
            # merged byte counters.
            endpoint, pages = stats["endpoint"], entry.page_stats.snapshot()
            for counter in ("rows_returned", "bytes_raw", "bytes_shipped"):
                endpoint[counter] += getattr(pages, counter)
            raw, shipped = endpoint.pop("bytes_raw"), endpoint["bytes_shipped"]
            endpoint["compression_ratio"] = (raw / shipped) if shipped else 1.0
            # Epoch/delta gauges + retained-kernel cache counters of the
            # live epoch chain (docs/live-graphs.md walks these); in pool
            # mode the caches that answer are the owning workers'.
            live = entry.live.stats()
            live.update(stats.pop("live", {}))
            graphs[name] = {
                "num_nodes": entry.kg.num_nodes,
                "num_edges": entry.kg.num_edges,
                "live": live,
                **stats,
            }
            if self.pool is not None:
                graphs[name]["shards"] = self.pool.shards_of(name)
        snapshot["graphs"] = graphs
        snapshot["predict"] = {
            "cache": {
                "hits": self._predict_cache_hits,
                "misses": self._predict_cache_misses,
                "size": len(self._predict_cache),
                "capacity": PREDICT_CACHE_SIZE,
            },
            "registry": self.registry.snapshot(),
        }
        snapshot["config"] = {
            "max_pending": self.max_pending,
            "max_batch": self.max_batch,
            "coalesce": self.coalesce,
            "compact_every": self.compact_every,
        }
        if self.pool is not None:
            snapshot["config"]["pool"] = self.pool.describe()
        return snapshot


# The coalescers and tracers find each window's dispatcher by name on the
# class, as ``_dispatch_<op>``.
for _op in WINDOWS:
    setattr(
        ExtractionService, f"_dispatch_{_op}",
        functools.partialmethod(ExtractionService._dispatch, _op),
    )

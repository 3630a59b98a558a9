"""Lifecycle layer: a sharded worker pool orchestrated over transports.

One Python interpreter caps extraction throughput no matter how many
cores the box has: the in-process :class:`ExtractionService` runs every
batch kernel on ``asyncio.to_thread``, and the GIL serializes the
Python-level parts of those kernels.  :class:`WorkerPool` removes that
bottleneck the way DGL-KE partitions KG state across processes: each
**worker owns a shard of the artifact cache** — CSR projections,
hexastore orderings and walk engines are built exactly once per owning
worker and never cross a process boundary — and the parent ships only
request parameters out and numpy result buffers back.

The pool is the top of a three-layer split:

* **Transport** (``serve/transport.py``) — *how* a request reaches a
  worker: a local ``multiprocessing`` child over a pipe, or a standalone
  ``repro serve-worker`` process over newline-delimited JSON/TCP
  (possibly on another machine).  Above the
  :class:`~repro.serve.transport.WorkerTransport` interface the pool
  cannot tell the two apart, so crash handling, replay and bit-exactness
  hold identically for both.
* **Placement** (``serve/placement.py``) — *which* workers serve which
  graph: the deterministic blake2b shard map
  (:class:`~repro.serve.placement.HashPlacement`, the default) or
  least-loaded assignment over observed queue-depth EWMA and reported
  worker memory (:class:`~repro.serve.placement.LoadAwarePlacement`).
* **Lifecycle/elasticity** (this module) — *when* workers exist: spawn,
  crash → structured :class:`WorkerCrashed` → respawn/reconnect with
  registration-and-delta replay, graceful shard handoff when placement
  changes (register new owners first, then flip routing, then drain),
  and an elastic controller that grows/shrinks the local worker count
  between ``workers_min``/``workers_max`` driven by queue depth and
  Retry-After pressure.

Contracts (unchanged by the refactor):

* **Deterministic placement by default** —
  :func:`~repro.serve.placement.shard_for` is a stable
  hash of the graph *name*; the same graph always lands on the same home
  shard, and a graph is served by ``replicas`` consecutive workers
  starting there (default: all workers).  Batches round-robin over the
  owner set.
* **Ship parameters, not state** — registration ships a pickled graph
  once per owner, or (``mmap_dir``) just a *path* each owner maps
  zero-copy; every later message is request parameters or result
  buffers.  Remote workers accept only the path form.
* **Bit-exactness** — workers run the same batch kernels against their
  own :func:`~repro.kg.cache.artifacts_for` cache, and the remote JSON
  codec round-trips every answer losslessly, so which process — or
  machine — runs a batch can never change an answer
  (``tests/serve/test_pool.py`` and ``tests/serve/test_transport.py``
  assert pooled == in-process across both transports).
* **Crash containment** — a dead worker fails only its in-flight
  requests, each with a structured :class:`WorkerCrashed`; the pool
  respawns (local) or reconnects (remote) the slot and replays its
  registrations and ingest deltas, so the recovered worker reaches the
  same epoch as the workers that never died.

The pool is synchronous and thread-safe; :class:`ExtractionService`
drives it from ``asyncio.to_thread`` exactly like the in-process
kernels.  See ``docs/serving.md`` for the operator surface.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
import warnings
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.kg.graph import KnowledgeGraph
from repro.serve.placement import (
    HashPlacement,
    PlacementPolicy,
    WorkerLoad,
)
from repro.serve.transport import (
    SHUTDOWN_GRACE_SECONDS,
    LocalProcessTransport,
    RemoteTcpTransport,
    WorkerCrashed,
    WorkerError,
    WorkerTransport,
)

__all__ = [
    "WorkerCrashed",
    "WorkerError",
    "WorkerPool",
]

#: Seconds a request waits for a crashed worker slot to finish
#: respawning/reconnecting before giving up with :class:`WorkerCrashed`.
RESPAWN_WAIT_SECONDS = 60.0

#: Seconds between elastic scale decisions (prevents grow/shrink flapping).
ELASTIC_COOLDOWN_SECONDS = 2.0

#: Mean queue-depth EWMA above which the elastic controller grows the pool.
ELASTIC_SCALE_UP_DEPTH = 1.5

#: Mean queue-depth EWMA below which it considers shrinking.
ELASTIC_SCALE_DOWN_DEPTH = 0.1

#: Retry-After pressure EWMA (seconds) above which it grows regardless of
#: queue depth — admission is already turning clients away.
ELASTIC_SCALE_UP_PRESSURE = 0.25

#: Smoothing factor of the per-slot queue-depth EWMA (sampled at dispatch).
_DEPTH_EWMA_ALPHA = 0.2

#: Seconds a retiring slot gets to finish its in-flight requests.
DRAIN_TIMEOUT_SECONDS = 30.0


class _WorkerSlot:
    """One worker slot: a stable index bound to successive transports.

    The slot owns lifecycle (ready gating, respawn/reconnect, replay,
    retirement); the transport owns the wire.  Each incarnation is a
    *new* transport object, so "is this disconnect stale?" is an
    identity check (``reporting transport is self.transport``), never a
    state machine.  Slot indices are stable for the life of the pool —
    scale-down retires a slot in place instead of compacting the list,
    so recorded placements and piggybacked stats never need reindexing.
    """

    def __init__(
        self,
        pool: "WorkerPool",
        index: int,
        kind: str = "local",
        address: Optional[str] = None,
    ):
        self.pool = pool
        self.index = index
        self.kind = kind
        self.address = address
        self.lock = threading.Lock()
        self.spawn_lock = threading.Lock()
        self.ready = threading.Event()  # cleared while (re)spawning
        self.transport: Optional[WorkerTransport] = None
        self.respawns = 0
        self.spawn_failure: Optional[str] = None
        self.closed = False
        self.retired = False
        # Scale-down grace state: a draining slot is excluded from new
        # placements but still answers requests until routing has flipped
        # away from it and its in-flight work finished.
        self.draining = False
        self.cpu: Optional[int] = None  # CPU this slot is pinned to (None = unpinned)
        self.depth_ewma = 0.0  # queue depth sampled at dispatch, smoothed

    # -- lifecycle --

    def _make_transport(self) -> WorkerTransport:
        if self.kind == "remote":
            return RemoteTcpTransport(
                self.address,
                self.index,
                self.pool._record_graph_stats,
                self._on_disconnect,
            )
        return LocalProcessTransport(
            self.pool._ctx,
            self.index,
            self.pool._record_graph_stats,
            self._on_disconnect,
        )

    def spawn(self) -> None:
        """Start (or restart) this slot's worker behind a fresh transport."""
        transport = self._make_transport()
        with self.lock:
            self.transport = transport
        transport.start()
        self.cpu = self.pool._pin_worker(transport.pid(), self.index)
        # Replay this shard's registrations before accepting requests, so
        # a respawned/reconnected worker is indistinguishable from the
        # original ...
        for registration in self.pool._registrations_for(self.index):
            transport.request("register", registration).result()
        # ... then the ingest deltas, in order, so it reconstructs the
        # same epoch chain as the workers that never died.
        for delta in self.pool._deltas_for(self.index):
            transport.request("triples", delta).result()
        self.spawn_failure = None
        self.ready.set()

    def _on_disconnect(self, transport: WorkerTransport) -> None:
        """The worker behind ``transport`` is gone: maybe respawn.

        The transport has already failed its own in-flight requests with
        :class:`WorkerCrashed` before notifying us.
        """
        with self.lock:
            if transport is not self.transport:
                return  # a newer incarnation already took over
            if self.closed or self.retired or self.pool._closed:
                return  # deliberate teardown, not a crash
            self.ready.clear()
        # The dead incarnation's cumulative counters must survive the
        # respawn (the fresh worker restarts its own from zero).
        self.pool._retire_worker_stats(self.index)
        self.respawns += 1
        try:
            self.spawn()
        except Exception as exc:  # pragma: no cover - spawn itself failed
            # Leave the slot not-ready; requests retry the spawn (remote
            # workers may simply not be back yet) and surface this reason
            # via WorkerCrashed; describe() exposes it per slot.
            self.spawn_failure = f"{type(exc).__name__}: {exc}"

    def _respawn_now(self) -> None:
        """Reconnect-on-demand: retry a failed spawn from a request path.

        A remote worker that was down when the disconnect-path respawn
        ran may be back by the time the next request routes here; local
        slots get the same second chance after a failed fork.
        """
        with self.spawn_lock:
            self._respawn_attempt()

    def _respawn_attempt(self) -> None:
        """One spawn retry; the caller holds ``spawn_lock``."""
        if (
            self.ready.is_set()
            or self.spawn_failure is None
            or self.closed
            or self.retired
            or self.pool._closed
        ):
            return
        try:
            self.spawn()
        except Exception as exc:
            self.spawn_failure = f"{type(exc).__name__}: {exc}"

    def kick_respawn(self) -> None:
        """Retry a failed spawn in the background.

        Routing calls this for owners it skipped as not-ready: the live
        replicas keep answering while the dead slot's reconnect runs off
        the request path, so a remote worker that comes back rejoins
        without any request paying its connect timeout.  At most one
        attempt runs at a time; the lock is handed to the attempt thread
        and released there.
        """
        if self.spawn_failure is None or self.ready.is_set():
            return
        if not self.spawn_lock.acquire(blocking=False):
            return  # an attempt is already in flight

        def attempt() -> None:
            try:
                self._respawn_attempt()
            finally:
                self.spawn_lock.release()

        thread = threading.Thread(
            target=attempt, daemon=True, name=f"pool-revive-{self.index}"
        )
        try:
            thread.start()
        except BaseException:
            self.spawn_lock.release()
            raise

    # -- requests --

    def request(self, op: str, payload: dict):
        """Send one request; the returned future resolves off-thread."""
        deadline = time.monotonic() + RESPAWN_WAIT_SECONDS
        while not self.ready.is_set():
            if self.closed or self.pool._closed:
                raise WorkerCrashed(f"pool worker {self.index} is shut down")
            if self.retired:
                raise WorkerCrashed(f"pool worker {self.index} is retired")
            if self.spawn_failure is not None:
                self._respawn_now()
                if self.ready.is_set():
                    break
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                reason = f": {self.spawn_failure}" if self.spawn_failure else ""
                raise WorkerCrashed(
                    f"pool worker {self.index} is not available "
                    f"(respawn pending{reason})"
                )
            self.ready.wait(timeout=min(0.5, remaining))
        with self.lock:
            if self.closed:
                raise WorkerCrashed(f"pool worker {self.index} is shut down")
            transport = self.transport
        return transport.request(op, payload)

    def inflight_depth(self) -> int:
        transport = self.transport
        return transport.inflight_depth() if transport is not None else 0

    def alive(self) -> bool:
        transport = self.transport
        return (
            not self.retired
            and not self.closed
            and transport is not None
            and transport.alive()
            and self.ready.is_set()
        )

    def pid(self) -> Optional[int]:
        transport = self.transport
        return transport.pid() if transport is not None else None

    # -- teardown --

    def drain(self, timeout: float = DRAIN_TIMEOUT_SECONDS) -> None:
        """Wait for this slot's in-flight requests to finish."""
        deadline = time.monotonic() + timeout
        while self.inflight_depth() > 0 and time.monotonic() < deadline:
            time.sleep(0.005)

    def retire(self) -> None:
        """Take this slot out of service gracefully (scale-down path).

        Routing must already have been flipped away from this slot; we
        drain what is still in flight, then tear the transport down.  The
        slot object stays in place (indices are stable) and can be
        re-activated by a later scale-up via :meth:`spawn`.
        """
        with self.lock:
            self.retired = True
            self.ready.clear()
            transport = self.transport
        self.drain()
        if transport is not None:
            transport.close()
        self.pool._retire_worker_stats(self.index)
        self.depth_ewma = 0.0
        self.cpu = None

    def close(self) -> None:
        with self.lock:
            self.closed = True
            transport = self.transport
        self.ready.set()  # unblock waiters; they see closed and raise
        if transport is not None:
            transport.close()


class _PoolGraph:
    """Parent-side registration record (replayed on worker respawn)."""

    __slots__ = (
        "name", "kg", "warm", "shards", "rr", "mmap_dir", "checkpoints", "deltas",
    )

    def __init__(
        self,
        name: str,
        kg: KnowledgeGraph,
        warm: bool,
        shards: List[int],
        mmap_dir: Optional[str] = None,
    ):
        self.name = name
        self.kg = kg
        self.warm = warm
        self.shards = shards
        self.mmap_dir = mmap_dir
        self.checkpoints: List[str] = []
        # Ingested (triples, compact) deltas in arrival order; a respawned
        # worker replays them after its registrations, so it reconstructs
        # the same epoch chain as the surviving workers.
        self.deltas: List[Tuple[Any, bool]] = []
        self.rr = itertools.count()


class WorkerPool:
    """Worker slots (local and remote), each owning a shard of graphs.

    Parameters
    ----------
    workers:
        Number of **local** worker processes.  Throughput scales with
        workers up to the machine's core count; see ``docs/serving.md``.
        May be ``0`` when ``remote_workers`` is non-empty (a pure
        distributed parent that runs no kernels itself).
    replicas:
        How many workers serve each graph (``None``: all of them — the
        per-graph worker pool regime; ``1``: pure sharding, each graph
        lives on exactly its home shard).
    start_method:
        ``multiprocessing`` start method for local workers.  Default
        ``"forkserver"`` where available (workers fork from a clean,
        thread-free server process, so respawning during live traffic is
        safe), else ``"spawn"``.
    compression:
        Passed to each worker-side :class:`SparqlEndpoint`.
    pin_workers:
        Pin each local worker process to one CPU of the parent's affinity
        set (slot ``i`` → cpu ``i mod len(cpus)``).  No-op with a
        ``RuntimeWarning`` on platforms without affinity support; remote
        slots are never pinned (their machine is not ours to schedule).
    remote_workers:
        ``HOST:PORT`` addresses of standalone ``repro serve-worker``
        processes.  Remote slots sit after the local slots in index
        order, answer the same ops over JSON/TCP bit-exactly, and are
        reconnected (never respawned) on failure — a remote worker owns
        its own lifecycle.
    placement:
        A :class:`~repro.serve.placement.PlacementPolicy`; default
        :class:`~repro.serve.placement.HashPlacement` with ``replicas``,
        which reproduces the classic deterministic shard map.
    workers_min / workers_max:
        Enable the elastic controller: the pool grows/shrinks its
        **local** worker count within this range, driven by the
        queue-depth EWMA sampled at dispatch and by Retry-After pressure
        reported via :meth:`note_pressure`.  Resizes re-run placement
        and hand shards over gracefully (new owners register and replay
        *before* routing flips; leaving owners drain before teardown).

    The pool is a context manager; :meth:`close` terminates the workers.
    """

    def __init__(
        self,
        workers: int = 2,
        replicas: Optional[int] = None,
        start_method: Optional[str] = None,
        compression: bool = True,
        pin_workers: bool = False,
        remote_workers: Optional[Sequence[str]] = None,
        placement: Optional[PlacementPolicy] = None,
        workers_min: Optional[int] = None,
        workers_max: Optional[int] = None,
    ):
        remote_workers = list(remote_workers or ())
        if workers < 1 and not remote_workers:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        total = workers + len(remote_workers)
        if replicas is not None:
            # Normalize up front so the banner, describe()/metrics and the
            # actual placement can never disagree about the replica count.
            replicas = min(max(replicas, 1), total)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "forkserver" if "forkserver" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        if start_method == "forkserver":
            # Pre-import the heavy stack once in the fork server so every
            # worker (and every respawn) forks warm instead of re-importing
            # numpy/scipy/repro.
            self._ctx.set_forkserver_preload(["repro.serve.transport"])
        self.start_method = start_method
        self.num_workers = total
        self.replicas = replicas
        self.compression = compression
        self.pin_workers = pin_workers
        self._placement = placement if placement is not None else HashPlacement(replicas)
        if self._placement.replicas is None:
            self._placement.replicas = replicas
        # Elastic range over *local* slots only; remote workers are not
        # ours to start or stop.
        self._elastic = workers_min is not None or workers_max is not None
        self._workers_min = workers_min if workers_min is not None else max(workers, 1)
        self._workers_max = workers_max if workers_max is not None else max(workers, 1)
        if self._elastic:
            if not (1 <= self._workers_min <= self._workers_max):
                raise ValueError(
                    f"need 1 <= workers_min <= workers_max, got "
                    f"{self._workers_min}..{self._workers_max}"
                )
            if not (self._workers_min <= max(workers, 1) <= self._workers_max):
                raise ValueError(
                    f"workers={workers} must lie within "
                    f"workers_min..workers_max ({self._workers_min}.."
                    f"{self._workers_max})"
                )
        self._pin_warned = False
        self._closed = False
        self._registry_lock = threading.Lock()
        # Serializes ingest shipping against shard handoffs, so a delta can
        # never miss a worker that is being promoted to owner concurrently.
        self._handoff_lock = threading.Lock()
        self._resize_lock = threading.RLock()
        self._graphs: Dict[str, _PoolGraph] = {}
        self._stats_lock = threading.Lock()
        # Latest live piggybacked snapshot per (graph, worker slot) ...
        self._graph_stats: Dict[Tuple[str, int], dict] = {}
        # ... plus cumulative counters inherited from dead incarnations of
        # each slot, so a respawn never makes /metrics counters step back.
        self._retired_stats: Dict[Tuple[str, int], dict] = {}
        self._pressure_ewma = 0.0
        self._last_elastic = time.monotonic()
        self._resizes = 0
        self._elastic_error: Optional[str] = None
        self._workers: List[_WorkerSlot] = [
            _WorkerSlot(self, index) for index in range(workers)
        ]
        for address in remote_workers:
            self._workers.append(
                _WorkerSlot(self, len(self._workers), kind="remote", address=address)
            )
        for slot in self._workers:
            slot.spawn()

    # -- context manager --

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- worker CPU affinity --------------------------------------------------

    def _pin_worker(self, pid: Optional[int], index: int) -> Optional[int]:
        """Pin worker ``index`` (process ``pid``) to one CPU; returns the CPU.

        Slot ``i`` gets the ``i mod len(cpus)``-th CPU of the parent's own
        affinity set, so pinning composes with an outer cpuset/container
        limit.  Returns ``None`` (after warning once) when pinning is off,
        unsupported on this platform, or rejected by the kernel — and for
        remote workers, whose ``pid`` is not on this machine.
        """
        if not self.pin_workers or pid is None:
            return None
        if not hasattr(os, "sched_setaffinity"):  # pragma: no cover - non-Linux
            if not self._pin_warned:
                self._pin_warned = True
                warnings.warn(
                    "worker pinning requested but this platform has no "
                    "os.sched_setaffinity; workers run unpinned",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return None
        try:
            cpus = sorted(os.sched_getaffinity(0))
            cpu = cpus[index % len(cpus)]
            os.sched_setaffinity(pid, {cpu})
            return cpu
        except OSError as exc:  # pragma: no cover - kernel policy dependent
            if not self._pin_warned:
                self._pin_warned = True
                warnings.warn(
                    f"worker pinning failed ({exc}); workers run unpinned",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return None

    # -- placement inputs -----------------------------------------------------

    def _active_indices(self) -> List[int]:
        return [
            slot.index
            for slot in self._workers
            if not slot.retired and not slot.closed and not slot.draining
        ]

    def _loads(self) -> Dict[int, WorkerLoad]:
        """Per-slot load observations for the placement policy."""
        heap: Dict[int, int] = {}
        mapped: Dict[int, int] = {}
        with self._stats_lock:
            for (_name, worker), snapshot in self._graph_stats.items():
                cache = snapshot["artifact_cache"]
                heap[worker] = heap.get(worker, 0) + cache.get("nbytes", 0)
                mapped[worker] = max(
                    mapped.get(worker, 0), cache.get("mapped_nbytes", 0)
                )
        return {
            slot.index: WorkerLoad(
                queue_depth_ewma=slot.depth_ewma,
                heap_nbytes=heap.get(slot.index, 0),
                mapped_nbytes=mapped.get(slot.index, 0),
            )
            for slot in self._workers
        }

    # -- registration ---------------------------------------------------------

    def register(
        self,
        name: str,
        kg: KnowledgeGraph,
        warm: bool = True,
        mmap_dir: Optional[str] = None,
    ) -> List[int]:
        """Place ``kg`` on its shard(s) and ship it to each owning worker.

        Idempotent for the same ``(name, kg)`` pair (re-registration is a
        no-op returning the existing placement); a different graph under a
        registered name is an error.  Returns the worker indices serving
        the graph, primary first.

        With ``mmap_dir`` the registration payload carries only that *path*
        — never a pickled graph — and each owning worker memory-maps the
        saved artifact store (``repro/kg/store.py``) instead of rebuilding
        artifacts locally.  ``kg`` is still recorded parent-side (for
        metrics identity and conflict checks) and should be the
        ``open_artifacts(mmap_dir).kg`` of the same store.  Remote workers
        accept **only** this form: the path must resolve on their own
        filesystem, and a pickled graph never crosses the network.
        """
        with self._registry_lock:
            existing = self._graphs.get(name)
            if existing is not None:
                if existing.kg is not kg:
                    raise ValueError(
                        f"graph {name!r} is already registered with a different graph"
                    )
                return list(existing.shards)
            shards = self._placement.place(name, self._active_indices(), self._loads())
            record = _PoolGraph(name, kg, warm, shards, mmap_dir=mmap_dir)
            self._graphs[name] = record
        # Ship outside the registry lock: pickling a large graph must not
        # block routing of other graphs' requests.
        futures = [
            self._workers[shard].request("register", self._registration_payload(record))
            for shard in shards
        ]
        for future in futures:
            future.result()
        return list(shards)

    def _registration_payload(self, record: _PoolGraph) -> dict:
        payload = {
            "name": record.name,
            "warm": record.warm,
            "warm_kinds": ("csr",),
            "compression": self.compression,
            # Checkpoint paths ride the registration record, so a respawned
            # worker replays them and serves /predict like the original.
            "checkpoints": list(record.checkpoints),
        }
        if record.mmap_dir is not None:
            # Ship the artifact-store path, not the graph: respawn replays
            # re-map the same file, so recovery is as cheap as startup.
            payload["mmap_dir"] = record.mmap_dir
        else:
            payload["kg"] = record.kg
        return payload

    def register_checkpoint(self, name: str, path: str) -> List[int]:
        """Ship the checkpoint at ``path`` to every worker serving ``name``.

        Only the *path* crosses the wire; owning workers register it in
        their own :class:`~repro.serve.registry.ModelRegistry` and load
        the parameters lazily.  The path also joins the graph's
        registration record, so respawned workers replay it.  Idempotent
        per path.  Returns the owning worker indices.
        """
        with self._registry_lock:
            record = self._graphs.get(name)
            if record is None:
                raise KeyError(f"graph {name!r} is not registered with the pool")
            if path not in record.checkpoints:
                record.checkpoints.append(path)
            shards = list(record.shards)
            payload = self._registration_payload(record)
        # Re-registration is a no-op for the graph itself; workers only
        # fold in the (idempotent) checkpoint list.
        futures = [self._workers[shard].request("register", payload) for shard in shards]
        for future in futures:
            future.result()
        return shards

    def _registrations_for(self, index: int) -> List[dict]:
        with self._registry_lock:
            return [
                self._registration_payload(record)
                for record in self._graphs.values()
                if index in record.shards
            ]

    def _deltas_for(self, index: int) -> List[dict]:
        """Ingest replay payloads for worker ``index``, arrival order."""
        with self._registry_lock:
            return [
                {"graph": record.name, "triples": triples, "compact": compact}
                for record in self._graphs.values()
                if index in record.shards
                for triples, compact in record.deltas
            ]

    def ingest(self, name: str, triples, compact: bool) -> None:
        """Ship one ingest delta to every worker serving ``name`` (blocking).

        The *parent* decides whether this delta compacts (``compact``) and
        ships the decision, so every process's epoch chain stays in
        lockstep — epoch N means the same merged graph everywhere.  The
        delta joins the graph's registration record for respawn replay.
        Called by the service **before** it applies the delta to its own
        :class:`~repro.kg.epoch.LiveGraph`: once this returns, any worker
        can serve the new epoch.  The handoff lock excludes concurrent
        placement changes, so a worker being promoted to owner can never
        miss a delta.
        """
        with self._handoff_lock:
            with self._registry_lock:
                record = self._graphs.get(name)
                if record is None:
                    raise KeyError(f"graph {name!r} is not registered with the pool")
                record.deltas.append((triples, bool(compact)))
                shards = list(record.shards)
            payload = {"graph": name, "triples": triples, "compact": bool(compact)}
            futures = [
                self._workers[shard].request("triples", payload) for shard in shards
            ]
            for future in futures:
                future.result()

    def shards_of(self, name: str) -> List[int]:
        """The worker indices currently serving graph ``name``."""
        with self._registry_lock:
            record = self._graphs.get(name)
            if record is None:
                raise KeyError(f"graph {name!r} is not registered with the pool")
            return list(record.shards)

    # -- requests -------------------------------------------------------------

    def _route(self, graph: str) -> _WorkerSlot:
        with self._registry_lock:
            record = self._graphs.get(graph)
            if record is None:
                raise KeyError(f"graph {graph!r} is not registered with the pool")
            shards = record.shards
            turn = next(record.rr)
        # Round-robin over the owners, but skip slots that are not ready:
        # a crashed remote worker reconnects in the background
        # (kick_respawn) without stalling requests that a live replica can
        # answer (any owner answers bit-identically).  With no ready
        # owner, fall back to the scheduled slot and let request() wait
        # for its respawn.
        ordered = [self._workers[shards[(turn + i) % len(shards)]] for i in range(len(shards))]
        for slot in ordered:
            if slot.ready.is_set() and not slot.retired:
                return slot
            slot.kick_respawn()
        return ordered[0]

    def call(self, op: str, payload: dict, timeout: Optional[float] = None) -> Any:
        """Route one op to an owning worker and block for its result.

        Runs on a plain thread (the service drives it via
        ``asyncio.to_thread``); raises what the worker raised for client
        errors, :class:`WorkerCrashed` if the worker died mid-request.
        Dispatch also samples the routed slot's queue depth into its
        EWMA — the load signal placement and elasticity act on.

        A request that routed to a slot just as a scale-down retired it
        re-routes instead of failing: retirement is deliberate and the
        shard map has already flipped to the surviving owners, so the
        retry cannot double-execute anything (crashes never retry).
        """
        while True:
            if self._closed:
                raise WorkerCrashed("worker pool is closed")
            slot = self._route(payload["graph"])
            depth = slot.inflight_depth()
            slot.depth_ewma += _DEPTH_EWMA_ALPHA * (depth - slot.depth_ewma)
            self._elastic_tick()
            try:
                return slot.request(op, payload).result(timeout=timeout)
            except WorkerCrashed:
                if not slot.retired or self._closed:
                    raise
                continue  # lost the race with a scale-down; re-route

    def ping(self, index: int, timeout: Optional[float] = 30.0) -> str:
        """Liveness probe of one worker slot (used by tests and smoke checks)."""
        return self._workers[index].request("ping", {}).result(timeout=timeout)

    # -- elasticity -----------------------------------------------------------

    def note_pressure(self, retry_after: float = 1.0) -> None:
        """Record one admission rejection (the Retry-After pressure signal).

        Called by the service whenever it turns a client away with
        :class:`~repro.serve.service.ServiceOverloaded`.  Sustained
        pressure grows the pool even while queue depths look moderate —
        rejected requests never reach a worker queue, so depth alone
        under-reports saturation.
        """
        self._pressure_ewma = 0.7 * self._pressure_ewma + 0.3 * float(retry_after)
        self._elastic_tick()

    def _elastic_tick(self) -> None:
        """Check-on-call controller: decide at most one resize per cooldown."""
        if not self._elastic or self._closed:
            return
        now = time.monotonic()
        elapsed = now - self._last_elastic
        if elapsed < ELASTIC_COOLDOWN_SECONDS:
            return
        self._last_elastic = now
        # Pressure decays between decisions, so one historic burst cannot
        # keep the pool scaled up forever.
        self._pressure_ewma *= 0.5 ** (elapsed / 10.0)
        local = [
            slot
            for slot in self._workers
            if slot.kind == "local" and not slot.retired and not slot.closed
        ]
        if not local:
            return
        mean_depth = sum(slot.depth_ewma for slot in local) / len(local)
        current = len(local)
        target = current
        if (
            mean_depth > ELASTIC_SCALE_UP_DEPTH
            or self._pressure_ewma > ELASTIC_SCALE_UP_PRESSURE
        ) and current < self._workers_max:
            target = current + 1
        elif (
            mean_depth < ELASTIC_SCALE_DOWN_DEPTH
            and self._pressure_ewma < ELASTIC_SCALE_UP_PRESSURE / 4
            and current > self._workers_min
        ):
            target = current - 1
        if target == current:
            return
        # Resize off the request path: spawning a worker and handing
        # shards over must not add latency to the call that tripped it.
        threading.Thread(
            target=self._resize_quietly,
            args=(target,),
            name="tosg-pool-elastic",
            daemon=True,
        ).start()

    def _resize_quietly(self, target: int) -> None:
        try:
            self.resize(target)
            self._elastic_error = None
        except Exception as exc:  # pragma: no cover - surfaced via describe()
            self._elastic_error = f"{type(exc).__name__}: {exc}"

    def resize(self, workers: int) -> dict:
        """Set the active **local** worker count (blocking); returns describe().

        Grow: retired slots are re-activated (or new slots appended),
        spawned, and only then does placement re-run — every graph whose
        owner set changed is registered (and delta-replayed) on its new
        owners **before** routing flips, so no request can reach a worker
        that has not finished registering.  Shrink: victims are marked
        retired, placement re-runs (flipping routing away from them),
        and each victim drains its in-flight requests before teardown.
        """
        if self._closed:
            raise WorkerCrashed("worker pool is closed")
        lo = self._workers_min if self._elastic else 1
        hi = self._workers_max if self._elastic else max(workers, 1)
        workers = min(max(workers, lo), hi)
        with self._resize_lock:
            local = [slot for slot in self._workers if slot.kind == "local"]
            active = [slot for slot in local if not slot.retired and not slot.closed]
            current = len(active)
            if workers > current:
                for _ in range(workers - current):
                    slot = next((s for s in local if s.retired), None)
                    if slot is not None:
                        slot.retired = False
                        slot.draining = False
                        slot.spawn_failure = None
                    else:
                        slot = _WorkerSlot(self, len(self._workers))
                        self._workers.append(slot)
                        local.append(slot)
                    try:
                        slot.spawn()
                    except Exception as exc:
                        slot.spawn_failure = f"{type(exc).__name__}: {exc}"
                self._rebalance()
            elif workers < current:
                victims = active[workers:]
                # Drain order matters: victims keep serving while placement
                # re-runs without them; only once routing has flipped do
                # they retire (drain in-flight work, close the transport).
                for victim in victims:
                    victim.draining = True
                self._rebalance()  # flips routing off the victims
                for victim in victims:
                    victim.retire()
                    victim.draining = False
            self.num_workers = len(self._active_indices())
            self._resizes += 1
            return self.describe()

    def _rebalance(self) -> None:
        """Re-run placement and hand shards over gracefully.

        Per graph: compute the new owner set; registrations (and the full
        delta chain) ship to *new* owners first, then routing flips under
        the registry lock.  Old owners simply stop receiving requests —
        their copy is reclaimed when their slot retires or respawns.
        """
        active = self._active_indices()
        if not active:
            return
        loads = self._loads()
        with self._registry_lock:
            records = list(self._graphs.values())
        for record in records:
            with self._handoff_lock:
                with self._registry_lock:
                    old_shards = list(record.shards)
                    payload = self._registration_payload(record)
                    deltas = [
                        {"graph": record.name, "triples": triples, "compact": compact}
                        for triples, compact in record.deltas
                    ]
                new_shards = self._placement.place(record.name, active, loads)
                for shard in new_shards:
                    if shard in old_shards:
                        continue
                    self._workers[shard].request("register", payload).result()
                    for delta in deltas:
                        self._workers[shard].request("triples", delta).result()
                with self._registry_lock:
                    record.shards = list(new_shards)

    # -- observability --------------------------------------------------------

    #: Monotonic counters carried over from dead worker incarnations.
    #: ``nbytes`` is deliberately absent: it is a resident-memory gauge,
    #: and a dead process's memory is gone.
    _ARTIFACT_COUNTERS = ("hits", "builds")
    _ENDPOINT_COUNTERS = ("requests", "rows_returned", "bytes_raw", "bytes_shipped")
    #: Counters of each retained-kernel cache; its ``entries`` is a gauge.
    _LIVE_CACHE_COUNTERS = ("hits", "misses", "invalidated")

    def _record_graph_stats(self, worker_index: int, stats: dict) -> None:
        # Piggybacked on every graph-touching response; eventually
        # consistent (latest snapshot per (graph, worker)), aggregated
        # across owning workers — and this slot's dead incarnations — at
        # read time.
        stats = dict(stats)
        name = stats.pop("graph", None)
        if name is not None:
            with self._stats_lock:
                self._graph_stats[(name, worker_index)] = stats

    def _retire_worker_stats(self, worker_index: int) -> None:
        """Fold a dead incarnation's counters into the slot's retired base."""
        with self._stats_lock:
            for key in [k for k in self._graph_stats if k[1] == worker_index]:
                snapshot = self._graph_stats.pop(key)
                base = self._retired_stats.setdefault(
                    key,
                    {
                        "artifact_cache": dict.fromkeys(self._ARTIFACT_COUNTERS, 0),
                        "endpoint": dict.fromkeys(self._ENDPOINT_COUNTERS, 0),
                    },
                )
                for counter in self._ARTIFACT_COUNTERS:
                    base["artifact_cache"][counter] += snapshot["artifact_cache"][counter]
                for counter in self._ENDPOINT_COUNTERS:
                    base["endpoint"][counter] += snapshot["endpoint"][counter]
                for cache, counters in snapshot.get("live", {}).items():
                    folded = base.setdefault("live", {}).setdefault(
                        cache, dict.fromkeys(self._LIVE_CACHE_COUNTERS, 0)
                    )
                    for counter in self._LIVE_CACHE_COUNTERS:
                        folded[counter] += counters[counter]

    def graph_stats(self, name: str) -> Optional[dict]:
        """Worker-side artifact/endpoint stats of ``name``, summed over owners.

        ``None`` until the first graph-touching response arrived.  Counters
        sum each owning worker's latest piggybacked snapshot plus the
        retired counters of that slot's dead incarnations (so respawns
        never step a counter backwards); ``nbytes`` sums live snapshots
        only — it is a gauge.  ``mapped_nbytes`` is the **max** (not sum)
        across live workers: memory-mapped artifact pages are physically
        shared by every worker mapping the same file, so summing would
        count the same pages once per worker.  With replication every
        worker builds its own artifacts, so ``builds`` counts per-worker
        construction, as documented in ``docs/serving.md``.  ``live`` holds
        the owners' retained-kernel cache counters (``ppr_cache``,
        ``ego_cache``, ``paths_cache``), merged the same way.
        """
        with self._stats_lock:
            live = [
                value
                for (stats_name, _worker), value in self._graph_stats.items()
                if stats_name == name
            ]
            retired = [
                value
                for (stats_name, _worker), value in self._retired_stats.items()
                if stats_name == name
            ]
        if not live and not retired:
            return None
        merged = {
            "artifact_cache": {
                key: sum(s["artifact_cache"][key] for s in live + retired)
                for key in self._ARTIFACT_COUNTERS
            },
            "endpoint": {
                key: sum(s["endpoint"][key] for s in live + retired)
                for key in self._ENDPOINT_COUNTERS
            },
        }
        merged["artifact_cache"]["nbytes"] = sum(
            s["artifact_cache"]["nbytes"] for s in live
        )
        merged["artifact_cache"]["mapped_nbytes"] = max(
            (s["artifact_cache"].get("mapped_nbytes", 0) for s in live), default=0
        )
        # The workers' retained-kernel caches, summed like the counters
        # above; retired bases carry no ``entries``, so that gauge sums the
        # live snapshots only.
        caches = merged["live"] = {}
        for snapshot in live + retired:
            for cache, counters in snapshot.get("live", {}).items():
                total = caches.setdefault(
                    cache, dict.fromkeys(("entries", *self._LIVE_CACHE_COUNTERS), 0)
                )
                for counter in total:
                    total[counter] += counters.get(counter, 0)
        # bytes_raw stays in the dict: the service folds parent-side page
        # accounting (streamed /sparql pages are cut parent-side) into these
        # counters before recomputing the ratio over the merged totals.
        raw = merged["endpoint"]["bytes_raw"]
        shipped = merged["endpoint"]["bytes_shipped"]
        merged["endpoint"]["compression_ratio"] = (raw / shipped) if shipped else 1.0
        return merged

    def worker_pids(self) -> List[Optional[int]]:
        """Current PID per worker slot (None while respawning, and for
        remote slots — their process lives on another machine)."""
        return [slot.pid() for slot in self._workers]

    def describe(self) -> dict:
        """Pool configuration + health as one JSON-serializable dict."""
        with self._registry_lock:
            graphs = {name: list(record.shards) for name, record in self._graphs.items()}
        local_active = [
            slot
            for slot in self._workers
            if slot.kind == "local" and not slot.retired and not slot.closed
        ]
        return {
            "workers": self.num_workers,
            "replicas": self.replicas,
            "start_method": self.start_method,
            "placement": self._placement.describe(),
            # Per-slot transport kind ("local"/"remote"); retired slots
            # keep their kind so slot indices stay interpretable.
            "transports": [slot.kind for slot in self._workers],
            "alive": [slot.alive() for slot in self._workers],
            "retired": [slot.retired for slot in self._workers],
            "respawns": sum(slot.respawns for slot in self._workers),
            # Per-slot reason when a respawn itself failed (None = healthy);
            # a persistently dead slot is diagnosable from /metrics alone.
            "spawn_failures": [slot.spawn_failure for slot in self._workers],
            # CPU each slot is pinned to (all None unless pin_workers and
            # the platform supports affinity).
            "pinned": [slot.cpu for slot in self._workers],
            # The load signal placement and elasticity act on.
            "queue_depth_ewma": [round(slot.depth_ewma, 4) for slot in self._workers],
            "elastic": {
                "enabled": self._elastic,
                "min": self._workers_min,
                "max": self._workers_max,
                "active_local": len(local_active),
                "resizes": self._resizes,
                "pressure_ewma": round(self._pressure_ewma, 4),
                "error": self._elastic_error,
            },
            "graphs": graphs,
        }

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Shut every worker down (idempotent).

        Local workers get the shutdown-op/join/terminate protocol; remote
        slots only drop their connection — a standalone ``serve-worker``
        owns its own lifecycle and may be serving other parents.
        """
        self._closed = True
        for slot in self._workers:
            slot.close()

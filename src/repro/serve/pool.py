"""Lifecycle layer: a sharded worker pool orchestrated over transports.

One Python interpreter caps extraction throughput no matter how many
cores the box has: the in-process :class:`ExtractionService` runs every
batch kernel on ``asyncio.to_thread``, and the GIL serializes the
Python-level parts of those kernels.  :class:`WorkerPool` removes that
bottleneck the way DGL-KE partitions KG state across processes: each
**worker owns a shard of the artifact cache**, mapped from an artifact
store and never shipped, and the parent ships only request parameters
out and results back.  The pool sits on two smaller pieces:

* **Transport** (``serve/transport.py``) — *how* a request reaches a
  worker: one :class:`~repro.serve.transport.WorkerTransport` sends
  length-prefixed JSON frames over a ``Connection``, a pipe to a local
  ``multiprocessing`` child or TCP to a standalone ``repro serve-worker``
  (possibly on another machine), so crash handling, replay and
  bit-exactness hold identically for both.
* **Placement** (``serve/placement.py``) — *which* workers serve a
  graph: :func:`~repro.serve.placement.replica_shards`, a stable hash of
  the graph *name*.  The same graph always lands on the same home shard,
  and is served by ``replicas`` consecutive workers starting there
  (default: all workers).  Batches round-robin over the owner set.

The pool itself owns a fixed set of slots and their lifecycle: spawn,
crash → structured :class:`WorkerCrashed` → respawn (local) or reconnect
(remote) with registration-and-delta replay.

Contracts:

* **Ship parameters, not state** — registration ships an artifact
  store *path* each owner maps zero-copy (an in-memory graph is saved
  once to a private store that :meth:`WorkerPool.close` removes).
* **Bit-exactness** — workers run the same batch kernels against their
  own :func:`~repro.kg.cache.artifacts_for` cache, and the JSON codec
  round-trips every answer losslessly, so which process — or machine —
  runs a batch can never change an answer (``tests/serve/test_pool.py``
  and ``tests/serve/test_transport.py``).
* **Crash containment** — a dead worker fails only its in-flight
  requests, each with a structured :class:`WorkerCrashed`; the pool
  respawns (local) or reconnects (remote) the slot and replays its
  registrations and ingest deltas, so the recovered worker reaches the
  same epoch as the workers that never died.
* **Idempotent replay** — each ingest delta carries its per-graph
  sequence number, and a worker skips a delta it has already applied.
  A replay that overlaps a live send, or a reconnect to a worker that
  kept its state, therefore never applies a delta twice.

The pool is synchronous and thread-safe; :class:`ExtractionService`
drives it from ``asyncio.to_thread`` exactly like the in-process
kernels.  See ``docs/serving.md`` for the operator surface.
"""

from __future__ import annotations

import concurrent.futures
import copy
import itertools
import multiprocessing
import shutil
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.kg.graph import KnowledgeGraph
from repro.serve.placement import replica_shards
from repro.serve.transport import (
    SHUTDOWN_GRACE_SECONDS,
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


class _WorkerSlot:
    """One worker slot: a stable index bound to successive transports.

    The slot owns lifecycle (ready gating, respawn/reconnect, replay);
    the transport owns the wire.  Each incarnation is a *new* transport
    object, so "is this disconnect stale?" is an identity check
    (``reporting transport is self.transport``), never a state machine.
    """

    def __init__(self, pool: "WorkerPool", index: int, address: Optional[str] = None):
        self.pool = pool
        self.index = index
        self.address = address
        self.lock = threading.Lock()
        self.spawn_lock = threading.Lock()
        self.ready = threading.Event()  # cleared while (re)spawning
        self.transport: Optional[WorkerTransport] = None
        self.respawns = 0
        self.spawn_failure: Optional[str] = None
        self.closed = False

    # -- lifecycle --

    def spawn(self) -> None:
        """Start (or restart) this slot's worker behind a fresh transport."""
        transport = WorkerTransport(
            self.index, self._on_disconnect, address=self.address, ctx=self.pool._ctx
        )
        with self.lock:
            if self.closed or self.pool._closed:
                raise WorkerCrashed(f"pool worker {self.index} is shut down")
            self.transport = transport
        transport.start()
        # Replay this shard's registrations before accepting requests, so
        # a respawned/reconnected worker is indistinguishable from the
        # original ...
        for registration in self.pool._registrations_for(self.index):
            transport.request("register", registration).result()
        # ... then the ingest deltas, in order, so it reconstructs the
        # same epoch chain as the workers that never died.  The worker
        # skips any delta it already holds (see ``WorkerPool.ingest``).
        for delta in self.pool._deltas_for(self.index):
            transport.request("triples", delta).result()
        self.spawn_failure = None
        self.ready.set()

    def _on_disconnect(self, transport: WorkerTransport) -> None:
        """The worker behind ``transport`` is gone: stop routing, respawn.

        The transport calls this before it fails its in-flight requests
        with :class:`WorkerCrashed`, so ``ready`` is already clear when a
        caller sees one fail; the respawn runs on its own thread, so
        those failures are not held behind it.
        """
        with self.lock:
            if transport is not self.transport:
                return  # a newer incarnation already took over
            if self.closed or self.pool._closed:
                return  # deliberate teardown, not a crash
            self.ready.clear()
        threading.Thread(
            target=self._respawn_after_crash, daemon=True, name=f"pool-respawn-{self.index}"
        ).start()

    def _respawn_after_crash(self) -> None:
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

    def _respawn_attempt(self) -> None:
        """One spawn retry; the caller holds ``spawn_lock``."""
        if (
            self.ready.is_set()
            or self.spawn_failure is None
            or self.closed
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
        while True:
            with self.lock:
                if self.closed or self.pool._closed:
                    raise WorkerCrashed(f"pool worker {self.index} is shut down")
                # Read under the lock that a disconnect clears ``ready``
                # under: a ready slot's transport has finished its replay,
                # so no request can overtake the replayed deltas.
                if self.ready.is_set():
                    transport = self.transport
                    break
            if self.spawn_failure is not None:
                # Reconnect on demand: a remote worker that was down when
                # the disconnect-path respawn ran may be back by now; local
                # slots get the same second chance after a failed fork.
                with self.spawn_lock:
                    self._respawn_attempt()
                if self.ready.is_set():
                    continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                reason = f": {self.spawn_failure}" if self.spawn_failure else ""
                raise WorkerCrashed(
                    f"pool worker {self.index} is not available "
                    f"(respawn pending{reason})"
                )
            self.ready.wait(timeout=min(0.5, remaining))
        return transport.request(op, payload)

    def alive(self) -> bool:
        transport = self.transport
        return (
            not self.closed
            and transport is not None
            and transport.alive()
            and self.ready.is_set()
        )

    def pid(self) -> Optional[int]:
        transport = self.transport
        return transport.pid() if transport is not None else None

    # -- teardown --

    def close(self) -> None:
        with self.lock:
            self.closed = True
            transport = self.transport
        self.ready.set()  # unblock waiters; they see closed and raise
        if transport is not None:
            transport.close(self.pool.parent_id)


@dataclass
class _PoolGraph:
    """Parent-side registration record (replayed on worker respawn)."""

    name: str
    kg: KnowledgeGraph
    warm: bool
    shards: List[int]
    mmap_dir: str
    checkpoints: List[str] = field(default_factory=list)
    # Ingest payloads in arrival order, ``seq`` numbering them from 1; a
    # respawned worker replays them after its registrations, so it
    # reconstructs the same epoch chain as the surviving workers.
    deltas: List[dict] = field(default_factory=list)
    rr: Iterator[int] = field(default_factory=itertools.count)


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
    remote_workers:
        ``HOST:PORT`` addresses of standalone ``repro serve-worker``
        processes.  Remote slots sit after the local slots in index
        order, answer the same ops over TCP bit-exactly, and are
        reconnected (never respawned) on failure — a remote worker owns
        its own lifecycle.

    The pool is a context manager; :meth:`close` terminates the workers.
    """

    def __init__(
        self,
        workers: int = 2,
        replicas: Optional[int] = None,
        remote_workers: Optional[Sequence[str]] = None,
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
        # Local workers fork from a clean, thread-free fork server where
        # the platform has one, so respawning during live traffic is safe.
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
        self.parent_id = uuid.uuid4().hex
        self._closed = False
        self._registry_lock = threading.Lock()
        self._graphs: Dict[str, _PoolGraph] = {}
        # Private artifact stores of in-memory registrations (see register).
        self._stores: List[str] = []
        self._stats_lock = threading.Lock()
        # Latest pulled snapshot per (graph, worker slot) ...
        self._graph_stats: Dict[Tuple[str, int], dict] = {}
        # ... plus cumulative counters inherited from dead incarnations of
        # each slot, so a respawn never makes /metrics counters step back.
        self._retired_stats: Dict[Tuple[str, int], dict] = {}
        self._workers: List[_WorkerSlot] = [
            _WorkerSlot(self, index) for index in range(workers)
        ]
        for address in remote_workers:
            self._workers.append(_WorkerSlot(self, len(self._workers), address))
        for slot in self._workers:
            slot.spawn()

    # -- context manager --

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

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

        The registration payload carries only an artifact-store *path*,
        and each owning worker memory-maps that store
        (``repro/kg/store.py``) instead of building artifacts itself.  With
        ``mmap_dir`` it is that store, and ``kg`` (recorded parent-side for
        metrics identity and conflict checks) should be its
        ``open_artifacts(mmap_dir).kg``.  Without it the graph is saved
        once to a private temporary store, which :meth:`close` removes;
        remote owners need ``mmap_dir``, since the path must resolve on
        their own filesystem.
        """
        with self._registry_lock:
            existing = self._graphs.get(name)
            if existing is not None:
                if existing.kg is not kg:
                    raise ValueError(
                        f"graph {name!r} is already registered with a different graph"
                    )
                return list(existing.shards)
            shards = replica_shards(name, self.num_workers, self.replicas)
            if mmap_dir is None:
                if any(self._workers[shard].address for shard in shards):
                    raise ValueError(
                        "remote workers register graphs by artifact path, not by "
                        "pickled graph; save the store with `repro build-artifacts` "
                        "and register with mmap_dir (serve --mmap-dir)"
                    )
                # Saved under the lock, so a respawn's replay never ships
                # the path before the store is written.  The copy shares
                # the graph's arrays but not its caches: the artifacts
                # built for the store are dropped once it is written.
                from repro.kg.store import save_artifacts

                mmap_dir = tempfile.mkdtemp(prefix="tosg-pool-")
                self._stores.append(mmap_dir)
                save_artifacts(copy.copy(kg), mmap_dir)
            record = _PoolGraph(name, kg, warm, shards, mmap_dir)
            self._graphs[name] = record
        futures = [
            self._workers[shard].request("register", self._registration_payload(record))
            for shard in shards
        ]
        for future in futures:
            future.result()
        return list(shards)

    def _registration_payload(self, record: _PoolGraph) -> dict:
        return {
            "name": record.name,
            # Respawn replays re-map the same file, so recovery is as
            # cheap as startup.
            "mmap_dir": record.mmap_dir,
            "warm": record.warm,
            # Names this parent to a standalone worker, which keeps one
            # set of shards (and epoch chains) per parent.
            "parent": self.parent_id,
            # Checkpoint paths ride the registration record, so a respawned
            # worker replays them and serves /predict like the original.
            "checkpoints": list(record.checkpoints),
        }

    def register_checkpoint(self, name: str, path: str) -> List[int]:
        """Ship the checkpoint at ``path`` to every worker serving ``name``.

        Only the *path* crosses the wire; owning workers register it in
        their own :class:`~repro.serve.registry.ModelRegistry` and load
        the parameters lazily.  The path also joins the graph's
        registration record, so respawned workers replay it.  Idempotent
        per path.  Returns the owning worker indices.
        """
        with self._registry_lock:
            record = self._record(name)
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
                delta
                for record in self._graphs.values()
                if index in record.shards
                for delta in record.deltas
            ]

    def ingest(self, name: str, triples, compact: bool) -> None:
        """Ship one ingest delta to every worker serving ``name`` (blocking).

        The *parent* decides whether this delta compacts (``compact``) and
        ships the decision, so every process's epoch chain stays in
        lockstep — epoch N means the same merged graph everywhere.  Called
        by the service **before** it applies the delta to its own
        :class:`~repro.kg.epoch.LiveGraph`, one ingest per graph at a
        time: once this returns, any ready worker can serve the new epoch.

        The delta joins the graph's replay log under the next sequence
        number before it is sent.  From then on an owner that crashes
        does not fail the ingest: its respawn (or reconnect) replays the
        log, and the sequence number makes the worker skip a delta that
        both the replay and this send deliver.
        """
        with self._registry_lock:
            record = self._record(name)
            payload = {
                "graph": name,
                "triples": triples,
                "compact": bool(compact),
                "seq": len(record.deltas) + 1,
            }
            record.deltas.append(payload)
            shards = list(record.shards)
        # An owner that crashed gets this delta from replay.
        futures = []
        for shard in shards:
            try:
                futures.append(self._workers[shard].request("triples", payload))
            except WorkerCrashed:
                pass
        for future in futures:
            try:
                future.result()
            except WorkerCrashed:
                pass

    def _record(self, name: str) -> _PoolGraph:
        """``name``'s registration record; the caller holds the registry lock."""
        record = self._graphs.get(name)
        if record is None:
            raise KeyError(f"graph {name!r} is not registered with the pool")
        return record

    def shards_of(self, name: str) -> List[int]:
        """The worker indices serving graph ``name``."""
        with self._registry_lock:
            record = self._record(name)
            return list(record.shards)

    # -- requests -------------------------------------------------------------

    def _route(self, graph: str) -> _WorkerSlot:
        with self._registry_lock:
            record = self._record(graph)
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
            if slot.ready.is_set():
                return slot
            slot.kick_respawn()
        return ordered[0]

    def call(self, op: str, payload: dict, timeout: Optional[float] = None) -> Any:
        """Route one op to an owning worker and block for its result.

        Runs on a plain thread (the service drives it via
        ``asyncio.to_thread``); raises what the worker raised for client
        errors, :class:`WorkerCrashed` if the worker died mid-request.
        """
        if self._closed:
            raise WorkerCrashed("worker pool is closed")
        slot = self._route(payload["graph"])
        return slot.request(op, payload).result(timeout=timeout)

    def ping(self, index: int, timeout: Optional[float] = 30.0) -> str:
        """Liveness probe of one worker slot (used by tests and smoke checks)."""
        return self._workers[index].request("ping", {}).result(timeout=timeout)

    # -- observability --------------------------------------------------------

    #: Monotonic counters carried over from dead worker incarnations.
    #: ``nbytes`` is deliberately absent: it is a resident-memory gauge,
    #: and a dead process's memory is gone.
    _ARTIFACT_COUNTERS = ("hits", "builds")
    _ENDPOINT_COUNTERS = ("requests", "rows_returned", "bytes_raw", "bytes_shipped")
    #: Counters of each retained-kernel cache; its ``entries`` is a gauge.
    _LIVE_CACHE_COUNTERS = ("hits", "misses", "invalidated")

    def _pull_stats(self, name: str) -> None:
        """Ask each ready owner of ``name`` for its counters; an owner that
        is not ready (or does not answer in time) keeps its last snapshot."""
        pending = []
        for index in self.shards_of(name):
            slot = self._workers[index]
            transport = slot.transport
            if slot.ready.is_set() and transport is not None:
                try:
                    pending.append((index, transport.request("stats", {"graph": name})))
                except WorkerCrashed:
                    pass
        for index, future in pending:
            try:
                snapshot = future.result(timeout=SHUTDOWN_GRACE_SECONDS)
            except (WorkerCrashed, KeyError, concurrent.futures.TimeoutError):
                continue
            with self._stats_lock:
                self._graph_stats[(name, index)] = snapshot

    def _counters(self, snapshots: List[dict]) -> dict:
        """The monotonic counters of ``snapshots``, summed per key."""
        caches: Dict[str, dict] = {}
        for snapshot in snapshots:
            for cache, counters in snapshot.get("live", {}).items():
                total = caches.setdefault(
                    cache, dict.fromkeys(("entries", *self._LIVE_CACHE_COUNTERS), 0)
                )
                for counter in self._LIVE_CACHE_COUNTERS:
                    total[counter] += counters[counter]
        return {
            "artifact_cache": {
                key: sum(s["artifact_cache"][key] for s in snapshots)
                for key in self._ARTIFACT_COUNTERS
            },
            "endpoint": {
                key: sum(s["endpoint"][key] for s in snapshots)
                for key in self._ENDPOINT_COUNTERS
            },
            "live": caches,
        }

    def _retire_worker_stats(self, worker_index: int) -> None:
        """Fold a dead incarnation's counters into the slot's retired base."""
        with self._stats_lock:
            for key in [k for k in self._graph_stats if k[1] == worker_index]:
                folded = [self._graph_stats.pop(key)]
                if key in self._retired_stats:
                    folded.append(self._retired_stats[key])
                self._retired_stats[key] = self._counters(folded)

    def graph_stats(self, name: str) -> dict:
        """Worker-side artifact/endpoint stats of ``name``, summed over owners.

        Pulled from the ready owners on every call.  Counters
        sum each owning worker's latest snapshot plus the
        retired counters of that slot's dead incarnations (so respawns
        never step a counter backwards); ``nbytes`` sums live snapshots
        only — it is a gauge.  ``mapped_nbytes`` is the **max** (not sum)
        across live workers: memory-mapped artifact pages are physically
        shared by every worker mapping the same file, so summing would
        count the same pages once per worker.  With replication every
        worker builds its own artifacts, so ``builds`` counts per-worker
        construction, as documented in ``docs/serving.md``.  ``live`` holds
        the owners' retained-kernel cache counters (``ppr_cache``,
        ``ego_cache``, ``paths_cache``), merged the same way; their
        ``entries`` gauge sums the live snapshots only.  ``bytes_raw``
        stays for the service's ratio over its merged byte counters.
        """
        self._pull_stats(name)
        with self._stats_lock:
            live = [value for (graph, _), value in self._graph_stats.items() if graph == name]
            retired = [
                value for (graph, _), value in self._retired_stats.items() if graph == name
            ]
        merged = self._counters(live + retired)
        merged["artifact_cache"]["nbytes"] = sum(
            s["artifact_cache"]["nbytes"] for s in live
        )
        merged["artifact_cache"]["mapped_nbytes"] = max(
            (s["artifact_cache"]["mapped_nbytes"] for s in live), default=0
        )
        for snapshot in live:
            for cache, counters in snapshot.get("live", {}).items():
                merged["live"][cache]["entries"] += counters["entries"]
        return merged

    def worker_pids(self) -> List[Optional[int]]:
        """Current PID per worker slot (None while respawning, and for
        remote slots — their process lives on another machine)."""
        return [slot.pid() for slot in self._workers]

    def describe(self) -> dict:
        """Pool configuration + health as one JSON-serializable dict."""
        with self._registry_lock:
            graphs = {name: list(record.shards) for name, record in self._graphs.items()}
        return {
            "workers": self.num_workers,
            "replicas": self.replicas,
            "start_method": self.start_method,
            "transports": [
                "local" if slot.address is None else "remote" for slot in self._workers
            ],
            "alive": [slot.alive() for slot in self._workers],
            "respawns": sum(slot.respawns for slot in self._workers),
            # Per-slot reason when a respawn itself failed (None = healthy);
            # a persistently dead slot is diagnosable from /metrics alone.
            "spawn_failures": [slot.spawn_failure for slot in self._workers],
            "graphs": graphs,
        }

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Say goodbye to every worker, then drop the links (idempotent).

        A local worker exits on its goodbye; a standalone ``serve-worker``
        drops this parent's shards and keeps serving other parents.  The
        private stores go last, once no worker maps them.  The workers'
        final counters stay readable through :meth:`graph_stats`.
        """
        if self._closed:
            return
        with self._registry_lock:
            names = list(self._graphs)
        for name in names:
            self._pull_stats(name)
        self._closed = True
        for slot in self._workers:
            slot.close()
        for store in self._stores:
            shutil.rmtree(store, ignore_errors=True)

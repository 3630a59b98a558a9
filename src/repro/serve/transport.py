"""Transport layer: how pool requests reach a worker, wherever it runs.

The pool (``serve/pool.py``) owns a fixed set of worker slots and their
lifecycle; this module is the wire beneath it:

* **The executor** (:class:`WorkerServer` over one :class:`GraphShard`
  per graph): every worker, pool child or standalone, answers ops
  through it one at a time; the in-process service runs the same
  :meth:`GraphShard.execute` on its own shards.
* **:class:`WorkerTransport`** — the parent-side interface the pool's
  lifecycle layer orchestrates: ``start()`` / ``request()`` (future per
  op) / ``close()``, plus a disconnect callback so a dead peer surfaces
  as structured :class:`WorkerCrashed` failures and a respawn/reconnect
  decision in the pool, identically for both implementations.
* **:class:`LocalProcessTransport`** — the classic same-machine worker:
  a ``multiprocessing`` child connected by a pipe, python objects
  (parameters out, numpy buffers back) crossing via pickle.
* **:class:`RemoteTcpTransport`** — the distributed tier: the same ops
  as newline-delimited JSON frames over TCP to a standalone
  ``repro serve-worker`` process (possibly on another machine), reusing
  the framing/pipelining core in ``serve/wire.py`` on the server side.
  Results cross as the front ends' own JSON and are rebuilt by each
  op's declared decoder; JSON floats round-trip exactly, so remote
  answers stay **bit-exact** with local ones.

Remote registration ships *paths*, never graphs: a remote worker maps
``--mmap-dir`` artifacts (``repro build-artifacts``) from its own
filesystem, so registration and respawn replay cost O(header) on any
machine and a pickled multi-GiB graph never crosses the network.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.kg.cache import artifacts_for
from repro.kg.epoch import LiveGraph
from repro.models.shadowsaint import _EgoGraph
from repro.serve.kernels import WINDOWS
from repro.serve.registry import ModelRegistry
from repro.sparql.endpoint import SparqlEndpoint
from repro.sparql.executor import ResultSet

__all__ = [
    "GraphShard",
    "LocalProcessTransport",
    "RemoteTcpTransport",
    "WorkerCrashed",
    "WorkerError",
    "WorkerServer",
    "WorkerTransport",
    "serve_worker",
]

#: Seconds a remote transport waits for the TCP connect + liveness probe.
CONNECT_TIMEOUT_SECONDS = 10.0


def _max_line_bytes() -> int:
    # Same frame bound as every other wire surface.  Imported lazily:
    # ``serve/wire.py`` imports the service (which imports the pool, which
    # imports this module), so a module-level import would be circular.
    from repro.serve.wire import MAX_LINE_BYTES

    return MAX_LINE_BYTES

#: Seconds ``close()`` gives a local worker to exit cleanly before
#: terminating it.
SHUTDOWN_GRACE_SECONDS = 5.0

#: Seconds a crashed local worker's reader waits to learn its exit code.
CRASH_JOIN_SECONDS = 1.0


# -- errors -------------------------------------------------------------------


class WorkerCrashed(RuntimeError):
    """A worker died with this request in flight (or is not reachable).

    The pool respawns/reconnects the worker and replays its
    registrations; the *request* is not retried — retrying is the
    caller's decision, exactly like
    :class:`~repro.serve.service.ServiceOverloaded` rejections.
    """


class WorkerError(RuntimeError):
    """A worker-side failure that is not a client error (server fault)."""


#: Worker-side exception types re-raised as the same type in the parent so
#: the front ends map them to the same status codes as in-process serving
#: (ValueError/KeyError -> 400/404, SparqlSyntaxError -> 400 invalid SPARQL).
_CLIENT_ERRORS = {"ValueError": ValueError, "TypeError": TypeError, "KeyError": KeyError}


def _reraise(type_name: str, message: str) -> Exception:
    if type_name == "SparqlSyntaxError":
        from repro.sparql.parser import SparqlSyntaxError

        return SparqlSyntaxError(message)
    client_type = _CLIENT_ERRORS.get(type_name)
    if client_type is not None:
        return client_type(message)
    return WorkerError(f"{type_name}: {message}")


# -- the shard executor (pool workers and the in-process service) --------------


#: Query op -> the ``SparqlEndpoint`` method that answers it.  Streamed
#: ``/sparql`` evaluates once (one request in the endpoint's stats); the
#: serving process cuts and accounts its pages.
QUERY_OPS = {"sparql": "query", "sparql_stream": "evaluate_stream", "count": "count"}


class GraphShard:
    """One graph as an executor holds it.

    ``live`` is the graph's epoch chain, ``endpoint`` its SPARQL endpoint
    on the current epoch, ``registry`` the model registry answering its
    predict windows, and ``seq`` the sequence number of the last ingest
    delta applied (deltas are numbered per graph from 1).
    """

    __slots__ = ("live", "endpoint", "registry", "seq")

    def __init__(
        self,
        kg,
        compression: bool,
        registry: Optional[ModelRegistry] = None,
        compact_every: int = 0,
    ):
        self.live = LiveGraph(kg, compact_every=compact_every)
        self.endpoint = SparqlEndpoint(kg, compression=compression)
        self.registry = registry if registry is not None else ModelRegistry()
        self.seq = 0

    @property
    def kg(self):
        """The current epoch's merged graph."""
        return self.live.kg

    def execute(self, op: str, payload: dict) -> Any:
        """Run one graph op; coalesced windows run their declaration."""
        window = WINDOWS.get(op)
        if window is not None:
            return window.run(self.live, self.registry, payload)
        if op == "triples":
            return self.ingest(payload)
        if op in QUERY_OPS:
            return getattr(self.endpoint, QUERY_OPS[op])(payload["query"])
        raise ValueError(f"unknown pool op {op!r}")

    def ingest(self, payload: dict) -> dict:
        """Apply delta ``payload["seq"]`` unless it is already applied.

        A delta arrives twice when a respawn's replay overlaps the live
        send, or when a reconnect replays the log to a worker that kept
        its state: applying it twice would fork the epoch chain.  The new
        epoch gets an endpoint (lifetime stats carried forward) and the
        registry drops built state of older epochs.
        """
        seq = int(payload["seq"])
        if seq <= self.seq:
            # An empty ingest changes nothing and reports the current epoch.
            return self.live.ingest(np.empty((0, 3), dtype=np.int64))
        if seq != self.seq + 1:
            raise ValueError(
                f"delta {seq} of graph {payload['graph']!r} skips ahead: this "
                f"worker applied deltas up to {self.seq}"
            )
        result = self.live.ingest(payload["triples"], compact=payload["compact"])
        self.seq = seq
        if result["added"]:
            endpoint = SparqlEndpoint(self.live.kg, compression=self.endpoint.compression)
            endpoint.stats = self.endpoint.stats  # counters survive the epoch bump
            self.endpoint = endpoint
            self.registry.invalidate_graph(
                payload["graph"], keep_epoch=int(result["epoch"])
            )
        return result

    def stats(self) -> dict:
        """Artifact-cache, endpoint and retained-kernel cache counters.

        ``nbytes`` is per-process resident memory; ``mapped_nbytes`` the
        shared file-backed footprint (counted once, never per worker).
        """
        artifacts = artifacts_for(self.kg)
        return {
            "artifact_cache": {
                "hits": artifacts.hits,
                "builds": artifacts.builds,
                "nbytes": artifacts.nbytes(),
                "mapped_nbytes": artifacts.mapped_nbytes(),
            },
            "endpoint": {
                counter: getattr(self.endpoint.stats, counter)
                for counter in ("requests", "rows_returned", "bytes_raw", "bytes_shipped")
            },
            "live": self.live.cache_stats(),
        }


def _register(shards: Dict[str, GraphShard], payload: dict) -> List[str]:
    name = payload["name"]
    shard = shards.get(name)
    if shard is None:
        kg = payload.get("kg")
        if kg is None:
            # Zero-copy startup: map the saved artifact store instead of
            # unpickling a shipped graph + rebuilding indices.  Every
            # worker mapping the same file shares its physical pages.
            from repro.kg.store import open_artifacts

            kg = open_artifacts(payload["mmap_dir"]).kg
        shards[name] = shard = GraphShard(kg, payload["compression"])
    # Checkpoints ride the registration payload by *path* (respawn
    # replays re-read the same files); models load lazily on the first
    # predict window that reaches this worker.
    for checkpoint in payload.get("checkpoints", ()):
        shard.registry.add(name, checkpoint, expected_graph=shard.kg.name)
    if payload.get("warm"):
        artifacts_for(shard.kg).warm()
    return sorted(shards)


class WorkerServer:
    """One worker's executor: its shards, one set per parent.

    Pool children (:func:`_worker_main`) and standalone ``repro
    serve-worker`` processes (:func:`serve_worker`) answer through it one
    request at a time: a worker is a shard, and the lockstep-ingest
    contract (no request interleaves with a half-applied delta) depends
    on serial execution.  Each registration names its parent (the pool's
    ``parent_id``) and its connection then runs against that parent's
    shards, so a parent only ever sees the epoch chain its own deltas
    built, and finds it again when it reconnects.  A graph pre-registered
    from the CLI is mapped once; each parent registering that name starts
    its own chain on it at O(1) cost.
    """

    def __init__(self) -> None:
        self._shards: Dict[Optional[str], Dict[str, GraphShard]] = {}
        self._preloaded: Dict[str, dict] = {}
        self._execute_lock = threading.Lock()

    def register_local(self, payload: dict) -> List[str]:
        """Pre-register a graph from the CLI (same payload as the wire op)."""
        with self._execute_lock:
            scratch: Dict[str, GraphShard] = {}
            _register(scratch, payload)  # maps, warms, reads checkpoint headers
            name = payload["name"]
            self._preloaded[name] = dict(payload, kg=scratch[name].kg)
            return sorted(self._preloaded)

    def graphs(self) -> List[str]:
        with self._execute_lock:
            return sorted(set(self._preloaded).union(*self._shards.values()))

    def execute(
        self, op: str, payload: dict, parent: Optional[str] = None
    ) -> Tuple[Any, Optional[dict]]:
        """One op of ``parent`` → (result, the stats of the graph it names)."""
        with self._execute_lock:
            shards = self._shards.setdefault(parent, {})
            name = payload.get("graph") or payload.get("name")
            if op == "ping":
                result = "pong"
            elif op == "sleep":  # diagnostics/tests: hold the worker busy
                time.sleep(float(payload["seconds"]))
                result = None
            elif op == "register":
                if name not in shards and name in self._preloaded:
                    _register(shards, self._preloaded[name])
                result = _register(shards, payload)
            elif name in shards:
                result = shards[name].execute(op, payload)
            else:
                raise KeyError(f"graph {name!r} is not registered on this worker")
            shard = shards.get(name)
            return result, None if shard is None else {"graph": name, **shard.stats()}


def _worker_main(conn, worker_index: int) -> None:
    """Entry point of one local worker process: serial recv/execute/send.

    Parallelism comes from the number of workers, each one
    :class:`WorkerServer`.
    """
    server = WorkerServer()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # parent is gone; daemonic exit
        request_id, op, payload = message
        if op == "shutdown":
            try:
                conn.send((request_id, "ok", None, None))
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
            break
        try:
            response = (request_id, "ok", *server.execute(op, payload))
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            response = (request_id, "error", (type(exc).__name__, str(exc)), None)
        try:
            conn.send(response)
        except (BrokenPipeError, OSError):  # pragma: no cover - parent died
            break
    conn.close()


# -- JSON codec for the remote wire -------------------------------------------
#
# The remote protocol is newline-delimited JSON: requests
# ``{"id", "op", "payload"}`` out, responses ``{"id", "status", "result",
# "stats"}`` back.


def _json_default(value: Any) -> Any:
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def encode_frame(message: dict) -> bytes:
    """One wire frame: compact JSON + newline, bounded by the line limit."""
    data = (
        json.dumps(message, separators=(",", ":"), default=_json_default) + "\n"
    ).encode("utf-8")
    limit = _max_line_bytes()
    if len(data) > limit:
        raise ValueError(f"wire frame of {len(data)} bytes exceeds {limit}")
    return data


def check_remote_payload(op: str, payload: dict) -> None:
    """Reject payloads that must never cross the remote wire."""
    if op == "register" and "kg" in payload:
        raise ValueError(
            "remote workers register graphs by artifact path, not by pickled "
            "graph; save the store with `repro build-artifacts` and register "
            "with mmap_dir (serve --mmap-dir)"
        )
    if op in QUERY_OPS and not isinstance(
        payload.get("query"), str
    ):
        raise TypeError(
            f"op {op!r} over the remote transport requires the query as a "
            "string (parsed ASTs do not cross the wire)"
        )


def result_payload(result: Any) -> Any:
    """JSON-encode one op's result, or one answer of a window op: the one
    encoding both front ends answer with and remote workers ship."""
    if type(result) is ResultSet:
        return {
            "variables": list(result.variables),
            "columns": {
                variable: result.columns[variable].tolist()
                for variable in result.variables
            },
            "num_rows": int(result.num_rows),
        }
    if type(result) is _EgoGraph:
        return {
            "nodes": result.nodes.tolist(),
            "src": result.src.tolist(),
            "dst": result.dst.tolist(),
            "rel": result.rel.tolist(),
        }
    if isinstance(result, list) and result and isinstance(result[0], tuple):
        # ppr top-k [(node, score), ...]
        return [[int(node), float(score)] for node, score in result]
    return result


def encode_result(op: str, result: Any) -> Any:
    """Worker-side: one op's result in the front ends' JSON form."""
    if op in WINDOWS:
        return [result_payload(answer) for answer in result]
    return result_payload(result)


def decode_result(op: str, result: Any) -> Any:
    """Parent-side: rebuild the in-process result from its JSON form."""
    window = WINDOWS.get(op)
    if window is not None:
        return [window.decode(answer) for answer in result] if window.decode else result
    if op in ("sparql", "sparql_stream"):
        return ResultSet(
            list(result["variables"]),
            {
                variable: np.asarray(result["columns"][variable], dtype=np.int64)
                for variable in result["variables"]
            },
        )
    return result


# -- parent-side transports ---------------------------------------------------

#: ``on_stats(worker_index, stats)`` records a piggybacked stats snapshot.
StatsSink = Callable[[int, dict], None]
#: ``on_disconnect(transport)`` tells the lifecycle layer the peer is gone.
DisconnectSink = Callable[["WorkerTransport"], None]


class WorkerTransport:
    """Parent-side channel to one worker (one incarnation of one slot).

    A transport is single-incarnation: ``start()`` once, ``request()``
    until the peer dies or ``close()``; the pool's lifecycle layer builds
    a *new* transport to respawn/reconnect a slot, so "is this disconnect
    stale?" is an identity check, never a state machine.  All methods are
    thread-safe; ``request`` returns a future resolved off-thread by the
    transport's reader.
    """

    kind = "?"

    def __init__(self, index: int, on_stats: StatsSink, on_disconnect: DisconnectSink):
        self.index = index
        self.closed = False
        self._on_stats = on_stats
        self._on_disconnect = on_disconnect
        self._lock = threading.Lock()
        self._inflight: Dict[int, Tuple[str, concurrent.futures.Future]] = {}
        self._request_ids = itertools.count()

    # -- interface --

    def start(self) -> None:
        """Spawn/connect the worker; blocking until it answers."""
        raise NotImplementedError

    def request(self, op: str, payload: dict) -> concurrent.futures.Future:
        """Send one op; the returned future resolves off-thread."""
        raise NotImplementedError

    def close(self) -> None:
        """Tear down the channel (and, for local workers, the process)."""
        raise NotImplementedError

    def alive(self) -> bool:
        raise NotImplementedError

    def pid(self) -> Optional[int]:
        """Worker process id when it runs on this machine (else None)."""
        return None

    def describe(self) -> dict:
        return {"kind": self.kind}

    # -- shared bookkeeping --

    def _track(self, op: str) -> Tuple[int, concurrent.futures.Future]:
        future: concurrent.futures.Future = concurrent.futures.Future()
        with self._lock:
            request_id = next(self._request_ids)
            self._inflight[request_id] = (op, future)
        return request_id, future

    def _untrack(self, request_id: int) -> Optional[Tuple[str, concurrent.futures.Future]]:
        with self._lock:
            return self._inflight.pop(request_id, None)

    def _deliver(self, request_id, ok: bool, result, stats, decode=None) -> None:
        """Resolve one response's future; ``result`` is ``(type, message)``
        for an error.  Piggybacked ``stats`` are recorded either way."""
        if stats is not None:
            self._on_stats(self.index, stats)
        entry = self._untrack(request_id)
        if entry is None:
            return  # request already failed (e.g. during close)
        op, future = entry
        if not ok:
            future.set_exception(_reraise(*result))
            return
        try:
            future.set_result(result if decode is None else decode(op, result))
        except Exception as exc:  # malformed result payload
            future.set_exception(WorkerError(f"undecodable {op!r} result: {exc}"))

    def _fail_inflight(self, reason: str = "") -> None:
        with self._lock:
            stale = list(self._inflight.values())
            self._inflight = {}
        for _op, future in stale:
            if not future.done():
                future.set_exception(
                    WorkerCrashed(
                        f"pool worker {self.index} died with this request in "
                        f"flight{reason}"
                    )
                )


class LocalProcessTransport(WorkerTransport):
    """The classic same-machine worker: mp child + pipe + reader thread.

    Python objects cross via pickle (parameters out, numpy buffers back);
    a dedicated reader thread blocks on the pipe and resolves futures, so
    the pool works from plain threads (``asyncio.to_thread``) and from
    synchronous code without an event loop.
    """

    kind = "local"

    def __init__(
        self,
        ctx,
        index: int,
        on_stats: StatsSink,
        on_disconnect: DisconnectSink,
    ):
        super().__init__(index, on_stats, on_disconnect)
        self._ctx = ctx
        self.process = None
        self.conn = None
        self.reader: Optional[threading.Thread] = None

    def start(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.index),
            name=f"tosg-pool-worker-{self.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.process = process
        self.conn = parent_conn
        reader = threading.Thread(
            target=self._read_loop,
            args=(parent_conn,),
            name=f"tosg-pool-reader-{self.index}",
            daemon=True,
        )
        self.reader = reader
        reader.start()

    def _read_loop(self, conn) -> None:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError, ValueError, TypeError):
                # EOF/OSError: the worker died or the pipe closed.
                # ValueError/TypeError: close() invalidated the connection
                # object while this thread was blocked inside recv().
                break
            request_id, status, result, stats = message
            self._deliver(request_id, status == "ok", result, stats)
        reason = ""
        if not self.closed:
            # The pipe closes when the child exits; name how it exited
            # (e.g. -9: SIGKILL, as from the kernel's OOM killer).
            self.process.join(timeout=CRASH_JOIN_SECONDS)
            reason = f" (exitcode {self.process.exitcode})"
        self._fail_inflight(reason)
        self._on_disconnect(self)

    def request(self, op: str, payload: dict) -> concurrent.futures.Future:
        with self._lock:
            if self.closed:
                raise WorkerCrashed(f"pool worker {self.index} is shut down")
            conn = self.conn
            request_id = next(self._request_ids)
            future: concurrent.futures.Future = concurrent.futures.Future()
            self._inflight[request_id] = (op, future)
            try:
                conn.send((request_id, op, payload))
            except (BrokenPipeError, OSError, ValueError):
                self._inflight.pop(request_id, None)
                raise WorkerCrashed(
                    f"pool worker {self.index} pipe is closed"
                ) from None
        return future

    def alive(self) -> bool:
        return (
            not self.closed
            and self.process is not None
            and self.process.is_alive()
        )

    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    def close(self) -> None:
        with self._lock:
            self.closed = True
            conn, process = self.conn, self.process
        if conn is not None:
            try:
                conn.send((next(self._request_ids), "shutdown", {}))
            except (BrokenPipeError, OSError, ValueError):
                pass
        if process is not None:
            process.join(timeout=SHUTDOWN_GRACE_SECONDS)
            if process.is_alive():  # pragma: no cover - unresponsive worker
                process.terminate()
                process.join(timeout=SHUTDOWN_GRACE_SECONDS)
        if conn is not None:
            conn.close()


class RemoteTcpTransport(WorkerTransport):
    """A standalone ``repro serve-worker`` over newline-delimited JSON/TCP.

    Requests ship as ``{"id", "op", "payload"}`` lines; the worker answers
    ``{"id", "status", "result", "stats"}`` in any order (the id pairs
    them), and a reader thread resolves futures exactly like the local
    pipe transport — the pool cannot tell the two apart above this layer.

    ``close()`` drops only the connection: a remote worker is its own
    process with its own lifecycle (it may serve other parents), so the
    pool never stops it — reconnecting is the respawn path.
    """

    kind = "remote"

    def __init__(
        self,
        address: str,
        index: int,
        on_stats: StatsSink,
        on_disconnect: DisconnectSink,
    ):
        super().__init__(index, on_stats, on_disconnect)
        host, _, port_text = address.rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            port = -1
        if not host or not (0 < port < 65536):
            raise ValueError(
                f"remote worker address must be HOST:PORT, got {address!r}"
            )
        self.address = address
        self._host = host
        self._port = port
        self._sock: Optional[socket.socket] = None
        self._rfile = None
        self._send_lock = threading.Lock()
        self.reader: Optional[threading.Thread] = None

    def start(self) -> None:
        sock = socket.create_connection(
            (self._host, self._port), timeout=CONNECT_TIMEOUT_SECONDS
        )
        sock.settimeout(None)
        self._sock = sock
        self._rfile = sock.makefile("rb")
        reader = threading.Thread(
            target=self._read_loop,
            args=(self._rfile,),
            name=f"tosg-remote-reader-{self.index}",
            daemon=True,
        )
        self.reader = reader
        reader.start()
        # Liveness probe: a refused/ dead endpoint fails here, inside the
        # caller's spawn path, instead of on the first routed request.
        self.request("ping", {}).result(timeout=CONNECT_TIMEOUT_SECONDS)

    def request(self, op: str, payload: dict) -> concurrent.futures.Future:
        if self.closed:
            raise WorkerCrashed(f"pool worker {self.index} is shut down")
        check_remote_payload(op, payload)
        request_id, future = self._track(op)
        try:
            data = encode_frame({"id": request_id, "op": op, "payload": payload})
        except (TypeError, ValueError):
            self._untrack(request_id)
            raise
        try:
            with self._send_lock:
                self._sock.sendall(data)
        except (OSError, AttributeError):
            self._untrack(request_id)
            raise WorkerCrashed(
                f"pool worker {self.index} connection to "
                f"{self.address} is closed"
            ) from None
        return future

    def _read_loop(self, rfile) -> None:
        while True:
            try:
                line = rfile.readline(_max_line_bytes() + 1)
            except (OSError, ValueError):
                break
            if not line or not line.endswith(b"\n"):
                break  # EOF, peer reset, or an over-long/truncated frame
            try:
                message = json.loads(line)
            except ValueError:
                break  # protocol corruption: treat the peer as gone
            if not isinstance(message, dict):
                break
            ok, result = message.get("status") == "ok", message.get("result")
            if not ok:
                error = result or ["WorkerError", "unspecified"]
                result = (str(error[0]), str(error[1]))
            self._deliver(message.get("id"), ok, result, message.get("stats"), decode_result)
        self._fail_inflight()
        self._on_disconnect(self)

    def alive(self) -> bool:
        return (
            not self.closed and self.reader is not None and self.reader.is_alive()
        )

    def close(self) -> None:
        # Drop the link only — the standalone worker keeps running.
        with self._lock:
            self.closed = True
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass

    def describe(self) -> dict:
        return {"kind": "remote", "address": self.address}


# -- the standalone worker server (`repro serve-worker`) ----------------------


@dataclass
class _WireFrame:
    """One parsed request line (or a framing error that closes the link)."""

    request_id: Any = None
    op: Optional[str] = None
    payload: dict = field(default_factory=dict)
    error: Optional[str] = None
    last: bool = False


async def _read_wire_frame(reader: asyncio.StreamReader) -> Optional[_WireFrame]:
    """Read one ndjson frame; None at EOF; error frames answer + close.

    Wire hardening, mirroring the front ends: an over-long line and
    unparseable bytes each produce one structured error response and then
    close the connection (resynchronizing inside a corrupt byte stream is
    guesswork); a partial frame at EOF is dropped without dispatching —
    half a request must never execute.
    """
    try:
        line = await reader.readline()
    except ValueError:
        return _WireFrame(
            error=f"frame exceeds {_max_line_bytes()} bytes", last=True
        )
    if not line:
        return None
    if not line.endswith(b"\n"):
        return None  # partial frame at EOF: drop, never dispatch
    try:
        message = json.loads(line)
    except ValueError:
        return _WireFrame(error="invalid JSON frame", last=True)
    if not isinstance(message, dict) or not isinstance(message.get("op"), str):
        return _WireFrame(
            error="frame must be a JSON object with a string 'op'", last=True
        )
    payload = message.get("payload", {})
    if not isinstance(payload, dict):
        return _WireFrame(error="'payload' must be a JSON object", last=True)
    return _WireFrame(
        request_id=message.get("id"), op=message["op"], payload=payload
    )


async def _write_wire_response(writer: asyncio.StreamWriter, response: dict) -> None:
    writer.write(encode_frame(response))
    await writer.drain()


async def serve_worker(
    server: WorkerServer,
    host: str = "127.0.0.1",
    port: int = 0,
) -> asyncio.AbstractServer:
    """Serve ``server`` over ndjson TCP; ``port=0`` picks a free port.

    Reuses :func:`~repro.serve.wire.serve_pipelined`: pipelined frames on
    one connection are parsed concurrently and answered strictly in
    order, while execution itself stays serial in :class:`WorkerServer`.
    """

    async def handler(reader, writer):
        from repro.serve.wire import serve_pipelined

        parent = None  # named by this connection's registrations

        async def respond(frame: _WireFrame) -> dict:
            nonlocal parent
            if frame.error is not None:
                return {
                    "id": frame.request_id,
                    "status": "error",
                    "result": ["BadRequest", frame.error],
                }
            if frame.op == "register":
                parent = frame.payload.get("parent")
            try:
                result, stats = await asyncio.to_thread(
                    server.execute, frame.op, frame.payload, parent
                )
                response = {
                    "id": frame.request_id,
                    "status": "ok",
                    "result": encode_result(frame.op, result),
                }
                if stats is not None:
                    response["stats"] = stats
                return response
            except BaseException as exc:  # noqa: BLE001 - shipped to the parent
                return {
                    "id": frame.request_id,
                    "status": "error",
                    "result": [type(exc).__name__, str(exc)],
                }

        await serve_pipelined(
            reader,
            writer,
            read_frame=_read_wire_frame,
            respond=respond,
            write_response=_write_wire_response,
        )

    return await asyncio.start_server(
        handler, host, port, limit=_max_line_bytes()
    )

"""Transport layer: how pool requests reach a worker, wherever it runs.

The pool (``serve/pool.py``) owns a fixed set of worker slots and their
lifecycle; this module is the wire beneath it:

* **The executor** (:class:`WorkerServer` over one :class:`GraphShard`
  per graph): every worker, pool child or standalone, answers ops
  through it one at a time; the in-process service runs the same
  :meth:`GraphShard.execute` on its own shards.
* **One wire.** Every hop is length-prefixed JSON frames over a
  :class:`multiprocessing.connection.Connection`: requests
  ``{"id", "op", "payload"}`` out, responses ``{"id", "status",
  "result"}`` back.  Results cross as the front ends' own JSON and are
  rebuilt by each op's declared decoder; JSON floats round-trip exactly,
  so pooled answers stay **bit-exact** with in-process ones.
* **One parent side** (:class:`WorkerTransport`): ``start()`` /
  ``request()`` (future per op) / ``close()`` and a reader thread, the
  same code for a local ``multiprocessing`` child (a ``Pipe``, on Linux
  an AF_UNIX socket pair) and a standalone ``repro serve-worker`` (a TCP
  socket, possibly on another machine).
* **One worker loop** (:func:`_serve_connection`): a pool child runs it
  on its pipe; ``repro serve-worker`` (:class:`WorkerListener`) runs it
  on one thread per accepted connection.  Registration ships an
  artifact-store *path* the worker maps, so registration and respawn
  replay cost O(header) on any machine.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import json
import os
import socket
import struct
import threading
import time
from multiprocessing.connection import Connection
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
    "WorkerCrashed",
    "WorkerError",
    "WorkerListener",
    "WorkerServer",
    "WorkerTransport",
]

# One request frame is bounded on every wire surface (queries are short);
# a huge line/header/frame is a client bug, not a reason to buffer
# without limit.
MAX_LINE_BYTES = 1 << 20

#: Seconds a transport waits for the TCP connect + liveness probe.
CONNECT_TIMEOUT_SECONDS = 10.0

#: Seconds ``close()`` gives a worker to answer its goodbye (and a local
#: worker to exit) before the link is torn down regardless.
SHUTDOWN_GRACE_SECONDS = 5.0

#: Seconds a crashed local worker's reader waits to learn its exit code.
CRASH_JOIN_SECONDS = 1.0

#: Seconds a standalone worker keeps the shards of a parent whose
#: connections all closed without a goodbye; the next registration after
#: that drops them.
PARENT_IDLE_SECONDS = 600.0


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
        if op == "stats":
            return self.stats()
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


def _register(shards: Dict[str, GraphShard], payload: dict, kg=None) -> List[str]:
    name = payload["name"]
    shard = shards.get(name)
    if shard is None:
        if kg is None:
            # Map the saved artifact store: every worker mapping the same
            # file shares its physical pages, and nothing is rebuilt.
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

    Every worker answers through it one request at a time: a worker is a
    shard, and the lockstep-ingest contract (no request interleaves with
    a half-applied delta) depends on serial execution.  Each registration
    names its parent (the pool's ``parent_id``) and its connection then
    runs against that parent's shards, so a parent only ever sees the
    epoch chain its own deltas built, and finds it again when it
    reconnects.  A ``goodbye`` drops the parent's shards; the shards of a
    parent whose connections all closed without one are dropped at the
    first registration after :data:`PARENT_IDLE_SECONDS`.  A graph
    pre-registered from the CLI is mapped once; each parent registering
    that name starts its own chain on it at O(1) cost.
    """

    def __init__(self) -> None:
        self._shards: Dict[Optional[str], Dict[str, GraphShard]] = {}
        self._preloaded: Dict[str, Tuple[dict, Any]] = {}
        # Open connections per parent, and when each idle parent's last
        # connection closed.
        self._links: Dict[str, int] = {}
        self._idle_since: Dict[str, float] = {}
        self._execute_lock = threading.Lock()

    def register_local(self, payload: dict) -> List[str]:
        """Pre-register a graph from the CLI (same payload as the wire op)."""
        with self._execute_lock:
            scratch: Dict[str, GraphShard] = {}
            _register(scratch, payload)  # maps, warms, reads checkpoint headers
            name = payload["name"]
            self._preloaded[name] = (payload, scratch[name].kg)
            return sorted(self._preloaded)

    def graphs(self) -> List[str]:
        with self._execute_lock:
            return sorted(set(self._preloaded).union(*self._shards.values()))

    def execute(
        self, op: str, payload: dict, parent: Optional[str] = None
    ) -> Tuple[Any, Optional[str]]:
        """One op on a connection serving ``parent`` → (result, the parent
        the connection serves from now on: a registration names it, a
        goodbye ends it)."""
        with self._execute_lock:
            name = payload.get("graph") or payload.get("name")
            if op == "register":
                parent = self._attach(parent, payload.get("parent"))
                shards = self._shards.setdefault(parent, {})
                if name not in shards and name in self._preloaded:
                    _register(shards, *self._preloaded[name])
                return _register(shards, payload), parent
            if op == "goodbye":
                gone = payload.get("parent", parent)
                self._shards.pop(gone, None)
                self._links.pop(gone, None)
                self._idle_since.pop(gone, None)
                return None, None
            shards = self._shards.get(parent, {})
            if op == "ping":
                result = "pong"
            elif op == "sleep":  # diagnostics/tests: hold the worker busy
                time.sleep(float(payload["seconds"]))
                result = None
            elif name in shards:
                result = shards[name].execute(op, payload)
            else:
                raise KeyError(f"graph {name!r} is not registered on this worker")
            return result, parent

    def detach(self, parent: Optional[str]) -> None:
        """A connection serving ``parent`` closed."""
        with self._execute_lock:
            self._release(parent)

    def _attach(self, parent: Optional[str], new: Optional[str]) -> Optional[str]:
        """Move a connection from ``parent`` to ``new`` (lock held), first
        dropping the shards of parents idle past the limit."""
        cutoff = time.monotonic() - PARENT_IDLE_SECONDS
        for idle, since in list(self._idle_since.items()):
            if since <= cutoff:
                del self._idle_since[idle]
                self._shards.pop(idle, None)
        if new != parent:
            self._release(parent)
            if new is not None:
                self._links[new] = self._links.get(new, 0) + 1
                self._idle_since.pop(new, None)
        return new

    def _release(self, parent: Optional[str]) -> None:
        if parent is None or parent not in self._links:
            return
        self._links[parent] -= 1
        if not self._links[parent]:
            del self._links[parent]
            self._idle_since[parent] = time.monotonic()


# -- the JSON codec -----------------------------------------------------------


def _json_default(value: Any) -> Any:
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def encode_frame(message: dict) -> bytes:
    """One frame body: compact JSON (numpy scalars and arrays as lists)."""
    return json.dumps(message, separators=(",", ":"), default=_json_default).encode()


def result_payload(result: Any) -> Any:
    """JSON-encode one op's result, or one answer of a window op: the one
    encoding both front ends answer with and workers ship."""
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


# -- the worker loop ----------------------------------------------------------

#: A frame's length prefix, as ``Connection.send_bytes`` writes it.  Read
#: unsigned: the prefix of a frame past 2 GiB (-1) reads as oversized.
_HEADER = struct.Struct("!I")
#: Bytes per read of a frame body.
_CHUNK_BYTES = 1 << 16


class _FrameError(ValueError):
    """A request frame that is answered with one error, then the link closes."""


def _read_exact(fd: int, size: int, keep: bool = True) -> bytes:
    """``size`` bytes from ``fd`` (dropped unless ``keep``); EOFError at EOF."""
    chunks = []
    while size:
        chunk = os.read(fd, min(size, _CHUNK_BYTES))
        if not chunk:
            raise EOFError
        size -= len(chunk)
        if keep:
            chunks.append(chunk)
    return b"".join(chunks)


def _read_request(conn: Connection) -> Tuple[Any, str, dict]:
    """The next request frame as ``(id, op, payload)``.

    A partial frame at EOF raises EOFError: half a request never runs.  An
    oversized frame's body is read off before :class:`_FrameError` is
    raised: closing on unread bytes would reset the link, and the sender
    would never read the error.
    """
    fd = conn.fileno()
    (size,) = _HEADER.unpack(_read_exact(fd, _HEADER.size))
    if size > MAX_LINE_BYTES:
        _read_exact(fd, size, keep=False)
        raise _FrameError(f"frame exceeds {MAX_LINE_BYTES} bytes")
    try:
        message = json.loads(_read_exact(fd, size))
    except ValueError:
        raise _FrameError("invalid JSON frame") from None
    if not isinstance(message, dict) or not isinstance(message.get("op"), str):
        raise _FrameError("frame must be a JSON object with a string 'op'")
    payload = message.get("payload", {})
    if not isinstance(payload, dict):
        raise _FrameError("'payload' must be a JSON object")
    return message.get("id"), message["op"], payload


def _serve_connection(server: WorkerServer, conn: Connection) -> None:
    """Answer ``conn``'s requests in order until it closes or says goodbye.

    Every worker runs this loop.  A malformed frame gets one error
    response and closes the link: resynchronizing inside a corrupt byte
    stream is guesswork.
    """
    parent = None
    try:
        while True:
            op = None
            try:
                request_id, op, payload = _read_request(conn)
            except (EOFError, OSError):
                break
            except _FrameError as exc:
                response = {"id": None, "status": "error", "result": ["BadRequest", str(exc)]}
            else:
                try:
                    result, parent = server.execute(op, payload, parent)
                    response = {
                        "id": request_id, "status": "ok", "result": encode_result(op, result),
                    }
                except BaseException as exc:  # noqa: BLE001 - shipped to the parent
                    response = {
                        "id": request_id, "status": "error",
                        "result": [type(exc).__name__, str(exc)],
                    }
            try:
                conn.send_bytes(encode_frame(response))
            except OSError:
                break
            if op is None or op == "goodbye":
                break
    finally:
        server.detach(parent)
        conn.close()


def _child_main(conn: Connection) -> None:
    """A local pool worker: one :class:`WorkerServer` on its pipe.

    After a goodbye the loop returns and the process exits through
    multiprocessing's normal exit path (running its finalizers).
    """
    _serve_connection(WorkerServer(), conn)


class WorkerListener:
    """``repro serve-worker``'s socket: one :func:`_serve_connection`
    thread per accepted connection, sharing one :class:`WorkerServer`
    (whose lock keeps execution serial)."""

    def __init__(self, server: WorkerServer, host: str = "127.0.0.1", port: int = 0):
        self.server = server
        self._sock = socket.create_server((host, port))
        self.port = self._sock.getsockname()[1]

    def serve_forever(self) -> None:
        """Accept connections until :meth:`close`."""
        while True:
            try:
                sock, _ = self._sock.accept()
            except OSError:
                return
            threading.Thread(
                target=_serve_connection,
                args=(self.server, Connection(sock.detach())),
                name="serve-worker-connection",
                daemon=True,
            ).start()

    def close(self) -> None:
        """Stop accepting, then let the op in progress finish."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)  # wakes a blocked accept()
        except OSError:
            pass
        self._sock.close()
        with self.server._execute_lock:
            pass


# -- the parent side ----------------------------------------------------------

#: ``on_disconnect(transport)`` tells the lifecycle layer the peer is gone.
DisconnectSink = Callable[["WorkerTransport"], None]


def _host_port(address: str) -> Tuple[str, int]:
    host, _, port_text = address.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        port = -1
    if not host or not (0 < port < 65536):
        raise ValueError(f"remote worker address must be HOST:PORT, got {address!r}")
    return host, port


class WorkerTransport:
    """Parent-side channel to one worker (one incarnation of one slot).

    ``address`` (``HOST:PORT``) names a standalone ``repro serve-worker``;
    without it, ``start()`` forks a local worker from ``ctx``.  Above the
    connect step both run the same code: frames out under a send lock, a
    reader thread resolving each request's future, ``close()`` saying
    goodbye.  A transport is single-incarnation: the pool builds a *new*
    one to respawn/reconnect a slot, so "is this disconnect stale?" is an
    identity check, never a state machine.  All methods are thread-safe.
    """

    def __init__(
        self,
        index: int,
        on_disconnect: DisconnectSink,
        address: Optional[str] = None,
        ctx=None,
    ):
        self.index = index
        self.address = address
        self._endpoint = None if address is None else _host_port(address)
        self._ctx = ctx
        self.closed = False
        self.process = None
        self.reader: Optional[threading.Thread] = None
        self._conn: Optional[Connection] = None
        self._sock: Optional[socket.socket] = None
        self._on_disconnect = on_disconnect
        self._lock = threading.Lock()  # guards _inflight
        self._send_lock = threading.Lock()  # one frame at a time; guards the close
        self._inflight: Dict[int, Tuple[str, concurrent.futures.Future]] = {}
        self._request_ids = itertools.count()

    def start(self) -> None:
        """Spawn/connect the worker; blocking until it answers a ping."""
        if self._endpoint is None:
            conn, child_conn = self._ctx.Pipe()
            self.process = self._ctx.Process(
                target=_child_main,
                args=(child_conn,),
                name=f"tosg-pool-worker-{self.index}",
                daemon=True,
            )
            self.process.start()
            child_conn.close()
        else:
            sock = socket.create_connection(self._endpoint, timeout=CONNECT_TIMEOUT_SECONDS)
            sock.settimeout(None)
            conn = Connection(sock.detach())
        self._conn = conn
        # A socket view of the link: shutting it down wakes the reader.
        self._sock = socket.socket(fileno=os.dup(conn.fileno()))
        self.reader = threading.Thread(
            target=self._read_loop, name=f"tosg-pool-reader-{self.index}", daemon=True
        )
        self.reader.start()
        try:
            self.request("ping", {}).result(timeout=CONNECT_TIMEOUT_SECONDS)
        except BaseException:
            self.close()
            raise

    def request(self, op: str, payload: dict) -> concurrent.futures.Future:
        """Send one op; the returned future resolves off-thread."""
        if self.closed:
            raise WorkerCrashed(f"pool worker {self.index} is shut down")
        return self._send(op, payload)

    def _send(self, op: str, payload: dict) -> concurrent.futures.Future:
        request_id = next(self._request_ids)
        data = encode_frame({"id": request_id, "op": op, "payload": payload})
        if len(data) > MAX_LINE_BYTES:
            raise ValueError(f"wire frame of {len(data)} bytes exceeds {MAX_LINE_BYTES}")
        future: concurrent.futures.Future = concurrent.futures.Future()
        with self._lock:
            self._inflight[request_id] = (op, future)
        try:
            with self._send_lock:
                self._conn.send_bytes(data)
        except (OSError, ValueError):
            with self._lock:
                self._inflight.pop(request_id, None)
            raise WorkerCrashed(f"pool worker {self.index} link is closed") from None
        return future

    def _read_loop(self) -> None:
        conn = self._conn
        while True:
            try:
                message = json.loads(conn.recv_bytes())
                request_id, ok, result = message["id"], message["status"] == "ok", message["result"]
            except (EOFError, OSError, ValueError, TypeError, KeyError):
                break  # the worker is gone (or spoke garbage: treated as gone)
            with self._lock:
                entry = self._inflight.pop(request_id, None)
            if entry is None:
                continue  # request already failed (e.g. during close)
            op, future = entry
            if not ok:
                future.set_exception(_reraise(str(result[0]), str(result[1])))
                continue
            try:
                future.set_result(decode_result(op, result))
            except Exception as exc:  # malformed result payload
                future.set_exception(WorkerError(f"undecodable {op!r} result: {exc}"))
        reason = ""
        if self.process is not None and not self.closed:
            # The pipe closes when the child exits; name how it exited
            # (e.g. -9: SIGKILL, as from the kernel's OOM killer).
            self.process.join(timeout=CRASH_JOIN_SECONDS)
            reason = f" (exitcode {self.process.exitcode})"
        with self._lock:
            stale, self._inflight = list(self._inflight.values()), {}
        for _op, future in stale:
            future.set_exception(
                WorkerCrashed(
                    f"pool worker {self.index} died with this request in flight{reason}"
                )
            )
        self._on_disconnect(self)
        with self._send_lock:
            conn.close()
            self._sock.close()

    def alive(self) -> bool:
        """The link is up: its reader runs until the worker is gone."""
        return not self.closed and self.reader is not None and self.reader.is_alive()

    def pid(self) -> Optional[int]:
        """Worker process id when it runs on this machine (else None)."""
        return self.process.pid if self.process is not None else None

    def close(self, parent: Optional[str] = None) -> None:
        """Say goodbye for ``parent``, then drop the link.

        A local worker exits on its goodbye (and is terminated if it has
        not within the grace period); a standalone worker drops
        ``parent``'s shards and keeps serving its other parents.
        """
        with self._lock:
            if self.closed:
                return
            self.closed = True
        if self.reader is None:
            return  # never connected
        try:
            self._send("goodbye", {"parent": parent}).result(timeout=SHUTDOWN_GRACE_SECONDS)
        except Exception:  # gone or unresponsive: tear down regardless
            pass
        if self.process is not None:
            self.process.join(timeout=SHUTDOWN_GRACE_SECONDS)
            if self.process.is_alive():  # pragma: no cover - unresponsive worker
                self.process.terminate()
                self.process.join(timeout=SHUTDOWN_GRACE_SECONDS)
        with self._send_lock:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the reader already closed the link
        if threading.current_thread() is not self.reader:
            self.reader.join(timeout=SHUTDOWN_GRACE_SECONDS)

"""The serving-side model registry: checkpoints in, warm models out.

:class:`ModelRegistry` is to trained parameters what
:func:`repro.kg.cache.artifacts_for` is to graph artifacts — the single
construction point that makes "which model answers this request" a cache
lookup instead of a load.  Checkpoints are registered by *path*; only the
O(header) metadata (:func:`~repro.nn.checkpoint.read_checkpoint_meta`) is
read eagerly, so the parent process of a worker pool can route on
architecture / task / recorded metric / parameter count without ever
holding model parameters.  The full checkpoint is loaded and the model
rebuilt lazily, on the first request that actually needs it, and cached
under its ``(graph, task, architecture, epoch)`` identity for every later
request; requests that arrive during that build wait for it.  The
epoch component ties built state (model, logits, target positions) to
one immutable graph snapshot: a ``POST /triples`` ingest bumps the
graph's epoch and calls :meth:`invalidate_graph`, so the next request
rebuilds against the merged graph while in-flight windows pinned to an
older epoch keep their own entries — ``/predict`` answers never mix
epochs (see ``repro/kg/epoch.py`` and ``docs/live-graphs.md``).

The registry also owns the **full-target logits cache** for node
classification: the first NC request against a model triggers one
vectorized ``predict_logits()`` pass over *all* task targets, and every
subsequent request is a row gather.  Because the gather is taken from the
identical full-target computation the scalar oracle performs, cached
answers are bit-exact with uncached ones by construction.

Thread-safe: models are built on coalescer worker threads while the
event loop routes; counters (``hits`` / ``loads``) feed ``/metrics``.
"""

from __future__ import annotations

import concurrent.futures
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn.checkpoint import (
    CheckpointError,
    load_checkpoint,
    read_checkpoint_meta,
)

__all__ = ["ModelRegistry"]

#: Registry identity of one checkpoint: (graph name, task name, architecture).
Key = Tuple[str, str, str]

#: Identity of built state: a checkpoint identity pinned to a graph epoch.
BuiltKey = Tuple[str, str, str, int]


class ModelRegistry:
    """Lazily-loading cache of checkpointed models, keyed per graph×task×arch.

    Checkpoint *registrations* (paths + metadata) are epoch-independent;
    *built* state is keyed with an extra epoch component so one registry
    can serve several snapshots of a live graph without mixing them.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._paths: Dict[Key, str] = {}
        self._meta: Dict[Key, dict] = {}
        # Built state, one future per key: the first caller builds, callers
        # arriving meanwhile wait on it.
        self._models: Dict[BuiltKey, concurrent.futures.Future] = {}
        self._logits: Dict[BuiltKey, concurrent.futures.Future] = {}
        self._positions: Dict[BuiltKey, concurrent.futures.Future] = {}
        self.hits = 0  # cache hits: a request found its model already built
        self.loads = 0  # checkpoint loads: full parse + model rebuild

    # -- registration ---------------------------------------------------------

    def add(self, graph: str, path: str, expected_graph: Optional[str] = None) -> dict:
        """Register the checkpoint at ``path`` under serving name ``graph``.

        Reads only the header (cheap, validates magic/version/CRC).
        ``expected_graph`` — the registered graph's ``kg.name`` — makes
        graph skew loud at registration time instead of at first request.
        Re-adding the same path is a no-op; a *different* checkpoint for an
        already-registered ``(graph, task, architecture)`` is an error.
        """
        meta = read_checkpoint_meta(path)
        if expected_graph is not None and meta["graph"] != expected_graph:
            raise CheckpointError(
                f"{path}: checkpoint was trained on graph {meta['graph']!r} "
                f"but graph {graph!r} serves {expected_graph!r}"
            )
        key: Key = (graph, meta["task_name"], meta["architecture"])
        with self._lock:
            existing = self._paths.get(key)
            if existing is not None and existing != path:
                raise ValueError(
                    f"graph {graph!r} already serves task {meta['task_name']!r} "
                    f"with a {meta['architecture']} checkpoint ({existing})"
                )
            self._paths[key] = path
            self._meta[key] = meta
        return meta

    def candidates(self, graph: str, task: str) -> List[Tuple[str, dict]]:
        """``(architecture, meta)`` per checkpoint able to answer ``task``.

        Sorted by architecture name so routing tie-breaks are
        deterministic across processes and runs.
        """
        with self._lock:
            return sorted(
                (key[2], meta)
                for key, meta in self._meta.items()
                if key[0] == graph and key[1] == task
            )

    def tasks(self, graph: str) -> List[str]:
        with self._lock:
            return sorted({key[1] for key in self._meta if key[0] == graph})

    def meta(self, graph: str, task: str, architecture: str) -> dict:
        with self._lock:
            meta = self._meta.get((graph, task, architecture))
        if meta is None:
            raise KeyError(
                f"no {architecture} checkpoint for task {task!r} on graph {graph!r}"
            )
        return meta

    # -- lazy model construction ----------------------------------------------

    def model(self, graph: str, task: str, architecture: str, kg, epoch: int = 0):
        """The warm model for ``(graph, task, architecture)`` at ``epoch``.

        The slow path (checkpoint parse + model rebuild + parameter load)
        runs once per key, outside the lock (see :meth:`_built`).  ``kg``
        must be the graph snapshot ``epoch`` names — the built model holds
        a reference to it, which is exactly why built state is epoch-keyed.
        """
        with self._lock:
            path = self._paths.get((graph, task, architecture))
        if path is None:
            raise KeyError(
                f"no {architecture} checkpoint for task {task!r} on graph {graph!r}"
            )
        model, built = self._built(
            self._models, (graph, task, architecture, int(epoch)),
            lambda: load_checkpoint(path).build_model(kg),
        )
        with self._lock:
            if built:
                self.loads += 1
            else:
                self.hits += 1
        return model

    def _built(self, cache: dict, key: BuiltKey, build) -> Tuple[object, bool]:
        """``(cache[key], whether this call built it)``.

        The first caller runs ``build()`` outside the lock; callers that
        arrive meanwhile wait for its result, or its error.  A failed build
        is not cached, so the next caller retries it.
        """
        with self._lock:
            future = cache.get(key)
            owner = future is None
            if owner:
                future = cache[key] = concurrent.futures.Future()
        if owner:
            try:
                future.set_result(build())
            except BaseException as exc:
                with self._lock:
                    if cache.get(key) is future:
                        del cache[key]
                future.set_exception(exc)
        return future.result(), owner

    def logits(
        self, graph: str, task: str, architecture: str, kg, epoch: int = 0
    ) -> np.ndarray:
        """Cached full-target NC logits (one vectorized pass, then gathers)."""
        return self._built(
            self._logits, (graph, task, architecture, int(epoch)),
            lambda: self.model(graph, task, architecture, kg, epoch).predict_logits(),
        )[0]

    def target_positions(
        self, graph: str, task: str, architecture: str, kg, epoch: int = 0
    ) -> dict:
        """``node id -> row`` lookup into the task's target/logits order."""

        def build() -> dict:
            targets = self.model(graph, task, architecture, kg, epoch).task.target_nodes
            return {int(node): index for index, node in enumerate(targets)}

        return self._built(self._positions, (graph, task, architecture, int(epoch)), build)[0]

    def invalidate_graph(self, graph: str, keep_epoch: Optional[int] = None) -> int:
        """Drop ``graph``'s built state (models, logits, positions).

        Checkpoint registrations (paths + metadata) survive — they are
        epoch-independent — so the next request rebuilds from the same
        files against the new snapshot.  ``keep_epoch`` preserves entries
        already built at that epoch (the one the caller is moving *to*).
        Returns the number of built models dropped.
        """
        with self._lock:
            dropped = 0
            for cache in (self._models, self._logits, self._positions):
                stale = [
                    key
                    for key in cache
                    if key[0] == graph
                    and (keep_epoch is None or key[3] != int(keep_epoch))
                ]
                for key in stale:
                    del cache[key]
                if cache is self._models:
                    dropped = len(stale)
            return dropped

    # -- observability --------------------------------------------------------

    def snapshot(self) -> dict:
        """Registry state for ``/metrics``: per-checkpoint meta + counters."""
        with self._lock:
            loaded = {built[:3] for built, future in self._models.items() if future.done()}
            checkpoints = [
                {
                    "graph": key[0],
                    "task": key[1],
                    "architecture": key[2],
                    "task_type": self._meta[key]["task_type"],
                    "num_parameters": self._meta[key]["num_parameters"],
                    "metrics": self._meta[key]["metrics"],
                    "loaded": key in loaded,
                    "path": self._paths[key],
                }
                for key in sorted(self._meta)
            ]
            return {
                "checkpoints": checkpoints,
                "loaded": len(loaded),
                "hits": self.hits,
                "loads": self.loads,
            }

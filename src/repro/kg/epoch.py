"""Epochal graph snapshots: live KGs as chains of immutable epochs.

Production KGs receive triples continuously, but everything in this
codebase — the artifact cache, the batch kernels, the serving layer — is
built on *immutable* graphs.  This module reconciles the two without
giving up a single bit-exactness contract:

* A :class:`GraphEpoch` is one immutable snapshot: a **base**
  :class:`~repro.kg.graph.KnowledgeGraph` (the last compaction point)
  plus an append-only columnar **delta log** of the triples ingested
  since.  ``epoch.kg`` is a *real* merged ``KnowledgeGraph`` — every
  existing consumer (``artifacts_for``, the SPARQL executor, the batch
  kernels, the model registry) works on it unchanged — but ingest builds
  **none** of its derived artifacts.  Each CSR projection and hexastore
  ordering is instead merged on first use from the nearest ancestor that
  built it (the delta is simply the rows appended since that ancestor);
  one that nobody reads is never built:

  - **CSR projections** merge as ``base_csr + delta_csr`` (canonicalised
    back to 0/1), identical to ``build_csr`` on the merged graph
    (:meth:`~repro.kg.cache.GraphArtifacts.csr`).
  - **Hexastore orderings** merge the ancestor's sorted permutation with
    a lexsort of the (small) delta via two ``searchsorted`` calls — the
    classic sorted-merge — reproducing ``np.lexsort`` on the merged
    columns *exactly* (lexsort is stable and base positions precede
    delta positions, so tie order is preserved;
    :meth:`~repro.kg.hexastore.Hexastore.extended_from`).

  A link to the origin is dropped once its artifact is built, and an
  epoch whose parent lacks an artifact inherits the parent's link, so
  links never chain epochs: each points straight at an ancestor's built
  artifact (in a pool parent, which reads none, the registered graph's).

* :class:`LiveGraph` strings epochs together behind one lock: ingest
  appends a delta (bumping the epoch number), periodic **compaction**
  folds the delta into a fresh base (reusing the merged graph, so
  nothing is recomputed), and a bounded ring of recent epochs keeps
  in-flight requests pinned to the epoch they were admitted under.

* The hot kernels become **delta-aware with retained oracles**: one
  retained store per kernel kind keeps each per-key answer together with
  its *support set* — the nodes whose adjacency rows or degrees the
  kernel read (the PPR push schedule's reach, an ego scope's node set, a
  path enumeration's expanded nodes).  An ingest invalidates exactly the
  entries whose support intersects the dirty nodes — everything else
  provably replays the identical computation on the new epoch, so
  serving it from cache is bit-exact.

See ``docs/live-graphs.md`` for the operator-facing lifecycle.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.kg.cache import GraphArtifacts, artifacts_for
from repro.kg.graph import KnowledgeGraph
from repro.kg.hexastore import Hexastore
from repro.kg.triples import TripleStore

#: How many past epochs a LiveGraph keeps resolvable by number.  In-flight
#: requests admitted under epoch N resolve N from this ring even after
#: later ingests; beyond the ring the current epoch answers (the only
#: callers that far behind are metrics readers, not correctness paths).
EPOCH_HISTORY = 16

#: Bound on each retained per-key kernel store (FIFO eviction).
KERNEL_CACHE_CAPACITY = 4096


class GraphEpoch:
    """One immutable snapshot of a live graph.

    ``kg`` is a fully usable merged :class:`KnowledgeGraph` (base + every
    delta so far); ``base_kg`` is the last compaction point and ``delta``
    the columnar log of triples ingested since.  Epochs never mutate:
    :meth:`extend` and :meth:`compact` return *new* epochs, which is what
    keeps every identity-keyed cache and bit-exactness contract intact.
    """

    __slots__ = ("number", "kg", "base_kg", "delta")

    def __init__(
        self,
        number: int,
        kg: KnowledgeGraph,
        base_kg: KnowledgeGraph,
        delta: TripleStore,
    ):
        self.number = number
        self.kg = kg
        self.base_kg = base_kg
        self.delta = delta

    @classmethod
    def initial(cls, kg: KnowledgeGraph) -> "GraphEpoch":
        """Epoch 0: the registered graph itself, with an empty delta log."""
        return cls(number=0, kg=kg, base_kg=kg, delta=TripleStore())

    @property
    def delta_rows(self) -> int:
        """Triples ingested since the last compaction."""
        return len(self.delta)

    def extend(self, new_triples: TripleStore, compact: bool = False) -> "GraphEpoch":
        """Next epoch with ``new_triples`` appended.

        The merged graph shares this epoch's vocabularies and node types
        (ingest never grows the id spaces — see :meth:`LiveGraph.ingest`)
        and builds no CSR projection or hexastore ordering: each records
        its origin and is merged from it on first use (see the module
        docstring).  ``compact=True`` additionally folds the whole delta
        into the new epoch's base (same merged graph, empty delta) — used
        when the compaction policy triggers on ingest.
        """
        parent_kg = self.kg
        merged_store = parent_kg.triples.append(new_triples)
        merged_kg = KnowledgeGraph(
            node_vocab=parent_kg.node_vocab,
            class_vocab=parent_kg.class_vocab,
            relation_vocab=parent_kg.relation_vocab,
            node_types=parent_kg.node_types,
            triples=merged_store,
            literal_vocab=parent_kg.literal_vocab,
            literal_triples=parent_kg.literal_triples,
            name=parent_kg.name,
        )
        if parent_kg._hexastore is not None:
            merged_kg._hexastore = Hexastore.extended_from(parent_kg._hexastore, merged_store)
        parent_artifacts = getattr(parent_kg, "_graph_artifacts", None)
        if parent_artifacts is not None:
            GraphArtifacts.extended_from(parent_artifacts, merged_kg)
        # Degree caches update by bincount of the delta endpoints; the
        # nodes_of_type buckets depend only on node_types, shared as-is.
        if parent_kg._out_degree is not None:
            merged_kg._out_degree = parent_kg._out_degree + np.bincount(
                new_triples.s, minlength=merged_kg.num_nodes
            )
        if parent_kg._in_degree is not None:
            merged_kg._in_degree = parent_kg._in_degree + np.bincount(
                new_triples.o, minlength=merged_kg.num_nodes
            )
        if parent_kg._nodes_by_type is not None:
            merged_kg._nodes_by_type = parent_kg._nodes_by_type
        if compact:
            return GraphEpoch(
                number=self.number + 1,
                kg=merged_kg,
                base_kg=merged_kg,
                delta=TripleStore(),
            )
        return GraphEpoch(
            number=self.number + 1,
            kg=merged_kg,
            base_kg=self.base_kg,
            delta=self.delta.append(new_triples),
        )

    def compact(self, out_dir: Optional[str] = None) -> "GraphEpoch":
        """Fold the delta into a fresh base without recomputing anything.

        The merged graph *is* the new base — artifacts it has not built
        yet keep their origins and merge on first use as before — so
        compaction is O(1) plus, optionally, one ``save_artifacts`` write
        when ``out_dir`` is given (the same on-disk store ``--mmap-dir``
        serves from; writing it builds every artifact).
        """
        if out_dir is not None:
            from repro.kg.store import save_artifacts

            save_artifacts(self.kg, out_dir)
        return GraphEpoch(
            number=self.number + 1, kg=self.kg, base_kg=self.kg, delta=TripleStore()
        )

    def cold_rebuild(self) -> KnowledgeGraph:
        """A fresh, cache-free graph with this epoch's exact content.

        The oracle for every first-use-merge claim: rebuilding all
        artifacts from scratch on this graph must reproduce the merged
        artifacts bit for bit (asserted by ``tests/kg/test_epoch.py`` and
        ``benchmarks/test_perf_live.py``).
        """
        return KnowledgeGraph(
            node_vocab=self.kg.node_vocab,
            class_vocab=self.kg.class_vocab,
            relation_vocab=self.kg.relation_vocab,
            node_types=self.kg.node_types,
            triples=TripleStore(self.kg.triples.s, self.kg.triples.p, self.kg.triples.o),
            literal_vocab=self.kg.literal_vocab,
            literal_triples=self.kg.literal_triples,
            name=self.kg.name,
        )


class LiveGraph:
    """A thread-safe chain of :class:`GraphEpoch` s with retained kernels.

    One ``LiveGraph`` wraps one registered graph: :meth:`ingest` appends
    triples (bumping the epoch), :meth:`compact` folds the delta log, and
    :meth:`ppr_top_k` / :meth:`ego_batch` / :meth:`paths_batch` answer
    kernel requests through per-key retained stores (:meth:`_retained`)
    that survive ingests untouched by them.  Epoch
    resolution by number keeps in-flight requests on the snapshot they
    were admitted under (a bounded ring; see :data:`EPOCH_HISTORY`).
    """

    def __init__(
        self,
        kg: KnowledgeGraph,
        compact_every: int = 0,
    ):
        self._lock = threading.RLock()
        self._current = GraphEpoch.initial(kg)
        self._ring: Dict[int, GraphEpoch] = {0: self._current}
        self.compact_every = max(int(compact_every), 0)
        # Per kernel kind: (key, params) -> (answer, support node array),
        # and the counters stats() reports as "<kind>_cache".
        kinds = ("ppr", "ego", "paths")
        self._stores: Dict[str, Dict[Tuple, Tuple[object, np.ndarray]]] = {
            kind: {} for kind in kinds
        }
        self._counts = {
            kind: {"hits": 0, "misses": 0, "invalidated": 0} for kind in kinds
        }
        self.ingested_triples = 0
        self.compactions = 0

    # -- epoch access --

    @property
    def epoch(self) -> GraphEpoch:
        """The current (most recent) epoch."""
        with self._lock:
            return self._current

    @property
    def kg(self) -> KnowledgeGraph:
        """The current epoch's merged graph."""
        return self.epoch.kg

    def resolve(self, number: Optional[int] = None) -> GraphEpoch:
        """The epoch with ``number``, or the current one.

        Numbers older than the ring (or unknown) resolve to the current
        epoch — acceptable because the ring outlives any in-flight
        coalescing window by orders of magnitude.
        """
        with self._lock:
            if number is None:
                return self._current
            return self._ring.get(int(number), self._current)

    # -- ingest --

    def validate_triples(self, triples) -> np.ndarray:
        """Normalise and range-check an ingest payload against the graph.

        Returns the ``(n, 3)`` int64 array; raises ``ValueError`` with an
        operator-readable message otherwise.  Only triples among existing
        nodes and relations are accepted — ingest never grows the id
        spaces, which is what keeps vocabularies, CSR shapes, tasks and
        registered checkpoints valid across epochs.
        """
        try:
            arr = np.asarray(triples, dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            raise ValueError("triples must be an array of integer [s, p, o] rows")
        if arr.size == 0:
            return arr.reshape(0, 3)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError(
                f"triples must be shaped (n, 3), got {list(arr.shape)}"
            )
        kg = self.kg
        if int(arr[:, [0, 2]].min()) < 0 or int(arr[:, [0, 2]].max()) >= kg.num_nodes:
            raise ValueError(
                f"subject/object ids must be in [0, {kg.num_nodes}) — "
                "ingest does not mint new nodes"
            )
        if int(arr[:, 1].min()) < 0 or int(arr[:, 1].max()) >= kg.num_edge_types:
            raise ValueError(
                f"predicate ids must be in [0, {kg.num_edge_types}) — "
                "ingest does not mint new relations"
            )
        return arr

    def would_compact(self, new_rows: int) -> bool:
        """Whether ingesting ``new_rows`` triples triggers compaction."""
        if self.compact_every <= 0:
            return False
        with self._lock:
            return self._current.delta_rows + int(new_rows) >= self.compact_every

    def ingest(self, triples, compact: Optional[bool] = None) -> Dict[str, object]:
        """Append triples as a new epoch; invalidate touched kernel caches.

        ``compact`` overrides the ``compact_every`` policy — the worker
        pool ships the parent's decision so every process's epoch chain
        stays in lockstep.  An empty payload is a no-op (no epoch bump).
        """
        arr = self.validate_triples(triples)
        with self._lock:
            if len(arr) == 0:
                return {
                    "added": 0,
                    "epoch": self._current.number,
                    "delta_rows": self._current.delta_rows,
                    "compacted": False,
                }
            if compact is None:
                compact = self.would_compact(len(arr))
            delta = TripleStore(arr[:, 0], arr[:, 1], arr[:, 2])
            epoch = self._current.extend(delta, compact=bool(compact))
            self._install(epoch)
            self.ingested_triples += len(arr)
            if compact:
                self.compactions += 1
            self._invalidate(arr)
            return {
                "added": len(arr),
                "epoch": epoch.number,
                "delta_rows": epoch.delta_rows,
                "compacted": bool(compact),
            }

    def compact(self, out_dir: Optional[str] = None) -> Dict[str, object]:
        """Fold the current delta into a fresh base epoch.

        Results are unchanged (the merged graph is reused as the new
        base), so retained kernel caches survive; in-flight requests on
        the previous epoch keep answering from the ring.
        """
        with self._lock:
            epoch = self._current.compact(out_dir)
            self._install(epoch)
            self.compactions += 1
            return {
                "epoch": epoch.number,
                "delta_rows": epoch.delta_rows,
                "compacted": True,
            }

    def _install(self, epoch: GraphEpoch) -> None:
        self._current = epoch
        self._ring[epoch.number] = epoch
        while len(self._ring) > EPOCH_HISTORY:
            del self._ring[min(self._ring)]

    def _invalidate(self, arr: np.ndarray) -> None:
        """Drop retained entries whose support intersects the dirty nodes."""
        dirty = np.zeros(self._current.kg.num_nodes, dtype=bool)
        dirty[arr[:, 0]] = True
        dirty[arr[:, 2]] = True
        for kind, store in self._stores.items():
            stale = [
                key
                for key, (_, support) in store.items()
                if support.size and dirty[support].any()
            ]
            for key in stale:
                del store[key]
            self._counts[kind]["invalidated"] += len(stale)

    # -- delta-aware kernels --

    def _retained(
        self,
        kind: str,
        keys: List[Hashable],
        params: Tuple,
        epoch: Optional[int],
        kernel: Callable[[KnowledgeGraph, list], list],
    ) -> list:
        """Answer one window of ``keys`` through ``kind``'s retained store.

        ``kernel(kg, distinct_keys)`` returns one ``(answer, support
        nodes)`` pair per key.  On the current epoch, retained keys answer
        from the store and the kernel runs once on the distinct rest; fresh
        answers are retained with their support unless an ingest advanced
        the epoch meanwhile.  A window pinned to an older epoch bypasses the
        store and runs the kernel on that snapshot — still bit-exact, never
        mixed with another epoch's answers.  Returns one answer per
        position of ``keys``.
        """
        store, counts = self._stores[kind], self._counts[kind]
        distinct = list(dict.fromkeys(keys))
        with self._lock:
            snapshot = self.resolve(epoch)
            use_store = snapshot is self._current
            answers: Dict[Hashable, object] = {}
            if use_store:
                for key in distinct:
                    hit = store.get((key, params))
                    if hit is not None:
                        answers[key] = hit[0]
                counts["hits"] += len(answers)
                counts["misses"] += len(distinct) - len(answers)
        missing = [key for key in distinct if key not in answers]
        if missing:
            fresh = kernel(snapshot.kg, missing)
            with self._lock:
                retain = use_store and self._current is snapshot
                for key, (answer, support) in zip(missing, fresh):
                    answers[key] = answer
                    if retain:
                        store[(key, params)] = (answer, support)
                while retain and len(store) > KERNEL_CACHE_CAPACITY:
                    del store[next(iter(store))]
        return [answers[key] for key in keys]

    def ppr_top_k(
        self,
        targets,
        k: int,
        alpha: float = 0.25,
        eps: float = 2e-4,
        epoch: Optional[int] = None,
    ) -> Dict[int, List[Tuple[int, float]]]:
        """`batch_ppr_top_k` through the retained per-target store.

        Misses run :func:`repro.sampling.ppr.batch_ppr_top_k_with_support`
        (support: every node the push schedule read); see :meth:`_retained`.
        """
        from repro.sampling.ppr import batch_ppr_top_k_with_support

        def kernel(kg, distinct):
            table = batch_ppr_top_k_with_support(
                artifacts_for(kg).csr("both"), distinct, k, alpha=alpha, eps=eps
            )
            return [table[target] for target in distinct]

        targets = [int(t) for t in targets]
        answers = self._retained(
            "ppr", targets, (int(k), float(alpha), float(eps)), epoch, kernel
        )
        return dict(zip(targets, answers))

    def ego_batch(
        self,
        roots,
        depth: int,
        fanout: int,
        salt: int,
        epoch: Optional[int] = None,
    ) -> List[object]:
        """`extract_ego_batch` through the retained per-root store.

        An ego extraction only ever reads the adjacency rows of nodes it
        reached, so its node set is its support: a retained scope stays
        valid until an ingest dirties one of its nodes.
        """
        from repro.models.shadowsaint import extract_ego_batch

        def kernel(kg, distinct):
            return [
                (ego, ego.nodes)
                for ego in extract_ego_batch(kg, distinct, depth, fanout, salt)
            ]

        return self._retained(
            "ego",
            [int(r) for r in roots],
            (int(depth), int(fanout), int(salt)),
            epoch,
            kernel,
        )

    def paths_batch(
        self,
        pairs,
        max_hops: int = 3,
        max_paths: int = 64,
        epoch: Optional[int] = None,
    ) -> List[list]:
        """`enumerate_paths_batch` through the retained per-pair store.

        Misses run
        :func:`repro.sampling.paths.enumerate_paths_batch_with_support`
        (support: every node the enumeration expanded — see the kernel's
        docstring for why an ingest outside it cannot change the answer).
        Returns one path list per input ``(src, dst)`` pair, in order.
        """
        from repro.sampling.paths import enumerate_paths_batch_with_support

        def kernel(kg, distinct):
            return enumerate_paths_batch_with_support(
                kg, distinct, max_hops=max_hops, max_paths=max_paths
            )

        return self._retained(
            "paths",
            [(int(src), int(dst)) for src, dst in pairs],
            (int(max_hops), int(max_paths)),
            epoch,
            kernel,
        )

    # -- observability --

    def stats(self) -> Dict[str, object]:
        """The `/metrics` epoch/delta gauges for this graph."""
        with self._lock:
            return {
                "epoch": self._current.number,
                "delta_rows": self._current.delta_rows,
                "base_rows": len(self._current.base_kg.triples),
                "ingested_triples": self.ingested_triples,
                "compactions": self.compactions,
                "compact_every": self.compact_every,
                **self.cache_stats(),
            }

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """``{kind}_cache`` -> entries (a gauge) and hit/miss/invalidated counters."""
        with self._lock:
            return {
                f"{kind}_cache": {"entries": len(store), **self._counts[kind]}
                for kind, store in self._stores.items()
            }

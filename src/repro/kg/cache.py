"""Shared per-graph artifact cache (the IBS/BRW/URW/bench hot path).

Samplers, the SPARQL executor and the benchmark experiments all derive the
same handful of artifacts from a :class:`~repro.kg.graph.KnowledgeGraph`:
the symmetric/homogeneous CSR projections, the hexastore index, the random
walk engine and the per-relation hetero adjacency stack.  Before this cache
each consumer rebuilt them independently — e.g. one ``table3`` run built
the identical symmetric CSR four times per dataset.

:class:`GraphArtifacts` memoizes each artifact per graph; :func:`artifacts_for`
hands out one shared instance per :class:`KnowledgeGraph`.

Invalidation contract
---------------------
Artifacts are keyed by *object identity* of the graph, which the codebase
treats as immutable after construction (subgraph extraction returns new
``KnowledgeGraph`` instances rather than mutating).  There is therefore no
invalidation: a mutated graph must be rebuilt, which naturally gets a fresh
cache entry.  Artifacts live on the graph object itself (a plain reference
cycle the garbage collector handles), so they die with their graph and
throwaway subgraphs do not accumulate.  See ``docs/performance.md`` for the
full contract.

Live ingest (``repro/kg/epoch.py``) honours the same rule rather than
bending it: appending triples produces a **new** merged graph — and with
it a fresh identity-keyed cache entry (:meth:`GraphArtifacts.extended_from`)
— that builds nothing at ingest.  Each CSR projection (and each hexastore
ordering) is merged on first use from the nearest ancestor that built it,
bit-identical to a cold build; one nobody reads is never built.  The old
epoch's graph and cache stay valid for requests still pinned to it.

Process locality (sharded serving)
----------------------------------
The cache is strictly **process-local**: artifacts are never pickled —
``KnowledgeGraph.__getstate__`` strips the attached cache (and every other
derived structure) before a graph ships to a serving pool worker, and each
worker rebuilds its own shard of artifacts on arrival via
:meth:`GraphArtifacts.warm`, the registration-time warm-up hook.  Under
multi-process serving (``repro/serve/pool.py``) there is consequently one
cache per (graph, owning worker) pair, built exactly once each; the
``hits``/``builds`` counters a worker reports are therefore per-process
numbers, summed across owners by the pool's metrics.
"""

from __future__ import annotations

import mmap
import threading
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.kg.graph import KnowledgeGraph
from repro.kg.hexastore import Hexastore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sampling.walks import RandomWalkEngine
    from repro.transform.adjacency import Direction, HeteroAdjacency


def _merged_csr(
    base: sp.csr_matrix, start: int, kg: KnowledgeGraph, direction: "Direction"
) -> sp.csr_matrix:
    """``build_csr(kg, direction)``, merged from ``base``.

    ``base`` is the projection of ``kg``'s first ``start`` triples.
    ``base + delta`` unions the sparsity structures (scipy's CSR addition
    emits canonical, column-sorted output); resetting ``data`` to 1.0
    restores the 0/1 convention, after which the matrix is value-identical
    to ``build_csr`` on the whole graph.
    """
    s, o = kg.triples.s[start:], kg.triples.o[start:]
    if direction == "out":
        rows, cols = s, o
    elif direction == "in":
        rows, cols = o, s
    else:  # "both" symmetrises, exactly like build_csr
        rows, cols = np.concatenate([s, o]), np.concatenate([o, s])
    extra = sp.csr_matrix(
        (np.ones(len(rows), dtype=np.float64), (rows, cols)),
        shape=(kg.num_nodes, kg.num_nodes),
    )
    extra.sum_duplicates()
    combined = base + extra
    combined.sum_duplicates()
    combined.sort_indices()
    combined.data[:] = 1.0
    return combined


def _is_mapped(array: np.ndarray) -> bool:
    """True when ``array``'s memory lives in a file mapping, not the heap.

    Walks the ``.base`` chain because views over a mapping (including the
    plain ``ndarray`` wrappers scipy's CSR constructor may produce) are not
    themselves ``memmap``/``mmap`` instances.
    """
    base = array
    while base is not None:
        if isinstance(base, (np.memmap, mmap.mmap)):
            return True
        if isinstance(base, memoryview):
            # np.frombuffer wraps its buffer in a memoryview; the mapping
            # (when there is one) sits behind the view's .obj.
            return isinstance(base.obj, mmap.mmap)
        base = getattr(base, "base", None)
    return False


class GraphArtifacts:
    """Memoized derived artifacts of one (immutable) knowledge graph.

    All getters are idempotent and thread-safe; the first call builds, every
    later call returns the shared instance.  This is the single construction
    point for CSR projections, walk engines and hetero stacks outside
    :mod:`repro.transform`.
    """

    def __init__(self, kg: KnowledgeGraph):
        self.kg = kg
        self._lock = threading.RLock()
        self._csr: Dict[str, sp.csr_matrix] = {}
        # Direction -> (the nearest ancestor's built projection, how many of
        # this graph's leading triples it covers); see extended_from.
        self._origins: Dict[str, Tuple[sp.csr_matrix, int]] = {}
        self._engines: Dict[str, "RandomWalkEngine"] = {}
        self._hetero: Dict[Tuple[bool, bool], "HeteroAdjacency"] = {}
        # Observability counters (read by the serving metrics): how many
        # getter calls found a warm artifact vs had to build one.  Guarded
        # by the same lock as the artifacts themselves.
        self.hits = 0
        self.builds = 0
        # Set by :meth:`from_store` when the arrays are mmap-backed views
        # of an on-disk artifact file (see ``repro/kg/store.py``).
        self.store_path: Optional[str] = None

    @classmethod
    def from_store(
        cls,
        kg: KnowledgeGraph,
        csr_matrices: Dict[str, sp.csr_matrix],
        store_path: Optional[str] = None,
    ) -> "GraphArtifacts":
        """Wire up a cache whose CSR projections are already built.

        The artifact store (``repro/kg/store.py``) reconstructs ``kg`` and
        its CSR projections as read-only memory-mapped views; this
        constructor pre-populates the cache with them and attaches it to the
        graph so every existing ``artifacts_for(kg)`` call site transparently
        gets the file-backed instance.  Pre-populated entries count as hits,
        never builds — nothing was constructed in this process.
        """
        artifacts = cls(kg)
        artifacts._csr.update(csr_matrices)
        artifacts.store_path = store_path
        with _ATTACH_LOCK:
            setattr(kg, _ATTRIBUTE, artifacts)
        return artifacts

    @classmethod
    def extended_from(cls, parent: "GraphArtifacts", kg: KnowledgeGraph) -> "GraphArtifacts":
        """Attach to ``kg`` a cache that builds nothing now.

        ``kg`` holds ``parent.kg``'s triples plus appended rows.  Each CSR
        direction records its origin: ``parent``'s projection when built,
        else ``parent``'s origin for it.  :meth:`csr` merges from that
        origin on first use; a direction without one builds cold.  A link
        is dropped once its projection is built, so links never chain.
        """
        artifacts = cls(kg)
        # Lock-free so an ingest never waits on a build in the parent: csr()
        # stores a projection before dropping its link, so copying the links
        # first and the projections second cannot miss both.
        artifacts._origins.update(parent._origins)
        rows = len(parent.kg.triples)
        artifacts._origins.update(
            (direction, (matrix, rows)) for direction, matrix in list(parent._csr.items())
        )
        with _ATTACH_LOCK:
            setattr(kg, _ATTRIBUTE, artifacts)
        return artifacts

    # -- homogeneous projections --

    def csr(self, direction: "Direction" = "both") -> sp.csr_matrix:
        """Homogeneous 0/1 CSR projection (memoized per direction).

        Built on first use: merged from the direction's origin when
        :meth:`extended_from` recorded one, else from scratch.
        """
        with self._lock:
            matrix = self._csr.get(direction)
            if matrix is None:
                origin = self._origins.get(direction)
                if origin is None:
                    from repro.transform.adjacency import build_csr

                    matrix = build_csr(self.kg, direction=direction)
                else:
                    matrix = _merged_csr(*origin, self.kg, direction)
                self._csr[direction] = matrix
                self._origins.pop(direction, None)
                self.builds += 1
            else:
                self.hits += 1
            return matrix

    # -- indices --

    @property
    def hexastore(self) -> Hexastore:
        """The graph's (lazily built) six-permutation index."""
        return self.kg.hexastore

    # -- walk engines --

    def walk_engine(self, direction: "Direction" = "both") -> "RandomWalkEngine":
        """Shared random-walk engine over the cached CSR projection."""
        with self._lock:
            engine = self._engines.get(direction)
            if engine is None:
                from repro.sampling.walks import RandomWalkEngine

                engine = RandomWalkEngine(
                    self.kg, direction=direction, adjacency=self.csr(direction)
                )
                self._engines[direction] = engine
                self.builds += 1
            else:
                self.hits += 1
            return engine

    # -- heterogeneous stacks --

    def hetero(
        self, add_reverse: bool = True, normalize: bool = True
    ) -> "HeteroAdjacency":
        """Per-relation adjacency stack (memoized per flag combination)."""
        key = (add_reverse, normalize)
        with self._lock:
            stack = self._hetero.get(key)
            if stack is None:
                from repro.transform.adjacency import build_hetero_adjacency

                stack = build_hetero_adjacency(
                    self.kg, add_reverse=add_reverse, normalize=normalize
                )
                self._hetero[key] = stack
                self.builds += 1
            else:
                self.hits += 1
            return stack

    # -- warm-up hook (serving registration / pool workers) --

    #: Artifact kinds :meth:`warm` understands.
    WARM_KINDS = ("csr", "walk", "hexastore", "hetero")

    def warm(self, kinds: Tuple[str, ...] = ("csr",)) -> None:
        """Build the named artifacts now instead of on the first request.

        The serving layer calls this at graph-registration time (in pool
        mode: inside the owning worker processes) so the first request's
        latency matches steady state.  ``kinds`` is a subset of
        :data:`WARM_KINDS`; ``"hexastore"`` constructs the index object —
        its individual orderings still build on first use, which is the
        documented lazy contract.
        """
        for kind in kinds:
            if kind == "csr":
                self.csr("both")
            elif kind == "walk":
                self.walk_engine("both")
            elif kind == "hexastore":
                self.hexastore  # noqa: B018 - lazy property, touch to build
            elif kind == "hetero":
                self.hetero()
            else:
                raise ValueError(
                    f"unknown artifact kind {kind!r}; choose from {self.WARM_KINDS}"
                )

    # -- accounting --

    def _artifact_arrays(self) -> Iterator[np.ndarray]:
        """Every array of every artifact built so far (caller holds the lock)."""
        for matrix in self._csr.values():
            yield matrix.data
            yield matrix.indices
            yield matrix.indptr
        for stack in self._hetero.values():
            for matrix in stack.matrices:
                yield matrix.data
                yield matrix.indices
                yield matrix.indptr
        if self.kg._hexastore is not None:
            yield from self.kg._hexastore.iter_arrays()

    def nbytes(self) -> int:
        """Modeled *resident* (heap) bytes of all artifacts built so far.

        Memory-mapped arrays are excluded: their pages are clean page-cache
        pages shared by every process mapping the same artifact file, so
        counting them here would bill the same physical memory once per
        worker (see :meth:`mapped_nbytes` and ``docs/performance.md``).
        """
        with self._lock:
            return int(
                sum(a.nbytes for a in self._artifact_arrays() if not _is_mapped(a))
            )

    def mapped_nbytes(self) -> int:
        """Bytes of artifact *and raw-graph* arrays backed by a file mapping.

        This is the shared, at-most-once-physical footprint of an
        ``open_artifacts`` graph; it is 0 for in-memory builds.  The serving
        metrics report it alongside :meth:`nbytes` (max across workers, not
        summed) so ``/metrics`` never multiplies shared pages per worker.
        """
        kg_arrays = (
            self.kg.node_types,
            self.kg.triples.s,
            self.kg.triples.p,
            self.kg.triples.o,
            self.kg.literal_triples.s,
            self.kg.literal_triples.p,
            self.kg.literal_triples.o,
        )
        with self._lock:
            total = sum(a.nbytes for a in self._artifact_arrays() if _is_mapped(a))
            total += sum(a.nbytes for a in kg_arrays if _is_mapped(a))
            return int(total)

    def clear(self) -> None:
        """Drop every memoized artifact (they rebuild on next access)."""
        with self._lock:
            self._csr.clear()
            self._engines.clear()
            self._hetero.clear()


# Artifacts hang off the graph object itself (not a module-level registry):
# the kg <-> artifacts reference cycle is ordinary and cyclic-GC collected,
# whereas a WeakKeyDictionary whose values reference their keys would pin
# every graph forever.
_ATTRIBUTE = "_graph_artifacts"
_ATTACH_LOCK = threading.Lock()


def artifacts_for(kg: KnowledgeGraph) -> GraphArtifacts:
    """The shared :class:`GraphArtifacts` of ``kg`` (one per graph)."""
    artifacts = getattr(kg, _ATTRIBUTE, None)
    if artifacts is None:
        with _ATTACH_LOCK:
            artifacts = getattr(kg, _ATTRIBUTE, None)
            if artifacts is None:
                artifacts = GraphArtifacts(kg)
                setattr(kg, _ATTRIBUTE, artifacts)
    return artifacts


def clear_artifacts(kg: KnowledgeGraph) -> None:
    """Forget ``kg``'s cached artifacts (they rebuild on next access)."""
    with _ATTACH_LOCK:
        if getattr(kg, _ATTRIBUTE, None) is not None:
            delattr(kg, _ATTRIBUTE)

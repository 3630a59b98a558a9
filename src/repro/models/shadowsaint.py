"""ShaDow-GNN / ShaDowSAINT (Zeng et al., 2022): decoupled depth and scope.

Instead of sampling one big subgraph per step, ShaDow extracts a bounded
**ego-subgraph** (the *scope*) around every target node and runs an
arbitrarily deep GNN (the *depth*) inside it, reading out the root's
embedding.  Ego-graphs are materialised once at construction, then
minibatches assemble block-diagonal unions — each ego keeps its own copy of
shared nodes, as in the reference implementation.

Extraction runs through :func:`extract_ego_batch`, a multi-root lock-step
frontier expansion over the cached CSR: all roots advance one hop per numpy
step, fanout subsampling included.  Randomness is *content-addressed* —
each candidate edge gets a :func:`repro.nputil.splitmix64` key derived from
``(salt, root, hop, source, neighbour)`` and each over-fanout node keeps
the ``fanout`` smallest keys — so the batched kernel and the per-root
scalar oracle (:func:`extract_ego`) select bit-identical scopes no matter
the evaluation order, while every (salt, node) still draws a fresh uniform
subsample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.kg.cache import artifacts_for
from repro.kg.graph import KnowledgeGraph
from repro.core.tasks import NodeClassificationTask
from repro.models.base import MinibatchClassifier, ModelConfig, RGCNStack
from repro.nn.layers import Embedding, Linear
from repro.nn.tensor import Tensor
from repro.nputil import expand_ranges, rank_within_sorted_groups, splitmix64
from repro.training.resources import ResourceMeter, activation_bytes


@dataclass
class _EgoGraph:
    """One target's scope: global node ids (root first) + local edges."""

    nodes: np.ndarray  # global ids, nodes[0] == root
    src: np.ndarray  # local indices
    dst: np.ndarray  # local indices
    rel: np.ndarray  # global relation ids (forward only)


def _fanout_keys(
    salt: int,
    roots: np.ndarray,
    hop: int,
    sources: np.ndarray,
    neighbors: np.ndarray,
) -> np.ndarray:
    """Deterministic uniform key per (salt, root, hop, source, neighbour).

    Chained SplitMix64 finalizers: every stage feeds the next so keys are
    decorrelated across all four coordinates, and both the batched kernel
    and the scalar oracle can evaluate them in any order.
    """
    keys = splitmix64(np.uint64(salt) + np.asarray(roots).astype(np.uint64))
    keys = splitmix64(keys + np.uint64(hop))
    keys = splitmix64(keys + np.asarray(sources).astype(np.uint64))
    return splitmix64(keys + np.asarray(neighbors).astype(np.uint64))


def extract_ego(
    kg: KnowledgeGraph, root: int, depth: int = 2, fanout: int = 8, salt: int = 0
) -> _EgoGraph:
    """Fanout-capped BFS scope of one ``root`` plus its internal edges.

    The scalar reference oracle: per-node Python BFS over the cached CSR.
    :func:`extract_ego_batch` must reproduce its node order, edge order and
    fanout selections bit-for-bit.
    """
    adjacency = artifacts_for(kg).csr("both")
    indptr, indices = adjacency.indptr, adjacency.indices
    root = int(root)
    chosen: List[int] = [root]
    seen = {root}
    frontier: List[int] = [root]
    for hop in range(depth):
        next_frontier: List[int] = []
        for node in frontier:
            row = indices[indptr[node] : indptr[node + 1]].astype(np.int64)
            if len(row) > fanout:
                keys = _fanout_keys(
                    salt,
                    np.full(len(row), root, dtype=np.int64),
                    hop,
                    np.full(len(row), node, dtype=np.int64),
                    row,
                )
                winners = np.lexsort((row, keys))[:fanout]
                keep = np.zeros(len(row), dtype=bool)
                keep[winners] = True
                row = row[keep]
            for neighbor in row:
                neighbor = int(neighbor)
                if neighbor not in seen:
                    seen.add(neighbor)
                    chosen.append(neighbor)
                    next_frontier.append(neighbor)
        frontier = next_frontier
    nodes = np.asarray(chosen, dtype=np.int64)
    local_of = {int(node): i for i, node in enumerate(nodes)}
    src: List[int] = []
    dst: List[int] = []
    rel: List[int] = []
    store = kg.triples
    hexastore = kg.hexastore
    for node in chosen:
        for position in hexastore.match(subject=node):
            obj = int(store.o[position])
            if obj in local_of:
                src.append(local_of[node])
                dst.append(local_of[obj])
                rel.append(int(store.p[position]))
    return _EgoGraph(
        nodes=nodes,
        src=np.asarray(src, dtype=np.int64),
        dst=np.asarray(dst, dtype=np.int64),
        rel=np.asarray(rel, dtype=np.int64),
    )


def _ego_chunk_size(num_nodes: int) -> int:
    # Bound the per-chunk (chunk, n) visited/local-id state to ~8M cells.
    return max(int(8e6 // max(num_nodes, 1)), 1)


def extract_ego_batch(
    kg: KnowledgeGraph,
    roots: np.ndarray,
    depth: int = 2,
    fanout: int = 8,
    salt: int = 0,
    chunk_size: Optional[int] = None,
) -> List[_EgoGraph]:
    """Multi-root lock-step ego extraction (the batched BFS kernel).

    All roots advance one hop per numpy super-step over the cached CSR:
    neighbour gathering, fanout subsampling (smallest
    :func:`_fanout_keys`), per-root first-visit dedup and edge collection
    are whole-batch array operations.  Scopes are bit-identical to
    :func:`extract_ego` per root; roots are processed in memory-bounded
    chunks so ``(chunk, n)`` visited/local-id state stays small.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if fanout < 1:
        raise ValueError(f"fanout must be >= 1, got {fanout}")
    adjacency = artifacts_for(kg).csr("both")
    roots = np.asarray(roots, dtype=np.int64)
    if chunk_size is None:
        chunk_size = _ego_chunk_size(kg.num_nodes)
    egos: List[_EgoGraph] = []
    for start in range(0, len(roots), chunk_size):
        egos.extend(
            _extract_ego_chunk(
                kg, adjacency, roots[start : start + chunk_size], depth, fanout, salt
            )
        )
    return egos


def _extract_ego_chunk(
    kg: KnowledgeGraph,
    adjacency: sp.csr_matrix,
    roots: np.ndarray,
    depth: int,
    fanout: int,
    salt: int,
) -> List[_EgoGraph]:
    indptr, indices = adjacency.indptr, adjacency.indices
    degrees = np.diff(indptr).astype(np.int64)
    n = kg.num_nodes
    chunk = len(roots)
    row_base = np.arange(chunk, dtype=np.int64) * n
    visited = np.zeros(chunk * n, dtype=bool)
    visited[row_base + roots] = True

    # Per-hop (rows, nodes) blocks; concatenated later they give each row's
    # scope in exactly the scalar oracle's insertion order (root first).
    part_rows: List[np.ndarray] = [np.arange(chunk, dtype=np.int64)]
    part_nodes: List[np.ndarray] = [roots.copy()]
    frontier_rows, frontier_nodes = part_rows[0], roots
    for hop in range(depth):
        counts = degrees[frontier_nodes]
        neighbor = indices[expand_ranges(indptr[frontier_nodes], counts)].astype(np.int64)
        entry = np.repeat(np.arange(len(frontier_nodes), dtype=np.int64), counts)
        rows_rep = frontier_rows[entry]
        over = counts > fanout
        if over.any():
            # Subsample over-fanout nodes: keep the `fanout` smallest keys
            # per frontier entry (ties broken by neighbour id), preserving
            # CSR order among the survivors — same rule as the oracle.
            over_elements = over[entry]
            group = entry[over_elements]
            candidates = neighbor[over_elements]
            keys = _fanout_keys(
                salt,
                roots[rows_rep[over_elements]],
                hop,
                frontier_nodes[group],
                candidates,
            )
            order = np.lexsort((candidates, keys, group))
            ranks = rank_within_sorted_groups(group[order])
            keep_over = np.zeros(len(candidates), dtype=bool)
            keep_over[order[ranks < fanout]] = True
            keep = np.ones(len(neighbor), dtype=bool)
            keep[over_elements] = keep_over
            neighbor, rows_rep = neighbor[keep], rows_rep[keep]
        flat = row_base[rows_rep] + neighbor
        fresh = ~visited[flat]
        flat, rows_rep, neighbor = flat[fresh], rows_rep[fresh], neighbor[fresh]
        # First-occurrence dedup in frontier order == the oracle's
        # add-on-first-sight semantics (np.unique returns first indices).
        _unique, first = np.unique(flat, return_index=True)
        first.sort()
        visited[flat[first]] = True
        frontier_rows, frontier_nodes = rows_rep[first], neighbor[first]
        part_rows.append(frontier_rows)
        part_nodes.append(frontier_nodes)

    all_rows = np.concatenate(part_rows)
    all_nodes = np.concatenate(part_nodes)
    order = np.argsort(all_rows, kind="stable")
    grouped_rows, grouped_nodes = all_rows[order], all_nodes[order]
    node_counts = np.bincount(grouped_rows, minlength=chunk)
    node_starts = np.concatenate([[0], np.cumsum(node_counts)])
    local_ids = rank_within_sorted_groups(grouped_rows)
    local_of = np.zeros(chunk * n, dtype=np.int64)
    local_of[row_base[grouped_rows] + grouped_nodes] = local_ids

    # Internal edges of every ego with one batched subject lookup: the
    # "spo" index run of each (row, node), filtered to in-scope objects.
    store = kg.triples
    los, his, perm = kg.hexastore.batch_ranges({}, "s", grouped_nodes)
    edge_counts = his - los
    positions = perm[expand_ranges(los, edge_counts)]
    edge_rows = np.repeat(grouped_rows, edge_counts)
    edge_src = np.repeat(grouped_nodes, edge_counts)
    objects = store.o[positions].astype(np.int64)
    member = visited[row_base[edge_rows] + objects]
    edge_rows, edge_src = edge_rows[member], edge_src[member]
    objects, positions = objects[member], positions[member]
    src_local = local_of[row_base[edge_rows] + edge_src]
    dst_local = local_of[row_base[edge_rows] + objects]
    relations = store.p[positions].astype(np.int64)
    per_row_edges = np.bincount(edge_rows, minlength=chunk)
    edge_starts = np.concatenate([[0], np.cumsum(per_row_edges)])

    egos: List[_EgoGraph] = []
    for row in range(chunk):
        node_lo, node_hi = node_starts[row], node_starts[row + 1]
        edge_lo, edge_hi = edge_starts[row], edge_starts[row + 1]
        egos.append(
            _EgoGraph(
                nodes=grouped_nodes[node_lo:node_hi].copy(),
                src=src_local[edge_lo:edge_hi].copy(),
                dst=dst_local[edge_lo:edge_hi].copy(),
                rel=relations[edge_lo:edge_hi].copy(),
            )
        )
    return egos


class ShaDowSAINTClassifier(MinibatchClassifier):
    """Ego-subgraph RGCN with root readout (the ShaDowSAINT regime)."""

    name = "ShaDowSAINT"
    #: Constructor kwargs a checkpoint records (the rest is in ModelConfig).
    checkpoint_kwargs = ("depth", "fanout")

    def __init__(
        self,
        kg: KnowledgeGraph,
        task: NodeClassificationTask,
        config: ModelConfig,
        meter: Optional[ResourceMeter] = None,
        depth: int = 2,
        fanout: int = 8,
    ):
        super().__init__(kg, task, config)
        self.depth = depth
        self.fanout = fanout
        rng = config.rng()
        self.num_base_relations = kg.num_edge_types
        num_relations = 2 * max(self.num_base_relations, 1)
        self.embedding = Embedding(kg.num_nodes, config.hidden_dim, rng)
        dims = [config.hidden_dim] * (config.num_layers + 1)
        self.stack = RGCNStack(num_relations, dims, rng, dropout=config.dropout)
        self.readout = Linear(config.hidden_dim, task.num_labels, rng)

        # Content-addressed sampling salt: per-config-seed determinism with
        # fresh subsamples per seed, evaluated identically by the batched
        # kernel and the scalar oracle.
        self._ego_salt = int(rng.integers(0, 2**63))
        self._egos: List[_EgoGraph] = extract_ego_batch(
            kg, task.target_nodes, depth=depth, fanout=fanout, salt=self._ego_salt
        )
        # Flat views over the ego set: one concatenation at construction
        # replaces the per-ego concatenations every minibatch assembly
        # used to do.  Slices stay in ego order, so gathers out of these
        # arrays are bit-identical to concatenating the per-ego arrays.
        empty = np.empty(0, np.int64)
        self._node_sizes = np.asarray([len(e.nodes) for e in self._egos], dtype=np.int64)
        self._edge_sizes = np.asarray([len(e.src) for e in self._egos], dtype=np.int64)
        self._node_starts = np.concatenate([[0], np.cumsum(self._node_sizes)])
        self._edge_starts = np.concatenate([[0], np.cumsum(self._edge_sizes)])
        self._flat_nodes = (
            np.concatenate([e.nodes for e in self._egos]) if self._egos else empty
        )
        self._flat_src = (
            np.concatenate([e.src for e in self._egos]) if self._egos else empty
        )
        self._flat_dst = (
            np.concatenate([e.dst for e in self._egos]) if self._egos else empty
        )
        self._flat_rel = (
            np.concatenate([e.rel for e in self._egos]) if self._egos else empty
        )

        max_ego = max((len(e.nodes) for e in self._egos), default=1)
        flat = (self._flat_nodes, self._flat_src, self._flat_dst, self._flat_rel)
        self._build_optimizer(
            meter,
            {"ego-graphs": sum(array.nbytes for array in flat)},
            activation_bytes(
                max_ego * min(config.batch_size, max(task.num_targets, 1)),
                config.hidden_dim,
                config.num_layers,
                num_relations=num_relations,
            ),
        )

    # -- batch assembly --

    def _assemble(
        self, ego_indices: np.ndarray
    ) -> Tuple[np.ndarray, List[sp.csr_matrix], np.ndarray]:
        """Block-diagonal union of the selected egos.

        Returns (global node ids with duplicates, per-relation normalised
        CSR stack over local ids, root local positions).  Bit-identical to
        :meth:`_assemble_scalar` (kept below as the regression oracle):
        slice gathers out of the flat ego arrays preserve per-ego order,
        and the stable relation sort preserves edge order within each
        relation, so every CSR sees the same (rows, cols) sequence the
        per-relation boolean masks produced.
        """
        ego_indices = np.asarray(ego_indices, dtype=np.int64)
        sizes = self._node_sizes[ego_indices]
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        total = int(sizes.sum())
        nodes = _gather_slices(
            self._flat_nodes, self._node_starts[ego_indices], sizes, offsets, total
        )
        roots = offsets.copy()

        edge_sizes = self._edge_sizes[ego_indices]
        edge_offsets = np.concatenate([[0], np.cumsum(edge_sizes)[:-1]])
        num_edges = int(edge_sizes.sum())
        edge_starts = self._edge_starts[ego_indices]
        shift = np.repeat(offsets, edge_sizes)  # lift local ids per ego
        src = _gather_slices(self._flat_src, edge_starts, edge_sizes, edge_offsets, num_edges) + shift
        dst = _gather_slices(self._flat_dst, edge_starts, edge_sizes, edge_offsets, num_edges) + shift
        rel = _gather_slices(self._flat_rel, edge_starts, edge_sizes, edge_offsets, num_edges)

        num_rel = max(self.num_base_relations, 1)
        order = np.argsort(rel, kind="stable")
        bounds = np.searchsorted(rel[order], np.arange(num_rel + 1))
        matrices: List[sp.csr_matrix] = []
        # Forward direction: message object -> subject (rows are subjects).
        for relation in range(num_rel):
            sel = order[bounds[relation] : bounds[relation + 1]]
            matrices.append(_normalized_csr(src[sel], dst[sel], total))
        for relation in range(num_rel):
            sel = order[bounds[relation] : bounds[relation + 1]]
            matrices.append(_normalized_csr(dst[sel], src[sel], total))
        return nodes, matrices, roots

    def _assemble_scalar(
        self, ego_indices: np.ndarray
    ) -> Tuple[np.ndarray, List[sp.csr_matrix], np.ndarray]:
        """Reference per-ego assembly (oracle for :meth:`_assemble`).

        Kept verbatim so the regression suite can assert the flat-gather
        path reproduces it bit-for-bit.
        """
        egos = [self._egos[i] for i in ego_indices]
        sizes = np.asarray([len(e.nodes) for e in egos], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        total = int(sizes.sum())
        nodes = np.concatenate([e.nodes for e in egos])
        roots = offsets.copy()

        empty = np.empty(0, np.int64)
        src = np.concatenate([e.src + off for e, off in zip(egos, offsets)]) if total else empty
        dst = np.concatenate([e.dst + off for e, off in zip(egos, offsets)]) if total else empty
        rel = np.concatenate([e.rel for e in egos]) if total else np.empty(0, np.int64)

        num_rel = max(self.num_base_relations, 1)
        matrices: List[sp.csr_matrix] = []
        for relation in range(num_rel):
            mask = rel == relation
            matrices.append(_normalized_csr(src[mask], dst[mask], total))
        for relation in range(num_rel):
            mask = rel == relation
            matrices.append(_normalized_csr(dst[mask], src[mask], total))
        return nodes, matrices, roots

    # -- training / inference --

    def _forward(self, positions: np.ndarray) -> Tensor:
        nodes, matrices, roots = self._assemble(positions)
        hidden = self.stack(self.embedding(nodes), matrices)
        return self.readout(hidden.gather_rows(roots))

    def predict_logits(self) -> np.ndarray:
        outputs = []
        batch_size = self.config.batch_size
        with self._inference():
            for start in range(0, self.task.num_targets, batch_size):
                batch = np.arange(start, min(start + batch_size, self.task.num_targets))
                outputs.append(self._forward(batch).numpy())
        return (
            np.concatenate(outputs, axis=0)
            if outputs
            else np.empty((0, self.task.num_labels))
        )


def _gather_slices(
    flat: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    out_offsets: np.ndarray,
    total: int,
) -> np.ndarray:
    """Concatenate ``flat[starts[i] : starts[i] + sizes[i]]`` slices.

    One fancy-index gather instead of a per-slice concatenation loop:
    position ``j`` of the output lies inside slice ``i`` (the one whose
    ``out_offsets[i]`` it falls after), at within-slice offset
    ``j - out_offsets[i]``, i.e. flat index ``starts[i] + j - out_offsets[i]``.
    """
    return flat[np.repeat(starts - out_offsets, sizes) + np.arange(total)]


def _normalized_csr(rows: np.ndarray, cols: np.ndarray, size: int) -> sp.csr_matrix:
    """Row-normalised 0/1 CSR from an edge list."""
    if len(rows) == 0:
        return sp.csr_matrix((size, size))
    data = np.ones(len(rows), dtype=np.float64)
    matrix = sp.csr_matrix((data, (rows, cols)), shape=(size, size))
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    scale = np.divide(1.0, row_sums, out=np.zeros_like(row_sums), where=row_sums > 0)
    return (sp.diags(scale) @ matrix).tocsr()

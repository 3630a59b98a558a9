"""Triple → sparse-adjacency transformation (Figure 4's ``Data Transformation``).

Two projections are produced:

* a homogeneous CSR adjacency (:func:`build_csr`) used by random walks,
  PPR influence scores and BFS distance computations, and
* a per-relation stack of row-normalised CSR matrices
  (:func:`build_hetero_adjacency`) consumed by the RGCN-style models —
  one matrix per relation plus, optionally, one per reverse relation
  (message passing needs both directions even on a directed KG).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Literal, Optional

import numpy as np
import scipy.sparse as sp

from repro.kg.graph import KnowledgeGraph

Direction = Literal["out", "in", "both"]


def build_csr(kg: KnowledgeGraph, direction: Direction = "both") -> sp.csr_matrix:
    """Homogeneous 0/1 adjacency of ``kg`` as ``scipy.sparse.csr_matrix``.

    ``direction='both'`` symmetrises (the projection used by URW/BRW walks
    and PPR); ``'out'``/``'in'`` keep only one orientation.
    """
    n = kg.num_nodes
    s, o = kg.triples.s, kg.triples.o
    if direction == "out":
        rows, cols = s, o
    elif direction == "in":
        rows, cols = o, s
    elif direction == "both":
        rows = np.concatenate([s, o])
        cols = np.concatenate([o, s])
    else:  # pragma: no cover - guarded by Literal
        raise ValueError(f"unknown direction {direction!r}")
    data = np.ones(len(rows), dtype=np.float64)
    matrix = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    # Collapse multi-edges to 0/1 so walk probabilities are per-neighbour.
    matrix.data[:] = 1.0
    matrix.sum_duplicates()
    matrix.data[:] = 1.0
    return matrix


@dataclass
class HeteroAdjacency:
    """Per-relation adjacency stack for heterogeneous message passing.

    Attributes
    ----------
    matrices:
        One row-normalised CSR matrix per relation; when ``add_reverse`` the
        second half are the transposed relations (ids ``r + num_relations``).
    relation_names:
        Human-readable name per matrix (reverse relations get ``~rev``).
    num_nodes / num_relations:
        ``num_relations`` counts *matrices*, i.e. includes reverses.
    """

    matrices: List[sp.csr_matrix]
    relation_names: List[str]
    num_nodes: int
    transform_seconds: float = 0.0
    node_types: Optional[np.ndarray] = None

    @property
    def num_relations(self) -> int:
        return len(self.matrices)

    def nbytes(self) -> int:
        """Modeled bytes of all CSR buffers (Figure 4 AdjM footprint)."""
        total = 0
        for matrix in self.matrices:
            total += matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        return int(total)


def _row_normalize(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """Scale each row to sum 1 (the 1/c_{i,r} constant of RGCN, Eq. 1)."""
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    scale = np.divide(1.0, row_sums, out=np.zeros_like(row_sums), where=row_sums > 0)
    diagonal = sp.diags(scale)
    return (diagonal @ matrix).tocsr()


def build_hetero_adjacency(
    kg: KnowledgeGraph,
    add_reverse: bool = True,
    normalize: bool = True,
) -> HeteroAdjacency:
    """Build one (optionally normalised) CSR matrix per relation.

    Reverse relations double the stack; RGCN-style models treat them as
    extra edge types, matching PyG's ``to_undirected``-style preprocessing
    of heterogeneous KGs.
    """
    start = time.perf_counter()
    n = kg.num_nodes
    matrices: List[sp.csr_matrix] = []
    names: List[str] = []
    s, p, o = kg.triples.s, kg.triples.p, kg.triples.o
    order = np.argsort(p, kind="stable")
    s_sorted, p_sorted, o_sorted = s[order], p[order], o[order]
    boundaries = np.searchsorted(p_sorted, np.arange(kg.num_edge_types + 1))
    for relation in range(kg.num_edge_types):
        lo, hi = boundaries[relation], boundaries[relation + 1]
        rows, cols = s_sorted[lo:hi], o_sorted[lo:hi]
        data = np.ones(hi - lo, dtype=np.float64)
        matrix = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
        matrices.append(_row_normalize(matrix) if normalize else matrix)
        names.append(kg.relation_vocab.term(relation))
    if add_reverse:
        reverse_matrices = []
        for relation in range(kg.num_edge_types):
            lo, hi = boundaries[relation], boundaries[relation + 1]
            rows, cols = o_sorted[lo:hi], s_sorted[lo:hi]
            data = np.ones(hi - lo, dtype=np.float64)
            matrix = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
            reverse_matrices.append(_row_normalize(matrix) if normalize else matrix)
        matrices.extend(reverse_matrices)
        names.extend(f"{name}~rev" for name in names[: kg.num_edge_types])
    elapsed = time.perf_counter() - start
    return HeteroAdjacency(
        matrices=matrices,
        relation_names=names,
        num_nodes=n,
        transform_seconds=elapsed,
        node_types=kg.node_types.copy(),
    )

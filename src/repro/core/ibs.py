"""Algorithm 2 — Influence-Based Sampling (IBS).

Expands from target vertices to the neighbours that most influence their
final-layer embeddings (Equation 3).  Following the paper, the influence
score ``I(v, u)`` is approximated with Personalized PageRank
(Andersen–Chung–Lang push, :mod:`repro.sampling.ppr`): for each target the
top-``k`` highest-PPR neighbours are selected (``SelectTopK-Nodes``), the
pairs form a partition of ``bs`` targets (``getPartition``), and the
node-induced subgraph over the partition is KG′.

The per-target PPR pushes run through the vectorized batch kernel
(:func:`repro.sampling.ppr.batch_ppr_top_k`): all targets advance in
lock-step over flat numpy state instead of one pure-Python push per target
behind a GIL-bound thread pool.  The cost profile the paper reports —
IBS preprocessing is expensive *relative to index-backed extraction*
(Figure 8's time columns) — still holds, but the constant factor no longer
comes from interpreter overhead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.kg.cache import artifacts_for
from repro.kg.graph import KnowledgeGraph
from repro.core.tasks import GNNTask
from repro.sampling.ppr import batch_ppr_top_k
from repro.sampling.urw import SampledSubgraph


class InfluenceBasedSampler:
    """Task-oriented PPR sampling (paper Algorithm 2).

    Parameters
    ----------
    kg:
        The full knowledge graph.
    top_k:
        Influential neighbours kept per target (paper default 16).
    batch_size:
        ``bs`` — number of targets in the partition (paper default 20 000).
    alpha / eps:
        PPR teleport probability and push tolerance (paper: 0.25 / 2e-4).
    chunk_size:
        Targets per dense batch-kernel chunk; ``None`` sizes chunks to keep
        each dense kernel matrix around 64 MB (a few such matrices live at
        once — scores, residuals, queue state).
    """

    name = "IBS"

    def __init__(
        self,
        kg: KnowledgeGraph,
        top_k: int = 16,
        batch_size: int = 20000,
        alpha: float = 0.25,
        eps: float = 2e-4,
        chunk_size: Optional[int] = None,
    ):
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.kg = kg
        self.top_k = top_k
        self.batch_size = batch_size
        self.alpha = alpha
        self.eps = eps
        self.chunk_size = chunk_size

    @property
    def adjacency(self) -> sp.csr_matrix:
        """Undirected homogeneous projection used for influence scores."""
        return artifacts_for(self.kg).csr("both")

    def influence_pairs(self, targets: np.ndarray) -> Dict[int, List[Tuple[int, float]]]:
        """``getInfluenceScore`` + ``SelectTopK-Nodes`` for the whole batch."""
        return batch_ppr_top_k(
            self.adjacency,
            np.asarray(targets, dtype=np.int64),
            self.top_k,
            alpha=self.alpha,
            eps=self.eps,
            chunk_size=self.chunk_size,
        )

    def sample(self, task: GNNTask, rng: np.random.Generator) -> SampledSubgraph:
        """Run Algorithm 2 and return KG′ with its id mapping."""
        targets = task.target_nodes
        if len(targets) == 0:
            raise ValueError(f"task {task.name} has no target vertices")
        size = min(self.batch_size, len(targets))
        chosen = rng.choice(targets, size=size, replace=False)
        pairs = self.influence_pairs(chosen)
        partition: set[int] = {int(t) for t in chosen}
        for target, ranked in pairs.items():
            partition.update(node for node, _score in ranked)
        nodes = np.asarray(sorted(partition), dtype=np.int64)
        subgraph, mapping = self.kg.induced_subgraph(nodes, name=f"{self.kg.name}-ibs")
        return SampledSubgraph(
            subgraph=subgraph,
            mapping=mapping,
            root_nodes=np.asarray(chosen, dtype=np.int64),
            sampler=self.name,
        )

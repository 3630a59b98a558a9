"""SeHGNN (Yang et al., AAAI 2023): simple and efficient heterogeneous GNN.

SeHGNN's signature optimisation — the one the paper highlights in Section
II-B — is that neighbour aggregation happens **once, in preprocessing**:
for every metapath, mean-aggregated neighbour features of the target nodes
are precomputed, and training reduces to a per-target MLP with a semantic
attention over the metapath channels.  Training cost is therefore
independent of graph size after preprocessing, but the preprocessing and
the model width scale with the number of metapaths, i.e. with |R| — which
is exactly the dependency KG-TOSA shrinks.

Metapaths used: every relation in both orientations (length 1) plus the
``NUM_TWO_HOP`` most frequent length-2 compositions around the targets.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.kg.graph import KnowledgeGraph
from repro.core.tasks import NodeClassificationTask
from repro.models.base import MinibatchClassifier, ModelConfig
from repro.nn.layers import Linear, Parameter
from repro.nn.init import xavier_uniform
from repro.nn.tensor import Tensor, stack
from repro.training.resources import ResourceMeter
from repro.kg.cache import artifacts_for
from repro.transform.features import xavier_features

#: Length-2 metapaths kept: the first hops that reach the most targets.
NUM_TWO_HOP = 4


class SeHGNNClassifier(MinibatchClassifier):
    """Pre-aggregated metapath features + semantic attention + MLP."""

    name = "SeHGNN"
    #: Constructor kwargs a checkpoint records (the rest is in ModelConfig).
    checkpoint_kwargs = ("feature_dim",)

    def __init__(
        self,
        kg: KnowledgeGraph,
        task: NodeClassificationTask,
        config: ModelConfig,
        meter: Optional[ResourceMeter] = None,
        feature_dim: int = 32,
    ):
        super().__init__(kg, task, config)
        rng = config.rng()
        self.feature_dim = feature_dim

        adjacency = artifacts_for(kg).hetero(add_reverse=True, normalize=True)
        features = xavier_features(kg.num_nodes, feature_dim, rng)
        self.metapath_names, metapath_feats = self._preaggregate(
            adjacency.matrices, adjacency.relation_names, features
        )
        # (num_targets, num_metapaths, feature_dim) — frozen after preproc.
        self.metapath_features = np.stack(metapath_feats, axis=1)
        self.num_metapaths = len(self.metapath_names)

        hidden = config.hidden_dim
        self.projections = [
            Linear(feature_dim, hidden, rng) for _ in range(self.num_metapaths)
        ]
        for index, projection in enumerate(self.projections):
            setattr(self, f"proj_{index}", projection)
        self.attention_query = Parameter(xavier_uniform((hidden, 1), rng), name="attn_q")
        self.classifier = Linear(hidden, task.num_labels, rng)
        self._build_optimizer(
            meter,
            {
                "graph": adjacency.nbytes(),
                "features": int(features.nbytes),
                "metapath-features": int(self.metapath_features.nbytes),
            },
        )

    def _preaggregate(
        self,
        matrices: List[sp.csr_matrix],
        names: List[str],
        features: np.ndarray,
    ) -> Tuple[List[str], List[np.ndarray]]:
        """One-shot neighbour aggregation per metapath (rows = targets)."""
        targets = self.task.target_nodes
        target_rows = [m[targets] for m in matrices]
        metapath_names: List[str] = ["self"]
        aggregated: List[np.ndarray] = [features[targets]]
        for name, rows in zip(names, target_rows):
            metapath_names.append(name)
            aggregated.append(np.asarray(rows @ features))
        # Two-hop compositions: rank first hops by how many target rows they
        # reach, compose the best with every relation's full matrix.
        coverage = [int((rows.getnnz(axis=1) > 0).sum()) for rows in target_rows]
        first_hops = np.argsort(coverage)[::-1][:NUM_TWO_HOP]
        for first in first_hops:
            if coverage[first] == 0:
                continue
            second = int(np.argmax(coverage))
            composed = target_rows[first] @ matrices[second]
            metapath_names.append(f"{names[first]}->{names[second]}")
            aggregated.append(np.asarray(composed @ features))
        return metapath_names, aggregated

    def _forward(self, positions: np.ndarray) -> Tensor:
        """Logits for given target positions (semantic attention fusion)."""
        channels = []
        for index in range(self.num_metapaths):
            raw = Tensor(self.metapath_features[positions, index, :])
            channels.append(self.projections[index](raw).tanh())
        stacked = stack(channels, axis=1)  # (batch, M, hidden)
        batch, m, hidden = stacked.shape
        scores = stacked.reshape(batch * m, hidden) @ self.attention_query
        weights = scores.reshape(batch, m).softmax(axis=1)
        fused = (stacked * weights.reshape(batch, m, 1)).sum(axis=1)
        return self.classifier(fused)

    def predict_logits(self) -> np.ndarray:
        with self._inference():
            logits = self._forward(np.arange(self.task.num_targets))
        return logits.numpy()

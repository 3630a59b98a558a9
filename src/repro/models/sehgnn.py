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
``num_two_hop`` most frequent length-2 compositions around the targets.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.kg.graph import KnowledgeGraph
from repro.core.tasks import NodeClassificationTask
from repro.models.base import ModelConfig
from repro.nn.functional import cross_entropy
from repro.nn.layers import Linear, Module, Parameter
from repro.nn.init import xavier_uniform
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, no_grad, stack
from repro.training.resources import ResourceMeter
from repro.kg.cache import artifacts_for
from repro.transform.features import xavier_features


class SeHGNNClassifier(Module):
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
        num_two_hop: int = 4,
    ):
        super().__init__()
        self.kg = kg
        self.task = task
        self.config = config
        rng = config.rng()
        self.feature_dim = feature_dim

        adjacency = artifacts_for(kg).hetero(add_reverse=True, normalize=True)
        features = xavier_features(kg.num_nodes, feature_dim, rng)
        self.metapath_names, metapath_feats = self._preaggregate(
            adjacency.matrices, adjacency.relation_names, features, num_two_hop
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
        self.optimizer = Adam(self.parameters(), lr=config.lr, weight_decay=config.weight_decay)

        if meter is not None:
            meter.register("graph", adjacency.nbytes())
            meter.register("features", int(features.nbytes))
            meter.register("metapath-features", int(self.metapath_features.nbytes))
            meter.register("parameters", self.parameter_nbytes())
            meter.register("optimizer", 2 * self.parameter_nbytes())

    def _preaggregate(
        self,
        matrices: List[sp.csr_matrix],
        names: List[str],
        features: np.ndarray,
        num_two_hop: int,
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
        first_hops = np.argsort(coverage)[::-1][:num_two_hop]
        for first in first_hops:
            if coverage[first] == 0:
                continue
            second = int(np.argmax(coverage))
            composed = target_rows[first] @ matrices[second]
            metapath_names.append(f"{names[first]}->{names[second]}")
            aggregated.append(np.asarray(composed @ features))
        return metapath_names, aggregated

    def _forward_positions(self, positions: np.ndarray) -> Tensor:
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

    def train_epoch(self, rng: np.random.Generator) -> float:
        self.train()
        train_positions = rng.permutation(self.task.split.train)
        batch_size = self.config.batch_size
        losses = []
        for start in range(0, len(train_positions), batch_size):
            batch = train_positions[start : start + batch_size]
            logits = self._forward_positions(batch)
            loss = cross_entropy(logits, self.task.labels[batch])
            self.optimizer.zero_grad()
            loss.backward()
            self.optimizer.step()
            losses.append(loss.item())
        return float(np.mean(losses)) if losses else 0.0

    def predict_logits(self) -> np.ndarray:
        self.eval()
        with no_grad():
            logits = self._forward_positions(np.arange(self.task.num_targets))
        self.train()
        return logits.numpy()

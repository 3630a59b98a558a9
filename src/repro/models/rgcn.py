"""Full-batch RGCN (Schlichtkrull et al., ESWC 2018).

The paper's full-batch baseline: no sampling, every node participates in
every epoch (Section V-B1: "RGCN is a full-batch GNN method without
performing any sampling ... RGCN has the shortest training time, but it
consumes excessive memory").  The modeled-memory registration reflects
that: activations scale with ``|V| × hidden × |R|`` because the reference
implementation materialises one message matrix per relation.

Two heads are provided, matching the paper's usage: a node classifier
(``RGCN+`` in the paper's NC experiments) and a DistMult-decoded link
predictor (``RGCN-PYG`` in the LP experiments).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.core.tasks import LinkPredictionTask, NodeClassificationTask
from repro.models.base import LinkPredictor, Model, ModelConfig, RGCNStack
from repro.nn.functional import cross_entropy
from repro.nn.layers import Embedding
from repro.nn.tensor import Tensor
from repro.training.resources import ResourceMeter, activation_bytes
from repro.kg.cache import artifacts_for


class RGCNNodeClassifier(Model):
    """Full-batch RGCN for single-label node classification."""

    name = "RGCN"
    #: Full-batch training holds every node's activations from the start;
    #: a sampled subclass registers its subgraph's per step instead.
    full_batch = True

    def __init__(
        self,
        kg: KnowledgeGraph,
        task: NodeClassificationTask,
        config: ModelConfig,
        meter: Optional[ResourceMeter] = None,
    ):
        super().__init__(kg, task, config)
        rng = config.rng()
        self.adjacency = artifacts_for(kg).hetero(add_reverse=True, normalize=True)
        self.embedding = Embedding(kg.num_nodes, config.hidden_dim, rng)
        dims = [config.hidden_dim] * config.num_layers + [task.num_labels]
        self.stack = RGCNStack(self.adjacency.num_relations, dims, rng, dropout=config.dropout)
        self._build_optimizer(
            meter,
            {"graph": self.adjacency.nbytes()},
            self._activations(kg.num_nodes) if self.full_batch else None,
        )

    def _activations(self, num_nodes: int) -> int:
        """Modeled activation bytes of one forward over ``num_nodes`` nodes."""
        return activation_bytes(
            num_nodes,
            self.config.hidden_dim,
            self.config.num_layers,
            num_relations=self.adjacency.num_relations,
        )

    def _forward_all(self) -> Tensor:
        """Full-graph logits for every node."""
        return self.stack(self.embedding.all(), self.adjacency.matrices)

    def _loss(self, logits: Tensor, labels: np.ndarray) -> Tensor:
        return cross_entropy(logits, labels)

    def train_epoch(self, rng: np.random.Generator) -> float:
        """One full-batch gradient step over the training targets."""
        self.train()
        train = self.task.split.train
        logits = self._forward_all().gather_rows(self.task.target_nodes[train])
        return self._step(self._loss(logits, self.task.labels[train]))

    def predict_logits(self) -> np.ndarray:
        """Logits for every task target position (inference mode)."""
        with self._inference():
            logits = self._forward_all().gather_rows(self.task.target_nodes)
        return logits.numpy()


class RGCNLinkPredictor(LinkPredictor):
    """Full-batch RGCN encoder with a DistMult decoder (the RGCN LP setup)."""

    name = "RGCN"
    relation_table = "relation_embedding"

    def __init__(
        self,
        kg: KnowledgeGraph,
        task: LinkPredictionTask,
        config: ModelConfig,
        meter: Optional[ResourceMeter] = None,
    ):
        super().__init__(kg, task, config)
        rng = config.rng()
        self.adjacency = artifacts_for(kg).hetero(add_reverse=True, normalize=True)
        num_relations = self.adjacency.num_relations
        self.embedding = Embedding(kg.num_nodes, config.hidden_dim, rng)
        dims = [config.hidden_dim] * (config.num_layers + 1)
        self.stack = RGCNStack(num_relations, dims, rng, dropout=config.dropout)
        # DistMult relation diagonal for the task predicate.
        self.relation_embedding = Embedding(max(kg.num_edge_types, 1), config.hidden_dim, rng)
        self._build_optimizer(
            meter,
            {"graph": self.adjacency.nbytes()},
            activation_bytes(
                kg.num_nodes, config.hidden_dim, config.num_layers, num_relations=num_relations
            ),
        )

    def _encode(self) -> Tensor:
        return self.stack(self.embedding.all(), self.adjacency.matrices)

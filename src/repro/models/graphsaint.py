"""GraphSAINT (Zeng et al., ICLR 2020) adapted to heterogeneous KGs.

Subgraph-sampled minibatch training: each step draws a subgraph with the
uniform random-walk (URW) sampler — type-blind roots, the source of the
Figure 2 pathologies — trains the RGCN node classifier on it, and
evaluates on the full graph.

Training memory is dominated by the sampled subgraph, which the meter
reflects by registering per-step activation working sets at subgraph scale.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.core.tasks import NodeClassificationTask
from repro.models.base import ModelConfig, adjacency_nbytes, restrict_matrices
from repro.models.rgcn import RGCNNodeClassifier
from repro.nn.functional import cross_entropy
from repro.training.resources import ResourceMeter
from repro.kg.cache import artifacts_for

#: URW sampler: walk hops, uniform roots per subgraph, subgraphs per epoch.
WALK_LENGTH = 2
NUM_ROOTS = 512
STEPS_PER_EPOCH = 4


class GraphSAINTClassifier(RGCNNodeClassifier):
    """Subgraph-sampled RGCN node classifier (GraphSAINT regime)."""

    name = "GraphSAINT"
    full_batch = False

    def __init__(
        self,
        kg: KnowledgeGraph,
        task: NodeClassificationTask,
        config: ModelConfig,
        meter: Optional[ResourceMeter] = None,
    ):
        super().__init__(kg, task, config, meter)
        self.meter = meter
        # Position of each graph node in the task's target list (-1 = none).
        self._target_position = np.full(kg.num_nodes, -1, dtype=np.int64)
        self._target_position[task.target_nodes] = np.arange(task.num_targets)
        self._is_train = np.zeros(task.num_targets, dtype=bool)
        self._is_train[task.split.train] = True

    def _sample_nodes(self, rng: np.random.Generator) -> np.ndarray:
        """URW: walks from roots drawn uniformly over every node."""
        roots = rng.choice(
            self.kg.num_nodes, size=min(NUM_ROOTS, self.kg.num_nodes), replace=False
        )
        return artifacts_for(self.kg).walk_engine("both").walk(roots, WALK_LENGTH, rng)

    def train_epoch(self, rng: np.random.Generator) -> float:
        """``STEPS_PER_EPOCH`` sampled-subgraph gradient steps."""
        self.train()
        losses = []
        for _step in range(STEPS_PER_EPOCH):
            nodes = np.asarray(self._sample_nodes(rng), dtype=np.int64)
            matrices, nodes = restrict_matrices(self.adjacency, nodes)
            positions = self._target_position[nodes]
            has_target = positions >= 0
            train_mask = np.zeros(len(nodes), dtype=bool)
            train_mask[has_target] = self._is_train[positions[has_target]]
            if not train_mask.any():
                continue
            if self.meter is not None:
                self.meter.register("activations", self._activations(len(nodes)))
                self.meter.register("subgraph", adjacency_nbytes(matrices))
            logits = self.stack(self.embedding(nodes), matrices)
            local_targets = np.flatnonzero(train_mask)
            loss = cross_entropy(
                logits.gather_rows(local_targets),
                self.task.labels[positions[local_targets]],
            )
            losses.append(self._step(loss))
        return float(np.mean(losses)) if losses else 0.0

"""LHGNN (Nguyen et al., WWW 2023): link prediction on latent heterogeneous graphs.

LHGNN does not trust the observed type system; it learns **latent
channels** — soft mixtures over the observed relations — and aggregates
messages per channel before fusing them.  That makes it the strongest and
by far the most expensive LP method in the paper's evaluation (Figure 7:
highest Hits@10, "consumed excessive time and memory", did not finish on
the larger KGs).

The cost is intrinsic: every layer computes ``K × |R|`` sparse message
matrices.  The modeled memory registration reflects exactly that product,
which is why LHGNN hits the memory budget on full graphs where MorsE and
RGCN-on-KG′ survive.
"""

from __future__ import annotations

from typing import List, Optional

from repro.kg.graph import KnowledgeGraph
from repro.core.tasks import LinkPredictionTask
from repro.models.base import LinkPredictor, ModelConfig
from repro.nn.init import xavier_uniform
from repro.nn.layers import Embedding, Module, Parameter
from repro.nn.tensor import Tensor, spmm, stack
from repro.training.resources import ResourceMeter, activation_bytes
from repro.kg.cache import artifacts_for

#: Latent channels per layer (each a learned mixture over the relations).
NUM_CHANNELS = 3


class _LatentLayer(Module):
    """One latent-channel aggregation layer.

    Channel ``c`` mixes relations with softmax weights ``β_c``, aggregates
    ``Σ_r β_{c,r} A_r X W_c`` and channels are fused by a learned attention
    vector — a faithful miniature of LHGNN's latent metapath attention.
    """

    def __init__(self, num_relations: int, num_channels: int, in_dim: int, out_dim: int, rng):
        super().__init__()
        self.num_relations = num_relations
        self.num_channels = num_channels
        self.mixing = Parameter(
            xavier_uniform((num_channels, num_relations), rng), name="mixing"
        )
        for channel in range(num_channels):
            setattr(
                self,
                f"channel_{channel}",
                Parameter(xavier_uniform((in_dim, out_dim), rng), name=f"W_c{channel}"),
            )
        self.self_weight = Parameter(xavier_uniform((in_dim, out_dim), rng), name="W_self")
        self.fuse = Parameter(xavier_uniform((out_dim, 1), rng), name="fuse")

    def forward(self, x: Tensor, matrices) -> Tensor:
        weights = self.mixing.softmax(axis=1)  # (K, R)
        channel_outputs: List[Tensor] = []
        for channel in range(self.num_channels):
            aggregated: Optional[Tensor] = None
            for relation, matrix in enumerate(matrices):
                if matrix.nnz == 0:
                    continue
                message = spmm(matrix, x) * weights[channel, relation]
                aggregated = message if aggregated is None else aggregated + message
            if aggregated is None:
                aggregated = x * 0.0
            channel_outputs.append(
                (aggregated @ getattr(self, f"channel_{channel}")).tanh()
            )
        stacked = stack(channel_outputs, axis=1)  # (N, K, out)
        n, k, out_dim = stacked.shape
        scores = stacked.reshape(n * k, out_dim) @ self.fuse
        attention = scores.reshape(n, k).softmax(axis=1)
        fused = (stacked * attention.reshape(n, k, 1)).sum(axis=1)
        return fused + x @ self.self_weight


class LHGNNPredictor(LinkPredictor):
    """Latent-channel GNN encoder with a DistMult decoder."""

    name = "LHGNN"

    def __init__(
        self,
        kg: KnowledgeGraph,
        task: LinkPredictionTask,
        config: ModelConfig,
        meter: Optional[ResourceMeter] = None,
    ):
        super().__init__(kg, task, config)
        rng = config.rng()
        hidden = config.hidden_dim
        self.adjacency = artifacts_for(kg).hetero(add_reverse=True, normalize=True)
        num_relations = self.adjacency.num_relations
        self.embedding = Embedding(kg.num_nodes, hidden, rng)
        self.layer_one = _LatentLayer(num_relations, NUM_CHANNELS, hidden, hidden, rng)
        self.layer_two = _LatentLayer(num_relations, NUM_CHANNELS, hidden, hidden, rng)
        self.score_relation = Embedding(max(kg.num_edge_types, 1), hidden, rng)
        # K channels × |R| relations of materialised messages per layer:
        # the product that makes LHGNN the heaviest method in Figure 7.
        self._build_optimizer(
            meter,
            {"graph": self.adjacency.nbytes()},
            activation_bytes(kg.num_nodes, hidden, 2, num_relations=NUM_CHANNELS * num_relations),
        )

    def _encode(self) -> Tensor:
        hidden = self.layer_one(self.embedding.all(), self.adjacency.matrices)
        return self.layer_two(hidden, self.adjacency.matrices)

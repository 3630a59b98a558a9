"""MorsE (Chen et al., SIGIR 2022): entity-independent meta knowledge.

MorsE learns **entity-independent** knowledge: an entity's initial
embedding is composed from meta information — its class and the relations
it participates in — rather than from a per-entity table.  A light GNN
refines the initialisation, and a TransE decoder scores triples
(the paper evaluates "MorsE-TransE").

The construction here mirrors that recipe: type embeddings plus a
degree-normalised relation-incidence aggregation (a constant sparse
``|V| × 2|R|`` matrix times the relation embedding table), one RGCN-style
refinement layer, TransE margin training with corrupted tails.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.kg.graph import KnowledgeGraph
from repro.core.tasks import LinkPredictionTask
from repro.models.base import LinkPredictor, ModelConfig, RGCNStack, transe
from repro.nn.layers import Embedding
from repro.nn.tensor import Tensor, spmm
from repro.training.resources import ResourceMeter, activation_bytes
from repro.kg.cache import artifacts_for
from repro.transform.features import xavier_features


def _relation_incidence(kg: KnowledgeGraph) -> sp.csr_matrix:
    """Normalised ``|V| × 2|R|`` incidence: out-relations then in-relations."""
    num_rel = max(kg.num_edge_types, 1)
    rows = np.concatenate([kg.triples.s, kg.triples.o])
    cols = np.concatenate([kg.triples.p, kg.triples.p + num_rel])
    data = np.ones(len(rows), dtype=np.float64)
    matrix = sp.csr_matrix((data, (rows, cols)), shape=(kg.num_nodes, 2 * num_rel))
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    scale = np.divide(1.0, row_sums, out=np.zeros_like(row_sums), where=row_sums > 0)
    return (sp.diags(scale) @ matrix).tocsr()


class MorsEPredictor(LinkPredictor):
    """Entity-independent initialisation + RGCN refinement + TransE."""

    name = "MorsE"
    decoder = staticmethod(transe)

    def __init__(
        self,
        kg: KnowledgeGraph,
        task: LinkPredictionTask,
        config: ModelConfig,
        meter: Optional[ResourceMeter] = None,
    ):
        super().__init__(kg, task, config)
        rng = config.rng()
        num_rel = max(kg.num_edge_types, 1)
        hidden = config.hidden_dim

        self.type_embedding = Embedding(max(kg.num_node_types, 1), hidden, rng)
        self.relation_embedding = Embedding(2 * num_rel, hidden, rng)
        self.score_relation = Embedding(num_rel, hidden, rng)
        self.incidence = _relation_incidence(kg)
        # Fixed (non-trainable) node features: MorsE keeps its *parameters*
        # entity-independent but consumes node features as input data when
        # the KG provides them; without any per-node signal, same-type
        # entities are provably indistinguishable under row-normalised
        # aggregation.  Xavier features play the role of the paper's
        # randomly initialised node embeddings (Section V-A3).
        self.node_features = xavier_features(kg.num_nodes, hidden, rng)
        self.adjacency = artifacts_for(kg).hetero(add_reverse=True, normalize=True)
        self.refine = RGCNStack(
            self.adjacency.num_relations, [hidden, hidden], rng, dropout=config.dropout
        )
        incidence_bytes = (
            self.incidence.data.nbytes
            + self.incidence.indices.nbytes
            + self.incidence.indptr.nbytes
        )
        # MorsE's memory profile is far lighter than full-batch RGCN:
        # entity-independent init means no |V|-sized embedding table and
        # the single refinement layer does not materialise per-relation
        # messages (the reference implementation fuses them).
        self._build_optimizer(
            meter,
            {"graph": self.adjacency.nbytes() + incidence_bytes},
            activation_bytes(
                kg.num_nodes, hidden, 1, num_relations=1, relation_materialized=False
            ),
        )

    def _encode(self) -> Tensor:
        """Entity embeddings from meta information + fixed node features."""
        initial = (
            self.type_embedding(self.kg.node_types)
            + spmm(self.incidence, self.relation_embedding.all())
            + Tensor(self.node_features)
        )
        return self.refine(initial, self.adjacency.matrices)

"""Shared model building blocks and the two training bodies.

:class:`Model` is what every architecture shares: its graph, task and
config, one Adam optimizer with its modeled-memory registration, one
optimizer step and one inference context.  :class:`LinkPredictor` is the
one link-prediction body (margin-ranking step, tail-class candidate pool,
cached eval embeddings); an LP architecture declares only its encoder and
its decoder.  :class:`MinibatchClassifier` is the node-classification
body over shuffled minibatches of training targets.

:class:`RGCNLayer` implements Equation 1 of the paper:

    h_i^(l+1) = σ( Σ_{r∈R} Σ_{j∈N_i^r} (1/c_{i,r}) W_r^(l) h_j^(l)
                 + W_0^(l) h_i^(l) )

The ``1/c_{i,r}`` normalisation is baked into the row-normalised CSR
matrices produced by :func:`repro.transform.build_hetero_adjacency`; the
per-relation transforms are separate parameters so model size scales with
|R| — the effect KG-TOSA exploits (Table IV's model-size reduction).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.kg.graph import KnowledgeGraph
from repro.nn.functional import cross_entropy, margin_ranking_loss
from repro.nn.init import xavier_uniform
from repro.nn.layers import Module, Parameter
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, no_grad, spmm
from repro.training.resources import ResourceMeter
from repro.transform.adjacency import HeteroAdjacency


@dataclass
class ModelConfig:
    """Hyper-parameters shared across the HGNN methods.

    Defaults follow the paper's reported settings scaled to synthetic-size
    graphs (embedding dim 128 in the paper; 32 here keeps CI-speed runs).
    """

    hidden_dim: int = 32
    num_layers: int = 2
    dropout: float = 0.2
    lr: float = 0.01
    weight_decay: float = 0.0
    batch_size: int = 256
    num_negatives: int = 8
    margin: float = 1.0
    seed: int = 0

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


class RGCNLayer(Module):
    """One relational graph convolution (Eq. 1) over a matrix stack."""

    def __init__(
        self,
        num_relations: int,
        in_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        activation: bool = True,
    ):
        super().__init__()
        self.num_relations = num_relations
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.self_weight = Parameter(xavier_uniform((in_dim, out_dim), rng), name="W0")
        self.bias = Parameter(np.zeros(out_dim), name="bias")
        # One W_r per relation, registered individually so gradients touch
        # only the relations present in the current (sub)graph.
        for relation in range(num_relations):
            setattr(
                self,
                f"rel_{relation}",
                Parameter(xavier_uniform((in_dim, out_dim), rng), name=f"W_r{relation}"),
            )

    def relation_weight(self, relation: int) -> Parameter:
        return getattr(self, f"rel_{relation}")

    def forward(self, x: Tensor, matrices: Sequence[sp.csr_matrix]) -> Tensor:
        if len(matrices) != self.num_relations:
            raise ValueError(
                f"layer built for {self.num_relations} relations, got {len(matrices)}"
            )
        out = x @ self.self_weight + self.bias
        for relation, matrix in enumerate(matrices):
            if matrix.nnz == 0:
                continue
            out = out + spmm(matrix, x) @ self.relation_weight(relation)
        if self.activation:
            out = out.relu()
        return out


class RGCNStack(Module):
    """A stack of RGCN layers with inter-layer dropout."""

    def __init__(
        self,
        num_relations: int,
        dims: List[int],
        rng: np.random.Generator,
        dropout: float = 0.0,
        final_activation: bool = False,
    ):
        super().__init__()
        if len(dims) < 2:
            raise ValueError("dims must contain at least input and output sizes")
        self.dropout_rate = dropout
        self._rng = rng
        layers: List[RGCNLayer] = []
        for index in range(len(dims) - 1):
            is_last = index == len(dims) - 2
            layers.append(
                RGCNLayer(
                    num_relations,
                    dims[index],
                    dims[index + 1],
                    rng,
                    activation=final_activation or not is_last,
                )
            )
        for index, layer in enumerate(layers):
            setattr(self, f"layer_{index}", layer)
        self.num_layers = len(layers)

    def layer(self, index: int) -> RGCNLayer:
        return getattr(self, f"layer_{index}")

    def forward(self, x: Tensor, matrices: Sequence[sp.csr_matrix]) -> Tensor:
        hidden = x
        for index in range(self.num_layers):
            hidden = self.layer(index)(hidden, matrices)
            if self.dropout_rate > 0 and index < self.num_layers - 1:
                hidden = hidden.dropout(self.dropout_rate, self._rng, training=self.training)
        return hidden


def restrict_matrices(
    adjacency: HeteroAdjacency, nodes: np.ndarray
) -> tuple[List[sp.csr_matrix], np.ndarray]:
    """Slice every relation matrix to the induced subgraph over ``nodes``.

    Returns the sliced stack plus the (sorted, unique) node id array that
    defines the subgraph's local id space.
    """
    nodes = np.unique(np.asarray(nodes, dtype=np.int64))
    sliced = [matrix[nodes][:, nodes].tocsr() for matrix in adjacency.matrices]
    return sliced, nodes


def adjacency_nbytes(matrices: Sequence[sp.csr_matrix]) -> int:
    """Bytes held by a CSR stack (for modeled-memory registration)."""
    total = 0
    for matrix in matrices:
        total += matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    return int(total)


class Model(Module):
    """What every architecture shares.

    ``checkpoint_kwargs`` names the constructor options beyond
    ``(kg, task, config, meter)``; a checkpoint records their values, so a
    loaded model is rebuilt with them.
    """

    checkpoint_kwargs: Tuple[str, ...] = ()

    def __init__(self, kg: KnowledgeGraph, task, config: ModelConfig):
        super().__init__()
        self.kg = kg
        self.task = task
        self.config = config

    def _build_optimizer(
        self,
        meter: Optional[ResourceMeter],
        inputs: Dict[str, int],
        activations: Optional[int] = None,
    ) -> None:
        """Adam over every parameter, then the modeled memory in one order.

        ``inputs`` (graph, features, ...) first, then the parameters, the
        optimizer state (Adam's two moments) and the activations.
        """
        self.optimizer = Adam(
            self.parameters(), lr=self.config.lr, weight_decay=self.config.weight_decay
        )
        if meter is None:
            return
        for name, nbytes in inputs.items():
            meter.register(name, nbytes)
        meter.register("parameters", self.parameter_nbytes())
        meter.register("optimizer", 2 * self.parameter_nbytes())
        if activations is not None:
            meter.register("activations", activations)

    def _step(self, loss: Tensor) -> float:
        """One optimizer step on ``loss``; returns its value."""
        self.optimizer.zero_grad()
        loss.backward()
        self.optimizer.step()
        return loss.item()

    @contextmanager
    def _inference(self) -> Iterator[None]:
        """Eval mode without a tape, back in training mode afterwards."""
        self.eval()
        try:
            with no_grad():
                yield
        finally:
            self.train()


class MinibatchClassifier(Model):
    """Node classification over shuffled minibatches of training targets.

    A subclass declares ``_forward(positions)``: the logits of those task
    target positions.
    """

    def _forward(self, positions: np.ndarray) -> Tensor:
        raise NotImplementedError

    def train_epoch(self, rng: np.random.Generator) -> float:
        """One pass over the training targets, one step per minibatch."""
        self.train()
        positions = rng.permutation(self.task.split.train)
        batch_size = self.config.batch_size
        losses = []
        for start in range(0, len(positions), batch_size):
            batch = positions[start : start + batch_size]
            losses.append(self._step(cross_entropy(self._forward(batch), self.task.labels[batch])))
        return float(np.mean(losses)) if losses else 0.0


def distmult(h, relation, t):
    """DistMult ``Σ h ⊙ r ⊙ t`` per row (higher = more plausible)."""
    return (h * relation * t).sum(axis=1)


def transe(h, relation, t):
    """Negated L1 TransE distance ``-‖h + r - t‖₁`` per row."""
    return -abs(h + relation - t).sum(axis=1)


class LinkPredictor(Model):
    """Margin-ranking link prediction over an encoder and a decoder.

    A subclass declares ``_encode()`` (every node's embedding as one
    tensor), its ``decoder`` (:func:`distmult` or :func:`transe`; it scores
    tensors in training and arrays in :meth:`score_pairs`) and
    ``relation_table``, the embedding whose row ``task.predicate`` is the
    decoder's relation.  A scorer that is not an encoder-decoder overrides
    :meth:`_score` and :meth:`score_pairs` and keeps the step and the pool.
    """

    decoder = staticmethod(distmult)
    relation_table = "score_relation"
    #: Eval-mode node embeddings, kept until the next training step.
    _cached: Optional[np.ndarray] = None

    def _encode(self) -> Tensor:
        raise NotImplementedError

    def _score(self, embeddings: Tensor, heads: np.ndarray, tails: np.ndarray) -> Tensor:
        relation = getattr(self, self.relation_table).weight.gather_rows(
            np.full(len(heads), self.task.predicate, dtype=np.int64)
        )
        return self.decoder(embeddings.gather_rows(heads), relation, embeddings.gather_rows(tails))

    def train_epoch(self, rng: np.random.Generator) -> float:
        """One encode + margin step over sampled train edges.

        Each positive ``(head, tail)`` is ranked against ``(head, tail')``
        with ``tail'`` drawn from :meth:`candidate_pool`.
        """
        self.train()
        self._cached = None
        train_edges = self.task.edges[self.task.split.train]
        if len(train_edges) == 0:
            return 0.0
        batch = min(self.config.batch_size, len(train_edges))
        chosen = train_edges[rng.choice(len(train_edges), size=batch, replace=False)]
        negatives = rng.choice(self.candidate_pool(), size=batch)
        embeddings = self._encode()
        positive = self._score(embeddings, chosen[:, 0], chosen[:, 1])
        negative = self._score(embeddings, chosen[:, 0], negatives)
        return self._step(margin_ranking_loss(positive, negative, margin=self.config.margin))

    def candidate_pool(self) -> np.ndarray:
        """Tail candidates: every node of the task's tail class."""
        pool = self.kg.nodes_of_type(int(self.task.tail_class))
        return pool if len(pool) else np.arange(self.kg.num_nodes, dtype=np.int64)

    def score_pairs(self, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
        """Decoder scores over the eval-mode embeddings, cached until a step."""
        if self._cached is None:
            with self._inference():
                self._cached = self._encode().numpy()
        relation = getattr(self, self.relation_table).weight.data[int(self.task.predicate)]
        return self.decoder(self._cached[heads], relation, self._cached[tails])

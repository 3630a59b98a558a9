"""PathScore: KagNet-style relation-path scoring for link prediction.

KagNet (Lin et al., EMNLP 2019) scores a candidate fact by the *relation
paths* connecting its endpoints rather than by node embeddings alone.
This model brings that idea onto the repo's path-extraction substrate:
the simple directed paths between ``(head, tail)`` come from the same
hop-major :func:`~repro.sampling.paths.enumerate_paths_batch` kernel the
``/paths`` serving op uses, and the scorer is built on :mod:`repro.nn` so
it trains through :func:`~repro.training.trainer.train_link_predictor`
and checkpoints through :mod:`repro.nn.checkpoint` like every other LP
architecture.

Scoring pipeline, per ``(head, tail)`` pair:

1. **Relation-sequence embedding** — each enumerated path contributes its
   relation sequence ``(r_1 .. r_k)``; every relation id is embedded and
   gated by a learned per-hop-position vector, then mean-pooled over the
   sequence (the path vector).
2. **Path pooling** — path vectors mean-pool into one pair vector; a
   disconnected pair falls back to a learned *no-path* vector, so absence
   of evidence is itself a trainable signal.
3. **Decoding** — the pair vector maps through a ``tanh`` projection to a
   relation operator, scored DistMult-style against the endpoint node
   embeddings: ``score = Σ h ⊙ op(paths) ⊙ t``.

Path enumeration is structural (parameter-free), so enumerations are
memoized per pair across epochs and scoring calls; only the embeddings
and gates train.  ``score_pairs`` recomputes the same pipeline in plain
numpy from the trained parameters, which is what makes a checkpoint
round-trip reproduce predictions bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.tasks import LinkPredictionTask
from repro.kg.graph import KnowledgeGraph
from repro.models.base import LinkPredictor, ModelConfig
from repro.nn.init import xavier_uniform
from repro.nn.layers import Embedding, Parameter
from repro.nn.tensor import Tensor
from repro.sampling.paths import enumerate_paths_batch
from repro.training.resources import ResourceMeter


class PathScorePredictor(LinkPredictor):
    """Relation-path encoder with a path-conditioned DistMult decoder."""

    name = "PathScore"
    #: Constructor kwargs a checkpoint records (the rest is in ModelConfig).
    checkpoint_kwargs = ("max_hops", "max_paths")

    def __init__(
        self,
        kg: KnowledgeGraph,
        task: LinkPredictionTask,
        config: ModelConfig,
        meter: Optional[ResourceMeter] = None,
        max_hops: int = 3,
        max_paths: int = 16,
    ):
        super().__init__(kg, task, config)
        self.max_hops = int(max_hops)
        self.max_paths = int(max_paths)
        if self.max_hops < 1:
            raise ValueError(f"max_hops must be >= 1, got {max_hops}")
        if self.max_paths < 1:
            raise ValueError(f"max_paths must be >= 1, got {max_paths}")
        rng = config.rng()
        hidden = config.hidden_dim
        # One extra embedding row is the padding id for unused hop slots;
        # its contribution is always masked to zero, it just keeps the
        # gather dense.
        self._pad = max(kg.num_edge_types, 1)
        self.embedding = Embedding(kg.num_nodes, hidden, rng)
        self.relation_embedding = Embedding(self._pad + 1, hidden, rng)
        self.hop_gate = Parameter(
            np.ones((self.max_hops, hidden)), name="hop_gate"
        )
        self.no_path = Parameter(
            xavier_uniform((1, hidden), rng), name="no_path"
        )
        self.decode = Parameter(xavier_uniform((hidden, hidden), rng), name="decode")
        #: (head, tail) -> list of relation sequences (one per path).
        self._path_cache: Dict[Tuple[int, int], List[List[int]]] = {}
        # The padded (pairs × paths × hops) relation block one training
        # batch materializes.
        self._build_optimizer(
            meter, {}, 8 * config.batch_size * self.max_paths * self.max_hops * hidden
        )

    # -- path featurization (structural, cached) --

    def _relation_sequences(
        self, heads: np.ndarray, tails: np.ndarray
    ) -> List[List[List[int]]]:
        pairs = [(int(h), int(t)) for h, t in zip(heads, tails)]
        missing = sorted({pair for pair in pairs if pair not in self._path_cache})
        if missing:
            enumerated = enumerate_paths_batch(
                self.kg, missing, max_hops=self.max_hops, max_paths=self.max_paths
            )
            for pair, paths in zip(missing, enumerated):
                self._path_cache[pair] = [path[1::2] for path in paths]
        return [self._path_cache[pair] for pair in pairs]

    def _padded_batch(
        self, heads: np.ndarray, tails: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dense ``(B, max_paths, max_hops)`` relation ids + hop weights.

        ``weights[b, p, j]`` is ``1/len(path)`` on real hops and ``0`` on
        padding, so a masked sum over the hop axis is the per-path mean.
        ``counts[b]`` is the number of enumerated paths for pair ``b``.
        """
        sequences = self._relation_sequences(heads, tails)
        batch = len(sequences)
        relations = np.full(
            (batch, self.max_paths, self.max_hops), self._pad, dtype=np.int64
        )
        weights = np.zeros((batch, self.max_paths, self.max_hops))
        counts = np.zeros(batch)
        for b, paths in enumerate(sequences):
            counts[b] = len(paths)
            for p, rels in enumerate(paths):
                relations[b, p, : len(rels)] = rels
                weights[b, p, : len(rels)] = 1.0 / len(rels)
        return relations, weights, counts

    # -- training forward (autograd tensors) --

    def _pair_vectors(self, heads: np.ndarray, tails: np.ndarray) -> Tensor:
        relations, weights, counts = self._padded_batch(heads, tails)
        batch = len(counts)
        gathered = self.relation_embedding.weight.gather_rows(
            relations.reshape(-1)
        ).reshape(batch * self.max_paths, self.max_hops, -1)
        gated = gathered * self.hop_gate
        path_vectors = (
            gated * Tensor(weights.reshape(batch * self.max_paths, self.max_hops, 1))
        ).sum(axis=1)
        pooled = path_vectors.reshape(batch, self.max_paths, -1).sum(axis=1) * Tensor(
            1.0 / np.maximum(counts, 1.0).reshape(batch, 1)
        )
        connected = Tensor((counts > 0).astype(np.float64).reshape(batch, 1))
        return pooled * connected + self.no_path * (1.0 - connected)

    def _encode(self) -> Tensor:
        """The endpoint embeddings are a plain node table."""
        return self.embedding.weight

    def _score(self, embeddings: Tensor, heads: np.ndarray, tails: np.ndarray) -> Tensor:
        operator = (self._pair_vectors(heads, tails) @ self.decode).tanh()
        return self.decoder(embeddings.gather_rows(heads), operator, embeddings.gather_rows(tails))

    # -- inference (plain numpy over the trained parameters) --

    def score_pairs(self, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
        heads = np.asarray(heads, dtype=np.int64)
        tails = np.asarray(tails, dtype=np.int64)
        relations, weights, counts = self._padded_batch(heads, tails)
        rel_table = self.relation_embedding.weight.data
        path_vectors = (
            rel_table[relations] * self.hop_gate.data * weights[..., None]
        ).sum(axis=2)
        pooled = path_vectors.sum(axis=1) / np.maximum(counts, 1.0)[:, None]
        connected = (counts > 0)[:, None]
        pair_vectors = np.where(connected, pooled, self.no_path.data)
        operator = np.tanh(pair_vectors @ self.decode.data)
        node_table = self.embedding.weight.data
        return self.decoder(node_table[heads], operator, node_table[tails])

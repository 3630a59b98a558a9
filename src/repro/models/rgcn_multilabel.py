"""Full-batch RGCN for multi-label node classification.

Sigmoid-decoded variant of :class:`repro.models.rgcn.RGCNNodeClassifier`
for the multi-label half of Definition 2.2 (e.g. predicting a paper's
keywords): one logit per label, binary cross-entropy training, 0.5
threshold at inference.
"""

from __future__ import annotations

import numpy as np

from repro.models.rgcn import RGCNNodeClassifier
from repro.nn.functional import bce_with_logits
from repro.nn.tensor import Tensor


class RGCNMultiLabelClassifier(RGCNNodeClassifier):
    """Full-batch RGCN with an independent sigmoid head per label."""

    name = "RGCN-ML"

    def _loss(self, logits: Tensor, labels: np.ndarray) -> Tensor:
        return bce_with_logits(logits, labels.astype(np.float64))

    def predict_labels(self, threshold: float = 0.5) -> np.ndarray:
        """0/1 predictions for every target (sigmoid ≥ threshold)."""
        probabilities = 1.0 / (1.0 + np.exp(-self.predict_logits()))
        return (probabilities >= threshold).astype(np.int64)

"""Multi-label node classification (Definition 2.2, second half).

The paper defines multi-label NC ("predict the presence or absence of
multiple labels for each node, e.g., predicting keywords of a paper") but
evaluates only single-label tasks.  This module completes the definition:
a multi-label task type, its subgraph remapping, and micro-F1 — the usual
multi-label metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.kg.graph import KnowledgeGraph, SubgraphMapping
from repro.core.tasks import Split, surviving_targets


@dataclass
class MultiLabelNodeClassificationTask:
    """``NC(KG, V_T, c_T)`` with independent binary labels per target.

    ``labels`` is a ``(num_targets, num_labels)`` 0/1 matrix.
    """

    name: str
    target_class: int
    target_nodes: np.ndarray
    labels: np.ndarray
    split: Split
    metric: str = "micro-f1"
    kg_name: str = ""

    task_type: str = field(default="NC-ML", init=False)

    def __post_init__(self) -> None:
        self.target_nodes = np.asarray(self.target_nodes, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 2:
            raise ValueError("multi-label labels must be a 2-D 0/1 matrix")
        if len(self.target_nodes) != len(self.labels):
            raise ValueError(
                f"{len(self.target_nodes)} targets vs {len(self.labels)} label rows"
            )
        if not np.isin(self.labels, (0, 1)).all():
            raise ValueError("labels must be binary")

    @property
    def num_targets(self) -> int:
        return len(self.target_nodes)

    @property
    def num_labels(self) -> int:
        return int(self.labels.shape[1])

    def target_classes(self) -> List[int]:
        return [int(self.target_class)]


def remap_multilabel_task(
    task: MultiLabelNodeClassificationTask,
    subgraph: KnowledgeGraph,
    mapping: SubgraphMapping,
) -> MultiLabelNodeClassificationTask:
    """Re-express a multi-label task in a subgraph's id space."""
    keep, new_nodes = surviving_targets(task.target_nodes, mapping)
    return MultiLabelNodeClassificationTask(
        name=task.name,
        target_class=mapping.class_old_to_new.get(int(task.target_class), -1),
        target_nodes=new_nodes,
        labels=task.labels[keep] if len(keep) else np.empty((0, task.num_labels), dtype=np.int64),
        split=task.split.select(keep),
        metric=task.metric,
        kg_name=subgraph.name,
    )


def micro_f1(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Micro-averaged F1 over a 0/1 prediction/label matrix pair."""
    predictions = np.asarray(predictions, dtype=bool)
    labels = np.asarray(labels, dtype=bool)
    if predictions.shape != labels.shape:
        raise ValueError(f"shape mismatch: {predictions.shape} vs {labels.shape}")
    true_positive = int((predictions & labels).sum())
    false_positive = int((predictions & ~labels).sum())
    false_negative = int((~predictions & labels).sum())
    denominator = 2 * true_positive + false_positive + false_negative
    if denominator == 0:
        return 0.0
    return 2 * true_positive / denominator

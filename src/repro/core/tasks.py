"""GNN task definitions over knowledge graphs.

Implements Definition 2.2 (single-label node classification: predict a
label for every target vertex of class ``c_T``) and Definition 2.3 (missing
entity link prediction for a given predicate ``p_T``), together with the
train/valid/test split bookkeeping of Table II and the id-remapping needed
when a task "moves" from the full KG onto an extracted TOSG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from repro.kg.graph import KnowledgeGraph, SubgraphMapping
from repro.nputil import positions_in


@dataclass(frozen=True)
class Split:
    """Positional train/valid/test indices into a task's example array."""

    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    schema: str = "random"  # "random" (stratified) or "time" (Table II)

    def ratios(self) -> tuple[float, float, float]:
        """(train, valid, test) fractions — the Table II 'Split Ratio'."""
        total = len(self.train) + len(self.valid) + len(self.test)
        if total == 0:
            return (0.0, 0.0, 0.0)
        return (
            len(self.train) / total,
            len(self.valid) / total,
            len(self.test) / total,
        )

    def select(self, keep_positions: np.ndarray) -> "Split":
        """Restrict the split to surviving examples and re-index densely.

        ``keep_positions`` are old example positions that survive (sorted);
        each split part keeps its members and maps them to new positions.
        """

        def translate(part: np.ndarray) -> np.ndarray:
            moved = positions_in(keep_positions, part)
            return moved[moved >= 0]

        return Split(
            train=translate(self.train),
            valid=translate(self.valid),
            test=translate(self.test),
            schema=self.schema,
        )


@dataclass
class NodeClassificationTask:
    """Definition 2.2: ``NC(KG, V_T, c_T)`` with single-label targets.

    Attributes
    ----------
    target_class:
        ``c_T`` — class id of the target vertices in the host KG.
    target_nodes:
        ``V_T`` — node ids of the targets (defines example positions).
    labels:
        int label per target node, aligned with ``target_nodes``.
    """

    name: str
    target_class: int
    target_nodes: np.ndarray
    labels: np.ndarray
    num_labels: int
    split: Split
    metric: str = "accuracy"
    kg_name: str = ""

    task_type: str = field(default="NC", init=False)

    def __post_init__(self) -> None:
        self.target_nodes = np.asarray(self.target_nodes, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.target_nodes) != len(self.labels):
            raise ValueError(
                f"{len(self.target_nodes)} target nodes vs {len(self.labels)} labels"
            )
        if self.num_labels <= 0:
            raise ValueError("num_labels must be positive")

    @property
    def num_targets(self) -> int:
        return len(self.target_nodes)

    def target_classes(self) -> List[int]:
        """Classes whose instances the task targets (NC: just ``c_T``)."""
        return [int(self.target_class)]

    def describe(self) -> str:
        train, valid, test = self.split.ratios()
        return (
            f"NC {self.name}: {self.num_targets} targets of class {self.target_class}, "
            f"{self.num_labels} labels, split {train:.0%}/{valid:.0%}/{test:.0%} "
            f"({self.split.schema})"
        )


@dataclass
class LinkPredictionTask:
    """Definition 2.3: missing-entity prediction for one predicate ``p_T``.

    ``edges`` holds the known ``(head, tail)`` pairs connected by
    ``predicate``; the model ranks candidate tails for ``<h, p_T, ?>``
    (and candidate heads for ``<?, p_T, t>``).
    """

    name: str
    predicate: int
    head_class: int
    tail_class: int
    edges: np.ndarray  # (n, 2) int64
    split: Split
    metric: str = "hits@10"
    kg_name: str = ""

    task_type: str = field(default="LP", init=False)

    def __post_init__(self) -> None:
        self.edges = np.asarray(self.edges, dtype=np.int64)
        if self.edges.ndim != 2 or self.edges.shape[1] != 2:
            raise ValueError("edges must be an (n, 2) array of (head, tail) pairs")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def target_nodes(self) -> np.ndarray:
        """``V_T`` — every vertex participating in a task edge."""
        if self.num_edges == 0:
            return np.empty(0, dtype=np.int64)
        return np.unique(self.edges.ravel())

    def target_classes(self) -> List[int]:
        """Head and tail classes (deduplicated, order-preserving)."""
        classes = [int(self.head_class)]
        if int(self.tail_class) != int(self.head_class):
            classes.append(int(self.tail_class))
        return classes

    def describe(self) -> str:
        train, valid, test = self.split.ratios()
        return (
            f"LP {self.name}: {self.num_edges} edges of predicate {self.predicate}, "
            f"split {train:.1%}/{valid:.1%}/{test:.1%} ({self.split.schema})"
        )


GNNTask = Union[NodeClassificationTask, LinkPredictionTask]


def remap_nc_task(
    task: NodeClassificationTask,
    subgraph: KnowledgeGraph,
    mapping: SubgraphMapping,
) -> NodeClassificationTask:
    """Re-express an NC task in a subgraph's id space.

    Target nodes absent from the subgraph are dropped (with their labels and
    split entries); the target class id is translated through the mapping's
    class compaction.
    """
    keep, new_nodes = surviving_targets(task.target_nodes, mapping)
    new_class = mapping.class_old_to_new.get(int(task.target_class), -1)
    return NodeClassificationTask(
        name=task.name,
        target_class=new_class,
        target_nodes=new_nodes,
        labels=task.labels[keep] if len(keep) else np.empty(0, dtype=np.int64),
        num_labels=task.num_labels,
        split=task.split.select(keep),
        metric=task.metric,
        kg_name=subgraph.name,
    )


def surviving_targets(
    target_nodes: np.ndarray, mapping: SubgraphMapping
) -> tuple[np.ndarray, np.ndarray]:
    """``(positions, new ids)`` of the targets that survive in a subgraph."""
    new_ids = positions_in(mapping.node_old_ids, target_nodes)
    keep = np.flatnonzero(new_ids >= 0)
    return keep, new_ids[keep]


def remap_lp_task(
    task: LinkPredictionTask,
    subgraph: KnowledgeGraph,
    mapping: SubgraphMapping,
) -> LinkPredictionTask:
    """Re-express an LP task in a subgraph's id space (dropping lost edges)."""
    new_ends = positions_in(mapping.node_old_ids, task.edges)
    keep = np.flatnonzero((new_ends >= 0).all(axis=1))
    edges = new_ends[keep]
    return LinkPredictionTask(
        name=task.name,
        predicate=mapping.relation_old_to_new.get(int(task.predicate), -1),
        head_class=mapping.class_old_to_new.get(int(task.head_class), -1),
        tail_class=mapping.class_old_to_new.get(int(task.tail_class), -1),
        edges=edges,
        split=task.split.select(keep),
        metric=task.metric,
        kg_name=subgraph.name,
    )


def remap_task(task, subgraph: KnowledgeGraph, mapping: SubgraphMapping):
    """Dispatch to the NC, multi-label NC, or LP remapper."""
    if isinstance(task, NodeClassificationTask):
        return remap_nc_task(task, subgraph, mapping)
    if isinstance(task, LinkPredictionTask):
        return remap_lp_task(task, subgraph, mapping)
    from repro.core.multilabel import (  # local import breaks the cycle
        MultiLabelNodeClassificationTask,
        remap_multilabel_task,
    )

    if isinstance(task, MultiLabelNodeClassificationTask):
        return remap_multilabel_task(task, subgraph, mapping)
    raise TypeError(f"unsupported task type {type(task).__name__}")


def lp_task_from_predicate(
    kg: KnowledgeGraph,
    predicate: int,
    ratios: tuple[float, float, float] = (0.9, 0.05, 0.05),
    rng: Optional[np.random.Generator] = None,
    name: Optional[str] = None,
) -> LinkPredictionTask:
    """Derive an LP task from one predicate's existing edges.

    Used for KG-completion style workloads (Section V-B2): every relation
    becomes its own missing-entity task.  Head/tail classes are the
    *dominant* subject/object classes of the predicate.  Edges stay in the
    graph (this helper targets cost studies, not leakage-free accuracy
    evaluation — the benchmark catalog's LP tasks hold edges out properly).
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    predicate = int(predicate)
    if not 0 <= predicate < kg.num_edge_types:
        raise ValueError(f"unknown predicate id {predicate}")
    positions = kg.hexastore.match(predicate=predicate)
    if len(positions) == 0:
        raise ValueError(
            f"predicate {kg.relation_vocab.term(predicate)!r} has no edges"
        )
    heads = kg.triples.s[positions]
    tails = kg.triples.o[positions]
    head_class = int(np.bincount(kg.node_types[heads]).argmax())
    tail_class = int(np.bincount(kg.node_types[tails]).argmax())
    keep = (kg.node_types[heads] == head_class) & (kg.node_types[tails] == tail_class)
    edges = np.stack([heads[keep], tails[keep]], axis=1)

    order = rng.permutation(len(edges))
    train_ratio, valid_ratio, _ = ratios
    total = train_ratio + valid_ratio + ratios[2]
    train_end = int(round(len(edges) * train_ratio / total))
    valid_end = train_end + int(round(len(edges) * valid_ratio / total))
    split = Split(
        train=np.sort(order[:train_end]),
        valid=np.sort(order[train_end:valid_end]),
        test=np.sort(order[valid_end:]),
        schema="random",
    )
    return LinkPredictionTask(
        name=name or f"LP-{kg.relation_vocab.term(int(predicate))}",
        predicate=int(predicate),
        head_class=head_class,
        tail_class=tail_class,
        edges=edges,
        split=split,
        kg_name=kg.name,
    )

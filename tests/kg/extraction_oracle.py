"""The per-item forms the SPARQL KG′ extraction replaced, kept as oracles.

The program deduplicates triples with one ``lexsort``, builds
restricted vocabularies in bulk, remaps tasks through array lookups and
models endpoint bytes when they are read.  The functions here are the
forms they replaced, unchanged: ``np.unique(axis=0)`` over stacked rows,
one ``Vocabulary.add`` per kept term, one dict probe per target and per
split entry, and byte accounting after every query.  Every replacement
must give ``==`` arrays of the same dtype
(``tests/kg/test_extraction_equivalence.py``).

:func:`oracle_mode` swaps all of them into the library at once, so the
``sparql_tosg_extract`` benchmark times the same ``extract_tosg`` call
both ways.
"""

from __future__ import annotations

import contextlib
from typing import List

import numpy as np

from repro.core import multilabel, tasks
from repro.kg.graph import KnowledgeGraph
from repro.kg.triples import TripleStore
from repro.kg.vocabulary import Vocabulary
from repro.sparql.endpoint import SparqlEndpoint


def deduplicated(store: TripleStore) -> TripleStore:
    if len(store) == 0:
        return TripleStore()
    stacked = np.stack([store.s, store.p, store.o], axis=1)
    unique = np.unique(stacked, axis=0)
    return TripleStore(unique[:, 0], unique[:, 1], unique[:, 2])


def terms(vocab: Vocabulary, term_ids) -> List[str]:
    return [vocab.term(term_id) for term_id in term_ids]


def restrict(vocab: Vocabulary, keep_ids):
    new_vocab = Vocabulary(name=vocab.name)
    old_to_new: dict = {}
    for old_id in keep_ids:
        old_to_new[old_id] = new_vocab.add(vocab.term(old_id))
    return new_vocab, old_to_new


def select(split: tasks.Split, keep_positions) -> tasks.Split:
    keep_positions = np.asarray(keep_positions, dtype=np.int64)
    new_position = {int(old): new for new, old in enumerate(keep_positions)}

    def translate(part):
        return np.asarray(
            [new_position[int(i)] for i in part if int(i) in new_position],
            dtype=np.int64,
        )

    return tasks.Split(
        train=translate(split.train),
        valid=translate(split.valid),
        test=translate(split.test),
        schema=split.schema,
    )


def _surviving(target_nodes, mapping):
    keep_positions: List[int] = []
    new_nodes: List[int] = []
    for position, node in enumerate(target_nodes):
        new_id = mapping.node_old_to_new.get(int(node))
        if new_id is not None:
            keep_positions.append(position)
            new_nodes.append(new_id)
    return np.asarray(keep_positions, dtype=np.int64), np.asarray(new_nodes, dtype=np.int64)


def remap_nc_task(task, subgraph, mapping):
    keep, new_nodes = _surviving(task.target_nodes, mapping)
    return tasks.NodeClassificationTask(
        name=task.name,
        target_class=mapping.class_old_to_new.get(int(task.target_class), -1),
        target_nodes=new_nodes,
        labels=task.labels[keep] if len(keep) else np.empty(0, dtype=np.int64),
        num_labels=task.num_labels,
        split=select(task.split, keep),
        metric=task.metric,
        kg_name=subgraph.name,
    )


def remap_lp_task(task, subgraph, mapping):
    keep_positions: List[int] = []
    new_edges = []
    for position, (head, tail) in enumerate(task.edges):
        new_head = mapping.node_old_to_new.get(int(head))
        new_tail = mapping.node_old_to_new.get(int(tail))
        if new_head is not None and new_tail is not None:
            keep_positions.append(position)
            new_edges.append((new_head, new_tail))
    keep = np.asarray(keep_positions, dtype=np.int64)
    edges = (
        np.asarray(new_edges, dtype=np.int64)
        if new_edges
        else np.empty((0, 2), dtype=np.int64)
    )
    return tasks.LinkPredictionTask(
        name=task.name,
        predicate=mapping.relation_old_to_new.get(int(task.predicate), -1),
        head_class=mapping.class_old_to_new.get(int(task.head_class), -1),
        tail_class=mapping.class_old_to_new.get(int(task.tail_class), -1),
        edges=edges,
        split=select(task.split, keep),
        metric=task.metric,
        kg_name=subgraph.name,
    )


def remap_multilabel_task(task, subgraph, mapping):
    keep, new_nodes = _surviving(task.target_nodes, mapping)
    return multilabel.MultiLabelNodeClassificationTask(
        name=task.name,
        target_class=mapping.class_old_to_new.get(int(task.target_class), -1),
        target_nodes=new_nodes,
        labels=task.labels[keep] if len(keep) else np.empty((0, task.num_labels), dtype=np.int64),
        split=select(task.split, keep),
        metric=task.metric,
        kg_name=subgraph.name,
    )


@contextlib.contextmanager
def oracle_mode():
    """Run the library with every replaced form patched back in.

    ``_build_subgraph`` rebuilds its three maps with the per-item
    ``int()`` comprehension it used to run, and every endpoint query
    reads the byte counters at once (what eager accounting paid).
    """
    build_subgraph = KnowledgeGraph._build_subgraph
    query = SparqlEndpoint.query

    def build_subgraph_oracle(self, nodes, kept, name):
        subgraph, mapping = build_subgraph(self, nodes, kept, name)
        for attr in ("node_old_to_new", "class_old_to_new", "relation_old_to_new"):
            setattr(mapping, attr, {int(k): int(v) for k, v in getattr(mapping, attr).items()})
        return subgraph, mapping

    def query_oracle(self, parsed):
        result = query(self, parsed)
        self.stats.bytes_shipped
        return result

    patches = [
        (TripleStore, "deduplicated", deduplicated),
        (Vocabulary, "terms", terms),
        (Vocabulary, "restrict", restrict),
        (tasks.Split, "select", select),
        (tasks, "remap_nc_task", remap_nc_task),
        (tasks, "remap_lp_task", remap_lp_task),
        (multilabel, "remap_multilabel_task", remap_multilabel_task),
        (KnowledgeGraph, "_build_subgraph", build_subgraph_oracle),
        (SparqlEndpoint, "query", query_oracle),
    ]
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    try:
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)

"""The central :class:`KnowledgeGraph` container.

Follows Definition 2.1 of the paper: ``KG = (V, C, L, R, T)`` with vertices
``V`` typed by classes ``C``, literals ``L``, relations ``R`` and triples
``T``.  Every node carries exactly one class (``type(v) ∈ C``); entity→entity
triples live in a :class:`~repro.kg.triples.TripleStore` indexed by a lazy
:class:`~repro.kg.hexastore.Hexastore`; literal-valued triples are stored
separately (they carry node attributes, not graph structure).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.kg.hexastore import Hexastore
from repro.kg.triples import TripleStore
from repro.kg.vocabulary import Vocabulary


@dataclass
class SubgraphMapping:
    """Id remapping produced when extracting a subgraph.

    Attributes
    ----------
    node_old_ids:
        ``new_id -> old_id`` (position = new id in the subgraph).
    node_old_to_new:
        Sparse inverse map ``old_id -> new_id``.
    class_old_to_new / relation_old_to_new:
        Compaction maps for classes and relations that survive in the
        subgraph (the paper's |C′| and |R′|).
    """

    node_old_ids: np.ndarray
    node_old_to_new: Dict[int, int]
    class_old_to_new: Dict[int, int] = field(default_factory=dict)
    relation_old_to_new: Dict[int, int] = field(default_factory=dict)

    def to_old_nodes(self, new_ids: Iterable[int]) -> List[int]:
        """Map subgraph node ids back to original-graph ids."""
        return [int(self.node_old_ids[new_id]) for new_id in new_ids]

    def to_new_nodes(self, old_ids: Iterable[int]) -> List[int]:
        """Map original node ids to subgraph ids (skipping absent nodes)."""
        return [
            self.node_old_to_new[old_id]
            for old_id in old_ids
            if old_id in self.node_old_to_new
        ]


class KnowledgeGraph:
    """A directed heterogeneous multigraph ``KG = (V, C, L, R, T)``.

    Parameters
    ----------
    node_vocab / class_vocab / relation_vocab / literal_vocab:
        Interned term spaces for V, C, R and L.
    node_types:
        int64 array of length ``|V|``; ``node_types[v]`` is the class id of v.
    triples:
        Entity→entity edges (ids into ``node_vocab`` / ``relation_vocab``).
    literal_triples:
        Optional attribute edges whose object indexes ``literal_vocab``.
    """

    def __init__(
        self,
        node_vocab: Vocabulary,
        class_vocab: Vocabulary,
        relation_vocab: Vocabulary,
        node_types: np.ndarray,
        triples: TripleStore,
        literal_vocab: Optional[Vocabulary] = None,
        literal_triples: Optional[TripleStore] = None,
        name: str = "kg",
    ):
        self.name = name
        self.node_vocab = node_vocab
        self.class_vocab = class_vocab
        self.relation_vocab = relation_vocab
        self.literal_vocab = (
            literal_vocab if literal_vocab is not None else Vocabulary(name="literals")
        )
        self.node_types = np.asarray(node_types, dtype=np.int64)
        self.triples = triples
        self.literal_triples = literal_triples if literal_triples is not None else TripleStore()
        if len(self.node_types) != len(node_vocab):
            raise ValueError(
                f"node_types length {len(self.node_types)} != |V| {len(node_vocab)}"
            )
        if len(triples) > 0:
            max_node = max(int(triples.s.max()), int(triples.o.max()))
            if max_node >= len(node_vocab):
                raise ValueError(f"triple references node {max_node} >= |V| {len(node_vocab)}")
        self._hexastore: Optional[Hexastore] = None
        self._hexastore_lock = threading.Lock()
        self._nodes_by_type: Optional[Dict[int, np.ndarray]] = None
        self._out_degree: Optional[np.ndarray] = None
        self._in_degree: Optional[np.ndarray] = None

    # -- basic cardinalities (Definition 2.1 notation) --

    @property
    def num_nodes(self) -> int:
        """|V|."""
        return len(self.node_vocab)

    @property
    def num_edges(self) -> int:
        """|T| restricted to entity→entity edges."""
        return len(self.triples)

    @property
    def num_triples(self) -> int:
        """|T| including literal-valued (attribute) triples."""
        return len(self.triples) + len(self.literal_triples)

    @property
    def num_node_types(self) -> int:
        """|C|."""
        return len(self.class_vocab)

    @property
    def num_edge_types(self) -> int:
        """|R|."""
        return len(self.relation_vocab)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KnowledgeGraph(name={self.name!r}, |V|={self.num_nodes}, "
            f"|T|={self.num_edges}, |C|={self.num_node_types}, |R|={self.num_edge_types})"
        )

    # -- pickling (shipping a graph to a pool worker) --

    def __getstate__(self) -> Dict[str, object]:
        """Pickle only the raw graph, never its derived state.

        Locks are unpicklable, and every cache — the hexastore, degree
        arrays, ``nodes_of_type`` buckets, and the attached
        :class:`~repro.kg.cache.GraphArtifacts` — is process-local by
        contract: the receiving process (a serving pool worker) rebuilds
        its own shard of artifacts exactly once via ``artifacts_for``.
        Stripping them keeps a one-time graph shipment at the size of the
        triple arrays plus vocabularies.
        """
        state = self.__dict__.copy()
        state["_hexastore"] = None
        state["_hexastore_lock"] = None
        state["_nodes_by_type"] = None
        state["_out_degree"] = None
        state["_in_degree"] = None
        # Attached lazily by repro.kg.cache.artifacts_for; holds an RLock.
        state.pop("_graph_artifacts", None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._hexastore_lock = threading.Lock()

    # -- indices --

    @property
    def hexastore(self) -> Hexastore:
        """Lazily built six-permutation index over the entity triples."""
        if self._hexastore is None:
            # Double-checked so the SPARQL endpoint's worker threads share
            # one index (its own lazy builds are serialized internally).
            with self._hexastore_lock:
                if self._hexastore is None:
                    self._hexastore = Hexastore(self.triples)
        return self._hexastore

    def nodes_of_type(self, class_id: int) -> np.ndarray:
        """All node ids whose class is ``class_id`` (sorted)."""
        if self._nodes_by_type is None:
            order = np.argsort(self.node_types, kind="stable")
            sorted_types = self.node_types[order]
            boundaries = np.searchsorted(
                sorted_types, np.arange(self.num_node_types + 1)
            )
            self._nodes_by_type = {
                c: np.sort(order[boundaries[c] : boundaries[c + 1]])
                for c in range(self.num_node_types)
            }
        return self._nodes_by_type.get(int(class_id), np.empty(0, dtype=np.int64))

    def out_degree(self) -> np.ndarray:
        """Out-degree per node over entity triples."""
        if self._out_degree is None:
            self._out_degree = np.bincount(
                self.triples.s, minlength=self.num_nodes
            ).astype(np.int64)
        return self._out_degree

    def in_degree(self) -> np.ndarray:
        """In-degree per node over entity triples."""
        if self._in_degree is None:
            self._in_degree = np.bincount(self.triples.o, minlength=self.num_nodes).astype(np.int64)
        return self._in_degree

    def degree(self) -> np.ndarray:
        """Total (in + out) degree per node."""
        return self.out_degree() + self.in_degree()

    # -- neighbourhood access (delegates to the hexastore) --

    def out_neighbors(self, node: int) -> np.ndarray:
        """Objects of triples with subject ``node``."""
        return self.hexastore.out_neighbors(node)

    def in_neighbors(self, node: int) -> np.ndarray:
        """Subjects of triples with object ``node``."""
        return self.hexastore.in_neighbors(node)

    def neighbors(self, node: int, unique: bool = True) -> np.ndarray:
        """In+out neighbours of ``node``; ``unique=False`` skips the dedup
        sort (frontier-expansion fast path, see :meth:`Hexastore.neighbors`)."""
        return self.hexastore.neighbors(node, unique=unique)

    # -- memory accounting --

    def nbytes(self) -> int:
        """Modeled resident bytes of the raw graph (no indices)."""
        return int(self.node_types.nbytes) + self.triples.nbytes() + self.literal_triples.nbytes()

    # -- subgraph extraction --

    def induced_subgraph(
        self, nodes: np.ndarray, name: Optional[str] = None
    ) -> tuple["KnowledgeGraph", SubgraphMapping]:
        """Node-induced subgraph: keep triples with both endpoints in ``nodes``.

        This is the ``extractSubgraph`` step shared by Algorithms 1 and 2 of
        the paper.  Node, class and relation id spaces are all compacted so
        the returned KG reports the paper's |C′| and |R′| directly.
        """
        nodes = np.unique(np.asarray(nodes, dtype=np.int64))
        member = np.zeros(self.num_nodes, dtype=bool)
        member[nodes] = True
        keep = member[self.triples.s] & member[self.triples.o]
        kept = self.triples.mask(keep)
        return self._build_subgraph(nodes, kept, name or f"{self.name}-induced")

    def subgraph_from_triples(
        self,
        triples: TripleStore,
        name: Optional[str] = None,
        extra_nodes: Optional[np.ndarray] = None,
    ) -> tuple["KnowledgeGraph", SubgraphMapping]:
        """Subgraph containing exactly ``triples`` (plus their endpoints).

        This is the merge step of the SPARQL-based method: the union of the
        per-target-node triple sets *is* the TOSG.  ``extra_nodes`` forces
        additional (possibly isolated) nodes into the subgraph — used so
        edge-less target vertices keep their labels in KG′.
        """
        triples = triples.deduplicated()
        nodes = triples.unique_nodes()
        if extra_nodes is not None and len(extra_nodes):
            nodes = np.unique(np.concatenate([nodes, np.asarray(extra_nodes, dtype=np.int64)]))
        return self._build_subgraph(nodes, triples, name or f"{self.name}-triples")

    def _build_subgraph(
        self, nodes: np.ndarray, kept: TripleStore, name: str
    ) -> tuple["KnowledgeGraph", SubgraphMapping]:
        new_node_vocab, node_old_to_new = self.node_vocab.restrict(nodes.tolist())
        node_old_ids = nodes

        # Remap node ids through a dense lookup table.
        lookup = np.full(self.num_nodes, -1, dtype=np.int64)
        lookup[nodes] = np.arange(len(nodes), dtype=np.int64)
        new_s = lookup[kept.s]
        new_o = lookup[kept.o]

        # Compact surviving classes.
        old_types = self.node_types[nodes]
        surviving_classes = np.unique(old_types)
        new_class_vocab, class_old_to_new = self.class_vocab.restrict(surviving_classes.tolist())
        class_lookup = np.full(self.num_node_types, -1, dtype=np.int64)
        class_lookup[surviving_classes] = np.arange(len(surviving_classes), dtype=np.int64)
        new_types = class_lookup[old_types]

        # Compact surviving relations.
        surviving_relations = np.unique(kept.p) if len(kept) else np.empty(0, dtype=np.int64)
        new_relation_vocab, relation_old_to_new = self.relation_vocab.restrict(
            surviving_relations.tolist()
        )
        relation_lookup = np.full(max(self.num_edge_types, 1), -1, dtype=np.int64)
        if len(surviving_relations):
            relation_lookup[surviving_relations] = np.arange(
                len(surviving_relations), dtype=np.int64
            )
        new_p = relation_lookup[kept.p] if len(kept) else kept.p

        # Literal triples whose subject survives.
        lit = self.literal_triples
        if len(lit):
            lit_keep = lookup[lit.s] >= 0
            lit_kept = lit.mask(lit_keep)
            lit_relations = np.unique(lit_kept.p)
            missing = [int(r) for r in lit_relations if relation_lookup[r] < 0]
            for r in missing:
                relation_old_to_new[r] = new_relation_vocab.add(self.relation_vocab.term(r))
                relation_lookup[r] = relation_old_to_new[r]
            new_lit = TripleStore(lookup[lit_kept.s], relation_lookup[lit_kept.p], lit_kept.o)
        else:
            new_lit = TripleStore()

        subgraph = KnowledgeGraph(
            node_vocab=new_node_vocab,
            class_vocab=new_class_vocab,
            relation_vocab=new_relation_vocab,
            node_types=new_types,
            triples=TripleStore(new_s, new_p, new_o),
            literal_vocab=self.literal_vocab,
            literal_triples=new_lit,
            name=name,
        )
        # Every map was built from ``tolist()`` ids: plain int keys and values.
        mapping = SubgraphMapping(
            node_old_ids=node_old_ids,
            node_old_to_new=node_old_to_new,
            class_old_to_new=class_old_to_new,
            relation_old_to_new=relation_old_to_new,
        )
        return subgraph, mapping

    # -- construction helper used by generators and tests --

    @classmethod
    def build(
        cls,
        node_terms_and_types: Iterable[tuple[str, str]],
        triple_terms: Iterable[tuple[str, str, str]],
        name: str = "kg",
    ) -> "KnowledgeGraph":
        """Construct a KG from human-readable terms.

        ``node_terms_and_types`` yields ``(node_iri, class_iri)``;
        ``triple_terms`` yields ``(subject_iri, predicate_iri, object_iri)``.
        Convenient for tests and small fixtures.
        """
        node_vocab = Vocabulary(name="nodes")
        class_vocab = Vocabulary(name="classes")
        relation_vocab = Vocabulary(name="relations")
        types: List[int] = []
        for node_iri, class_iri in node_terms_and_types:
            node_id = node_vocab.add(node_iri)
            class_id = class_vocab.add(class_iri)
            if node_id == len(types):
                types.append(class_id)
            else:
                types[node_id] = class_id
        subjects, predicates, objects = [], [], []
        for s_iri, p_iri, o_iri in triple_terms:
            subjects.append(node_vocab.id(s_iri))
            predicates.append(relation_vocab.add(p_iri))
            objects.append(node_vocab.id(o_iri))
        return cls(
            node_vocab=node_vocab,
            class_vocab=class_vocab,
            relation_vocab=relation_vocab,
            node_types=np.asarray(types, dtype=np.int64),
            triples=TripleStore(subjects, predicates, objects),
            name=name,
        )

"""On-disk, memory-mapped graph artifact store (zero-copy serving).

The serving pool originally shipped every worker a pickled
:class:`~repro.kg.graph.KnowledgeGraph` and had each process rebuild its
indices locally — per-worker startup cost plus a per-shard RAM multiplier
(N workers → N resident copies of the same arrays).  This module writes the
graph *and* its derived artifacts once, as a single columnar file, and maps
it back read-only:

* :func:`save_artifacts` serializes the triple columns, node types,
  vocabularies, the three CSR projections (``both``/``out``/``in``) and all
  six hexastore orderings (permutation + gathered key columns) into one
  versioned artifact file;
* :func:`open_artifacts` memory-maps that file and returns a fully wired
  :class:`~repro.kg.cache.GraphArtifacts` whose arrays are read-only views
  into the mapping — no deserialization, no index builds, and every process
  that opens the same file shares the same physical page-cache pages.

The byte layout, its validation and its structural errors live in
:mod:`repro.sections` (this is its ``STORE`` kind: no per-section CRCs,
so opening stays O(header)); this module holds only the store's section
list and the graph wiring.  Vocabularies are stored as newline-joined
UTF-8 blobs (``uint8`` sections).  Every failure raises the structured
:class:`ArtifactStoreError` instead of returning garbage arrays.

Because the mapping is ``ACCESS_READ``, the views are write-protected:
kernels that accidentally mutate shared state fail loudly instead of
corrupting a neighbour worker's answers, which keeps the standing
bit-exactness contract honest.
"""

from __future__ import annotations

import os
from typing import Dict

import numpy as np

from repro import sections
from repro.kg.cache import GraphArtifacts
from repro.kg.graph import KnowledgeGraph
from repro.kg.hexastore import _ORDERS, Hexastore
from repro.kg.triples import TripleStore
from repro.kg.vocabulary import Vocabulary

#: Name of the artifact file inside the store directory.
ARTIFACT_FILENAME = "artifacts.tosg"

#: CSR projections persisted per graph (matches ``build_csr`` directions).
_CSR_DIRECTIONS = ("both", "out", "in")

#: Vocabulary sections: (section name, KnowledgeGraph attribute).
_VOCABS = (
    ("nodes", "node_vocab"),
    ("classes", "class_vocab"),
    ("relations", "relation_vocab"),
    ("literals", "literal_vocab"),
)


class ArtifactStoreError(RuntimeError):
    """A structured artifact-store failure (missing/corrupt/incompatible file)."""


STORE = sections.Kind(
    magic=b"TOSGART1",
    error=ArtifactStoreError,
    noun="artifact",
    remedy="rebuild with `repro build-artifacts`",
    missing="no artifact store at {path}; create one with `repro build-artifacts`",
    section_crc=False,
)


def _encode_vocab(vocab: Vocabulary) -> np.ndarray:
    """A vocabulary's terms as one newline-joined UTF-8 ``uint8`` blob."""
    terms = list(vocab)
    for term in terms:
        if "\n" in term:
            raise ArtifactStoreError(
                f"vocabulary {vocab.name!r} term {term!r} contains a newline; "
                "the artifact store encodes terms newline-separated"
            )
    blob = "\n".join(terms).encode("utf-8")
    return np.frombuffer(blob, dtype=np.uint8) if blob else np.empty(0, dtype=np.uint8)


class _LazyVocabulary(Vocabulary):
    """A vocabulary that defers blob decoding until a term is first needed.

    Opening a store must stay O(header): splitting N terms and building the
    intern dict dominates open time on large graphs, yet the serving
    kernels (PPR, ego nets, CSR walks) work on dense integer ids and never
    touch term strings.  ``len`` answers straight from the header count;
    the first term-level operation materializes both maps and validates the
    blob (raising :class:`ArtifactStoreError` on corruption) exactly as an
    eager decode would have.
    """

    __slots__ = ("_pending",)

    def __init__(self, blob: np.ndarray, count: int, name: str):
        super().__init__(name=name)
        self._pending = (blob, int(count))

    def _materialize(self) -> None:
        if self._pending is None:
            return
        blob, count = self._pending
        try:
            terms = blob.tobytes().decode("utf-8").split("\n") if count else []
        except UnicodeDecodeError as exc:
            raise ArtifactStoreError(
                f"vocabulary section {self.name!r} is not valid UTF-8: {exc}"
            ) from exc
        if len(terms) != count:
            raise ArtifactStoreError(
                f"vocabulary section {self.name!r} decoded to {len(terms)} terms, "
                f"header promises {count}"
            )
        self._id_to_term = terms
        self._term_to_id = dict(zip(terms, range(count)))
        if len(self._term_to_id) != count:
            raise ArtifactStoreError(
                f"vocabulary section {self.name!r} contains duplicate terms"
            )
        self._pending = None

    def __len__(self) -> int:
        if self._pending is not None:
            return self._pending[1]
        return super().__len__()

    def add(self, term):
        self._materialize()
        return super().add(term)

    def id(self, term):
        self._materialize()
        return super().id(term)

    def get(self, term, default=None):
        self._materialize()
        return super().get(term, default)

    def term(self, term_id):
        self._materialize()
        return super().term(term_id)

    def terms(self, term_ids):
        self._materialize()
        return super().terms(term_ids)

    def __contains__(self, term):
        self._materialize()
        return super().__contains__(term)

    def __iter__(self):
        self._materialize()
        return super().__iter__()

    def copy(self):
        self._materialize()
        return super().copy()


def _decode_vocab(blob: np.ndarray, count: int, name: str) -> Vocabulary:
    return _LazyVocabulary(blob, count, name)


def _collect_arrays(kg: KnowledgeGraph) -> Dict[str, np.ndarray]:
    """Every array section of ``kg``'s artifact file, in file order."""
    from repro.kg.cache import artifacts_for

    arrays: Dict[str, np.ndarray] = {
        "node_types": kg.node_types,
        "triples/s": kg.triples.s,
        "triples/p": kg.triples.p,
        "triples/o": kg.triples.o,
        "literal_triples/s": kg.literal_triples.s,
        "literal_triples/p": kg.literal_triples.p,
        "literal_triples/o": kg.literal_triples.o,
    }
    for section, attribute in _VOCABS:
        arrays[f"vocab/{section}"] = _encode_vocab(getattr(kg, attribute))
    artifacts = artifacts_for(kg)
    for direction in _CSR_DIRECTIONS:
        matrix = artifacts.csr(direction)
        arrays[f"csr/{direction}/data"] = matrix.data
        arrays[f"csr/{direction}/indices"] = matrix.indices
        arrays[f"csr/{direction}/indptr"] = matrix.indptr
    hexastore = kg.hexastore.materialize()
    for order in _ORDERS:
        index = hexastore._index(order)
        arrays[f"hexastore/{order}/perm"] = index.perm
        for level in range(3):
            arrays[f"hexastore/{order}/key{level}"] = index.key(level)
    return arrays


def save_artifacts(kg: KnowledgeGraph, directory: str) -> Dict[str, object]:
    """Write ``kg`` and its derived artifacts as one mappable file.

    Builds any missing artifacts (CSR projections, hexastore orderings)
    through the shared :func:`~repro.kg.cache.artifacts_for` cache, then
    serializes everything into ``directory/artifacts.tosg`` atomically
    (write-temp + rename).  Returns a small manifest dict
    (``path`` / ``nbytes`` / ``sections``).
    """
    arrays = _collect_arrays(kg)
    header = {
        "name": kg.name,
        "vocab_counts": {
            section: len(getattr(kg, attribute)) for section, attribute in _VOCABS
        },
    }
    path = os.path.join(directory, ARTIFACT_FILENAME)
    nbytes = sections.write(path, STORE, header, arrays)
    return {"path": path, "nbytes": nbytes, "sections": len(arrays)}


def open_artifacts(directory: str) -> GraphArtifacts:
    """Memory-map a saved artifact store back into serving shape.

    Returns a :class:`~repro.kg.cache.GraphArtifacts` (reachable again via
    ``artifacts_for(result.kg)``) whose CSR projections and hexastore
    orderings are read-only views into the file mapping — opening is
    O(header): vocabularies decode lazily on first term access, and the
    array pages fault in lazily and are shared by every process mapping the
    same file.
    """
    path = os.path.join(directory, ARTIFACT_FILENAME)
    header, arrays = sections.read(sections.map_file(path, STORE), path, STORE)
    try:
        vocabs = {
            section: _decode_vocab(
                arrays[f"vocab/{section}"], header["vocab_counts"][section], section
            )
            for section, _ in _VOCABS
        }
        kg = KnowledgeGraph(
            node_vocab=vocabs["nodes"],
            class_vocab=vocabs["classes"],
            relation_vocab=vocabs["relations"],
            node_types=arrays["node_types"],
            triples=TripleStore(arrays["triples/s"], arrays["triples/p"], arrays["triples/o"]),
            literal_vocab=vocabs["literals"],
            literal_triples=TripleStore(
                arrays["literal_triples/s"],
                arrays["literal_triples/p"],
                arrays["literal_triples/o"],
            ),
            name=header["name"],
        )
    except (KeyError, ValueError) as exc:
        raise ArtifactStoreError(f"{path}: inconsistent artifact contents: {exc}") from exc

    kg._hexastore = Hexastore.from_prebuilt(
        kg.triples,
        {
            order: (
                arrays[f"hexastore/{order}/perm"],
                [arrays[f"hexastore/{order}/key{level}"] for level in range(3)],
            )
            for order in _ORDERS
        },
    )

    import scipy.sparse as sp

    n = kg.num_nodes
    csr_matrices = {}
    for direction in _CSR_DIRECTIONS:
        csr_matrices[direction] = sp.csr_matrix(
            (
                arrays[f"csr/{direction}/data"],
                arrays[f"csr/{direction}/indices"],
                arrays[f"csr/{direction}/indptr"],
            ),
            shape=(n, n),
        )
    return GraphArtifacts.from_store(kg, csr_matrices, store_path=path)

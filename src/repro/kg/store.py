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

File format (version 1)
-----------------------
::

    bytes 0..7    magic  b"TOSGART1"
    bytes 8..11   format version   (<u4)
    bytes 12..15  header length    (<u4, bytes of JSON that follow)
    bytes 16..19  header CRC-32    (<u4, over the JSON bytes)
    bytes 20..    JSON header      {"name", "vocab_counts", "sections"}
    ...           zero padding to a 64-byte boundary
    ...           sections, each starting on a 64-byte boundary

Every section is a flat little-endian array described by the header's
``sections`` table (``{name: {"dtype", "shape", "offset", "nbytes"}}``;
offsets are relative to the 64-byte-aligned data start).  Vocabularies are
stored as newline-joined UTF-8 blobs (``uint8`` sections).  All structural
failure modes — missing file, wrong magic, unsupported version, corrupted
header, truncated or inconsistent sections — raise the structured
:class:`ArtifactStoreError` instead of returning garbage arrays.

Because the mapping is ``ACCESS_READ``, the views are write-protected:
kernels that accidentally mutate shared state fail loudly instead of
corrupting a neighbour worker's answers, which keeps the standing
bit-exactness contract honest.
"""

from __future__ import annotations

import json
import mmap
import os
import zlib
from typing import Dict, List, Tuple

import numpy as np

from repro.kg.cache import GraphArtifacts
from repro.kg.graph import KnowledgeGraph
from repro.kg.hexastore import _ORDERS, Hexastore
from repro.kg.triples import TripleStore
from repro.kg.vocabulary import Vocabulary

#: Name of the artifact file inside the store directory.
ARTIFACT_FILENAME = "artifacts.tosg"

_MAGIC = b"TOSGART1"
_FORMAT_VERSION = 1
_ALIGNMENT = 64
_PREAMBLE = len(_MAGIC) + 4 + 4 + 4  # magic + version + header length + CRC

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


def _align(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


def _little_endian(array: np.ndarray) -> np.ndarray:
    """Contiguous little-endian copy-if-needed of ``array``."""
    array = np.ascontiguousarray(array)
    if array.dtype.byteorder == ">":  # pragma: no cover - big-endian hosts only
        array = array.astype(array.dtype.newbyteorder("<"))
    return array


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
    arrays = {name: _little_endian(array) for name, array in _collect_arrays(kg).items()}

    sections: Dict[str, Dict[str, object]] = {}
    offset = 0
    for name, array in arrays.items():
        offset = _align(offset)
        sections[name] = {
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": offset,
            "nbytes": int(array.nbytes),
        }
        offset += array.nbytes

    header = {
        "name": kg.name,
        "vocab_counts": {
            section: len(getattr(kg, attribute)) for section, attribute in _VOCABS
        },
        "sections": sections,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")

    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, ARTIFACT_FILENAME)
    temp_path = path + ".tmp"
    with open(temp_path, "wb") as handle:
        handle.write(_MAGIC)
        preamble_words = [_FORMAT_VERSION, len(header_bytes), zlib.crc32(header_bytes)]
        handle.write(np.asarray(preamble_words, dtype="<u4").tobytes())
        handle.write(header_bytes)
        position = _PREAMBLE + len(header_bytes)
        data_start = _align(position)
        handle.write(b"\x00" * (data_start - position))
        position = 0  # now relative to data_start
        for name, array in arrays.items():
            target = sections[name]["offset"]
            handle.write(b"\x00" * (target - position))
            handle.write(array.tobytes())
            position = target + array.nbytes
    os.replace(temp_path, path)
    return {"path": path, "nbytes": os.path.getsize(path), "sections": len(sections)}


def _parse_header(buffer: mmap.mmap, path: str) -> Tuple[Dict[str, object], int]:
    """Validate preamble + header; returns ``(header, data_start)``."""
    if len(buffer) < _PREAMBLE:
        raise ArtifactStoreError(
            f"{path}: file is {len(buffer)} bytes, shorter than the "
            f"{_PREAMBLE}-byte preamble (truncated?)"
        )
    if buffer[: len(_MAGIC)] != _MAGIC:
        raise ArtifactStoreError(
            f"{path}: bad magic {bytes(buffer[:len(_MAGIC)])!r}; "
            "not a TOSG artifact file"
        )
    version, header_length, header_crc = np.frombuffer(
        buffer, dtype="<u4", count=3, offset=len(_MAGIC)
    )
    if int(version) != _FORMAT_VERSION:
        raise ArtifactStoreError(
            f"{path}: artifact format version {int(version)} is not supported "
            f"(this build reads version {_FORMAT_VERSION}); rebuild with "
            "`repro build-artifacts`"
        )
    if _PREAMBLE + int(header_length) > len(buffer):
        raise ArtifactStoreError(
            f"{path}: header overruns the file ({int(header_length)} header bytes "
            f"in a {len(buffer)}-byte file); truncated artifact"
        )
    header_bytes = buffer[_PREAMBLE : _PREAMBLE + int(header_length)]
    if zlib.crc32(header_bytes) != int(header_crc):
        raise ArtifactStoreError(f"{path}: header checksum mismatch; corrupted artifact")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactStoreError(f"{path}: unreadable artifact header: {exc}") from exc
    return header, _align(_PREAMBLE + int(header_length))


def _map_sections(
    buffer: mmap.mmap, header: Dict[str, object], data_start: int, path: str
) -> Dict[str, np.ndarray]:
    """Zero-copy ``np.frombuffer`` views for every section, bounds-checked."""
    arrays: Dict[str, np.ndarray] = {}
    for name, spec in header["sections"].items():
        dtype = np.dtype(spec["dtype"])
        if dtype.byteorder == ">":  # pragma: no cover - never written by save
            raise ArtifactStoreError(
                f"{path}: section {name!r} is big-endian; artifact files are "
                "little-endian by contract"
            )
        count = int(np.prod(spec["shape"], dtype=np.int64)) if spec["shape"] else 1
        expected = count * dtype.itemsize
        if expected != int(spec["nbytes"]):
            raise ArtifactStoreError(
                f"{path}: section {name!r} is internally inconsistent "
                f"({spec['nbytes']} bytes for shape {spec['shape']} {dtype})"
            )
        end = data_start + int(spec["offset"]) + expected
        if end > len(buffer):
            raise ArtifactStoreError(
                f"{path}: section {name!r} ends at byte {end} but the file has "
                f"only {len(buffer)}; truncated artifact"
            )
        view = np.frombuffer(
            buffer, dtype=dtype, count=count, offset=data_start + int(spec["offset"])
        )
        arrays[name] = view.reshape(spec["shape"])
    return arrays


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
    if not os.path.exists(path):
        raise ArtifactStoreError(
            f"no artifact store at {path}; create one with `repro build-artifacts`"
        )
    with open(path, "rb") as handle:
        try:
            buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as exc:  # zero-byte file
            raise ArtifactStoreError(f"{path}: cannot map artifact file: {exc}") from exc

    header, data_start = _parse_header(buffer, path)
    arrays = _map_sections(buffer, header, data_start, path)
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

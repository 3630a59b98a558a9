"""Columnar triple storage.

A :class:`TripleStore` keeps (subject, predicate, object) id triples in three
parallel numpy arrays.  This is the representation the rest of the stack
(hexastore indices, CSR transformation, SPARQL executor) builds on.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

Triple = Tuple[int, int, int]


class TripleStore:
    """Append-friendly columnar storage of integer triples.

    Parameters
    ----------
    subjects, predicates, objects:
        Optional initial columns; all three must have equal length.

    Notes
    -----
    The store deliberately does **not** deduplicate on append — RDF engines
    bulk-load and deduplicate on demand.  Use :meth:`deduplicated` to obtain
    a duplicate-free copy (this mirrors the ``dropDuplicates`` step of the
    paper's Algorithm 3).
    """

    __slots__ = ("s", "p", "o")

    def __init__(
        self,
        subjects: Optional[Sequence[int]] = None,
        predicates: Optional[Sequence[int]] = None,
        objects: Optional[Sequence[int]] = None,
    ):
        if subjects is None:
            subjects, predicates, objects = [], [], []
        if predicates is None or objects is None:
            raise ValueError("subjects, predicates and objects must be given together")
        self.s = np.asarray(subjects, dtype=np.int64)
        self.p = np.asarray(predicates, dtype=np.int64)
        self.o = np.asarray(objects, dtype=np.int64)
        if not (len(self.s) == len(self.p) == len(self.o)):
            raise ValueError(
                "column length mismatch: "
                f"{len(self.s)} subjects, {len(self.p)} predicates, {len(self.o)} objects"
            )

    @classmethod
    def from_triples(cls, triples: Iterable[Triple]) -> "TripleStore":
        """Build a store from an iterable of ``(s, p, o)`` tuples."""
        triples = list(triples)
        if not triples:
            return cls()
        arr = np.asarray(triples, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError("expected an iterable of (s, p, o) tuples")
        return cls(arr[:, 0], arr[:, 1], arr[:, 2])

    def __len__(self) -> int:
        return len(self.s)

    def __iter__(self) -> Iterator[Triple]:
        for i in range(len(self)):
            yield (int(self.s[i]), int(self.p[i]), int(self.o[i]))

    def __getitem__(self, index: int) -> Triple:
        return (int(self.s[index]), int(self.p[index]), int(self.o[index]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TripleStore):
            return NotImplemented
        return (
            np.array_equal(self.s, other.s)
            and np.array_equal(self.p, other.p)
            and np.array_equal(self.o, other.o)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TripleStore(n={len(self)})"

    def append(self, other: "TripleStore") -> "TripleStore":
        """Return a new store with ``other``'s triples appended."""
        return TripleStore(
            np.concatenate([self.s, other.s]),
            np.concatenate([self.p, other.p]),
            np.concatenate([self.o, other.o]),
        )

    def select(self, indices: np.ndarray) -> "TripleStore":
        """Return the sub-store at positional ``indices``."""
        indices = np.asarray(indices, dtype=np.int64)
        return TripleStore(self.s[indices], self.p[indices], self.o[indices])

    def mask(self, keep: np.ndarray) -> "TripleStore":
        """Return the sub-store where the boolean mask ``keep`` is True."""
        keep = np.asarray(keep, dtype=bool)
        return TripleStore(self.s[keep], self.p[keep], self.o[keep])

    def deduplicated(self) -> "TripleStore":
        """Return a copy without duplicate triples, sorted by ``(s, p, o)``.

        One ``lexsort`` over the three columns, then the first row of each
        run of equal triples: what ``np.unique`` over the stacked rows
        gives, for any int64 ids, without sorting rows as byte strings.
        """
        if len(self) == 0:
            return TripleStore()
        order = np.lexsort((self.o, self.p, self.s))
        s, p, o = self.s[order], self.p[order], self.o[order]
        first = _first_of_runs(s) | _first_of_runs(p) | _first_of_runs(o)
        return TripleStore(s[first], p[first], o[first])

    def as_array(self) -> np.ndarray:
        """Return an ``(n, 3)`` int64 array view of the triples."""
        return np.stack([self.s, self.p, self.o], axis=1)

    def to_set(self) -> set[Triple]:
        """Return the triples as a Python set (small stores / tests only)."""
        return set(map(tuple, self.as_array().tolist()))

    def nbytes(self) -> int:
        """Bytes consumed by the three columns (modeled-memory accounting)."""
        return int(self.s.nbytes + self.p.nbytes + self.o.nbytes)

    def unique_nodes(self) -> np.ndarray:
        """Sorted unique node ids appearing as subject or object."""
        if len(self) == 0:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate([self.s, self.o]))

    def unique_predicates(self) -> np.ndarray:
        """Sorted unique predicate ids."""
        return np.unique(self.p)


def _first_of_runs(values: np.ndarray) -> np.ndarray:
    """Mask of the elements that differ from their predecessor (first is True)."""
    first = np.empty(len(values), dtype=bool)
    first[0] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return first

"""String interning for RDF terms.

RDF engines map IRIs/literals to dense integer ids so that triples become
integer tuples amenable to sorted indices.  :class:`Vocabulary` provides the
bidirectional mapping used by every layer of the reproduction.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional


class Vocabulary:
    """A bidirectional mapping between terms (strings) and dense int ids.

    Ids are assigned contiguously starting at 0 in first-seen order, which
    keeps downstream numpy arrays dense and makes the id space directly
    usable as array indices.

    Example
    -------
    >>> vocab = Vocabulary()
    >>> vocab.add("ex:Paper1")
    0
    >>> vocab.add("ex:Paper1")
    0
    >>> vocab.term(0)
    'ex:Paper1'
    """

    __slots__ = ("_term_to_id", "_id_to_term", "name")

    def __init__(self, terms: Optional[Iterable[str]] = None, name: str = "vocab"):
        self._term_to_id: dict[str, int] = {}
        self._id_to_term: List[str] = []
        self.name = name
        if terms is not None:
            for term in terms:
                self.add(term)

    @classmethod
    def from_terms(cls, terms: Iterable[str], name: str = "vocab") -> "Vocabulary":
        """Bulk-build from already-unique terms (ids = input positions).

        The deserialization fast path (``repro/kg/store.py``): a saved term
        list *is* a previously interned id space, so this skips the per-term
        dedup probe of :meth:`add` and builds both maps at C speed.
        Duplicate terms would silently alias ids, so they are rejected.
        """
        vocab = cls(name=name)
        vocab._id_to_term = list(terms)
        vocab._term_to_id = dict(zip(vocab._id_to_term, range(len(vocab._id_to_term))))
        if len(vocab._term_to_id) != len(vocab._id_to_term):
            raise ValueError(f"duplicate terms in bulk load of vocabulary {name!r}")
        return vocab

    def add(self, term: str) -> int:
        """Intern ``term`` and return its id (existing id if already known)."""
        existing = self._term_to_id.get(term)
        if existing is not None:
            return existing
        new_id = len(self._id_to_term)
        self._term_to_id[term] = new_id
        self._id_to_term.append(term)
        return new_id

    def add_many(self, terms: Iterable[str]) -> List[int]:
        """Intern every term in ``terms``; returns ids in input order."""
        return [self.add(term) for term in terms]

    def id(self, term: str) -> int:
        """Return the id of ``term``; raises ``KeyError`` when unknown."""
        return self._term_to_id[term]

    def get(self, term: str, default: Optional[int] = None) -> Optional[int]:
        """Return the id of ``term`` or ``default`` when unknown."""
        return self._term_to_id.get(term, default)

    def term(self, term_id: int) -> str:
        """Return the term for ``term_id``; raises ``IndexError`` when unknown."""
        if term_id < 0:
            raise IndexError(f"negative term id {term_id}")
        return self._id_to_term[term_id]

    def terms(self, term_ids: Iterable[int]) -> List[str]:
        """Vectorised :meth:`term` (the same ``IndexError`` on a bad id)."""
        term_ids = list(term_ids)
        if term_ids and min(term_ids) < 0:
            return [self.term(term_id) for term_id in term_ids]  # raises
        return list(map(self._id_to_term.__getitem__, term_ids))

    def __contains__(self, term: str) -> bool:
        return term in self._term_to_id

    def __len__(self) -> int:
        return len(self._id_to_term)

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_term)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Vocabulary(name={self.name!r}, size={len(self)})"

    def copy(self) -> "Vocabulary":
        """Return an independent copy of this vocabulary."""
        clone = Vocabulary(name=self.name)
        clone._term_to_id = dict(self._term_to_id)
        clone._id_to_term = list(self._id_to_term)
        return clone

    def restrict(self, keep_ids: Iterable[int]) -> tuple["Vocabulary", dict[int, int]]:
        """Build a compacted vocabulary containing only ``keep_ids``.

        Returns ``(new_vocab, old_to_new)`` where ``old_to_new`` maps the
        retained old ids to their dense ids in the new vocabulary.  Used when
        extracting a TOSG so the subgraph gets a dense id space.  A
        repeated id keeps the new id of its first occurrence.
        """
        kept = list(dict.fromkeys(keep_ids))
        new_vocab = Vocabulary.from_terms(self.terms(kept), name=self.name)
        return new_vocab, dict(zip(kept, range(len(kept))))

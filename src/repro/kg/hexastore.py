"""Hexastore-style sextuple indexing (Weiss et al., VLDB 2008).

RDF engines build six sorted permutation indices — SPO, SOP, PSO, POS, OSP,
OPS — so that any triple pattern with bound subject/predicate/object prefixes
resolves to a contiguous run found by binary search.  The paper's
SPARQL-based extraction (Algorithm 3) owes its "negligible preprocessing
overhead" to exactly these indices; this module supplies the equivalent.

The implementation stores, per ordering, a permutation of triple positions
sorted lexicographically by that ordering.  Both the orderings themselves
and their sorted key columns are built *lazily*: an ordering materialises on
its first lookup, and each sorted key column is derived from the stored
permutation on the first lookup that actually binds that level.  A workload
that only ever asks ``(s, ?, ?)`` patterns therefore pays for one
``lexsort`` and one gathered column instead of six of each.  Lookups are
nested ``numpy.searchsorted`` range narrowings, i.e. O(log n) per bound
component; :meth:`Hexastore.batch_ranges` answers many sibling patterns with
one batched ``searchsorted`` for the executor's vectorized joins.

A live graph's next epoch appends rows to its parent's store
(``repro/kg/epoch.py``).  :meth:`Hexastore.extended_from` gives it a
hexastore that builds nothing up front: each ordering is merged on first
use from the nearest ancestor that built it (:meth:`_SortedIndex.merged`),
bit-identical to a cold ``lexsort`` of the whole store.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.kg.triples import TripleStore

# Component order per index: which triple column is the 1st/2nd/3rd sort key.
_ORDERS: Dict[str, Tuple[str, str, str]] = {
    "spo": ("s", "p", "o"),
    "sop": ("s", "o", "p"),
    "pso": ("p", "s", "o"),
    "pos": ("p", "o", "s"),
    "osp": ("o", "s", "p"),
    "ops": ("o", "p", "s"),
}


class _SortedIndex:
    """One of the six orderings: a permutation plus lazy sorted key columns."""

    __slots__ = ("order", "perm", "_columns", "_keys", "_lock")

    def __init__(self, store: TripleStore, order: Tuple[str, str, str]):
        self.order = order
        columns = {"s": store.s, "p": store.p, "o": store.o}
        self._columns = tuple(columns[c] for c in order)
        # numpy.lexsort sorts by the *last* key first.
        self.perm = np.lexsort((self._columns[2], self._columns[1], self._columns[0]))
        self._keys: List[Optional[np.ndarray]] = [None, None, None]
        self._lock = threading.Lock()

    @classmethod
    def from_arrays(
        cls,
        store: TripleStore,
        order: Tuple[str, str, str],
        perm: np.ndarray,
        keys: Sequence[np.ndarray],
    ) -> "_SortedIndex":
        """Rehydrate an ordering from previously materialized arrays.

        Used by the artifact store (``repro/kg/store.py``): ``perm`` and all
        three ``keys`` are read-only memory-mapped views, so the index skips
        its lexsort entirely and never mutates lazy state afterwards.
        """
        index = cls.__new__(cls)
        index.order = order
        columns = {"s": store.s, "p": store.p, "o": store.o}
        index._columns = tuple(columns[c] for c in order)
        index.perm = perm
        index._keys = list(keys)
        index._lock = threading.Lock()
        return index

    @classmethod
    def merged(cls, origin: "_SortedIndex", store: TripleStore) -> "_SortedIndex":
        """This ordering of ``store``, merged from ``origin``'s ordering of a prefix.

        ``store`` holds ``origin``'s rows followed by appended ones.  The
        appended rows are lexsorted alone; composite keys for both sorted
        runs and two ``searchsorted`` calls then place every element (the
        classic sorted-merge).  ``np.lexsort`` is stable and the prefix rows
        precede the appended ones, so the result is **bit-identical** to
        lexsorting ``store`` from scratch.
        """
        order = origin.order
        n_base = len(origin.perm)
        columns = {"s": store.s, "p": store.p, "o": store.o}
        appended = [columns[component][n_base:] for component in order]
        delta_perm = np.lexsort((appended[2], appended[1], appended[0]))
        base_keys = [origin.key(level) for level in range(3)]
        delta_keys = [column[delta_perm] for column in appended]
        radices = [
            max(int(bk.max()) if bk.size else 0, int(dk.max()) if dk.size else 0) + 1
            for bk, dk in zip(base_keys, delta_keys)
        ]
        if not _radix_product_fits_int64(radices):  # pragma: no cover - ids near 2^21
            return cls(store, order)
        base_composite = _composite(base_keys, radices)
        delta_composite = _composite(delta_keys, radices)
        pos_base = np.arange(n_base, dtype=np.int64) + np.searchsorted(
            delta_composite, base_composite, side="left"
        )
        pos_delta = np.arange(len(delta_perm), dtype=np.int64) + np.searchsorted(
            base_composite, delta_composite, side="right"
        )
        perm = np.empty(len(store), dtype=np.int64)
        perm[pos_base] = origin.perm
        perm[pos_delta] = delta_perm + n_base
        keys = []
        for base_key, delta_key in zip(base_keys, delta_keys):
            key = np.empty(len(store), dtype=np.int64)
            key[pos_base] = base_key
            key[pos_delta] = delta_key
            keys.append(key)
        return cls.from_arrays(store, order, perm, keys)

    def iter_arrays(self):
        """Yield the permutation plus every key column built so far."""
        yield self.perm
        for column in self._keys:
            if column is not None:
                yield column

    def key(self, level: int) -> np.ndarray:
        """Sorted key column of ``level``, derived from ``perm`` on first use."""
        column = self._keys[level]
        if column is None:
            # Double-checked so concurrent endpoint workers gather once.
            with self._lock:
                column = self._keys[level]
                if column is None:
                    column = self._columns[level][self.perm]
                    self._keys[level] = column
        return column

    def nbytes(self) -> int:
        """Bytes of the permutation plus the key columns built so far."""
        total = int(self.perm.nbytes)
        for column in self._keys:
            if column is not None:
                total += int(column.nbytes)
        return total

    def narrow(self, bound: Dict[str, int]) -> Tuple[int, int]:
        """Binary-search the run of positions matching the bound prefix.

        ``bound`` maps component letters to required values; only a *prefix*
        of this index's order may be bound (the caller picks a compatible
        index).  Returns the half-open range ``[lo, hi)`` into ``perm``.
        """
        lo, hi = 0, len(self.perm)
        for level, component in enumerate(self.order):
            if component not in bound:
                break
            key_column = self.key(level)
            value = bound[component]
            window = key_column[lo:hi]
            new_lo = lo + int(np.searchsorted(window, value, side="left"))
            new_hi = lo + int(np.searchsorted(window, value, side="right"))
            lo, hi = new_lo, new_hi
            if lo >= hi:
                return lo, lo
        return lo, hi


def _choose_order(bound_components: frozenset) -> str:
    """Pick the index whose prefix covers all bound components."""
    for name, order in _ORDERS.items():
        prefix = set(order[: len(bound_components)])
        if prefix == set(bound_components):
            return name
    raise AssertionError(f"no order covers {bound_components}")  # pragma: no cover


def _choose_order_with_next(bound_components: frozenset, next_component: str) -> str:
    """Pick the index whose prefix is ``bound`` followed by ``next_component``."""
    depth = len(bound_components)
    for name, order in _ORDERS.items():
        if set(order[:depth]) == set(bound_components) and order[depth] == next_component:
            return name
    raise AssertionError(  # pragma: no cover
        f"no order covers {bound_components} then {next_component!r}"
    )


def _choose_order_with_group(
    bound_components: frozenset, group: Sequence[str]
) -> Tuple[str, Tuple[int, ...]]:
    """Pick an index whose prefix is ``bound`` then the ``group`` components.

    The group may land in the index in either internal order; returns the
    index name plus, per index level, which position of ``group`` supplies
    that level's key (so callers can reorder their key columns to match).
    """
    depth = len(bound_components)
    wanted = set(group)
    for name, order in _ORDERS.items():
        if set(order[:depth]) != set(bound_components):
            continue
        if set(order[depth : depth + len(group)]) == wanted:
            layout = tuple(group.index(order[depth + i]) for i in range(len(group)))
            return name, layout
    raise AssertionError(  # pragma: no cover
        f"no order covers {bound_components} then group {group}"
    )


def _radix_product_fits_int64(radices: List[int]) -> bool:
    product = 1
    for radix in radices:
        product *= radix
    return product < 2**63


def _composite(keys: Sequence[np.ndarray], radices: Sequence[int]) -> np.ndarray:
    """Mixed-radix int64 encoding of sorted key columns.

    With each radix above its level's maximum value the encoding is
    injective and order-preserving, so composites compare exactly like the
    lexicographic order of the key tuples.
    """
    out = keys[0].astype(np.int64, copy=True)
    for key, radix in zip(keys[1:], radices[1:]):
        out *= radix
        out += key
    return out


class Hexastore:
    """Six-permutation sorted index over a :class:`TripleStore`.

    Each of the six indices is built on its first use (and its sorted key
    columns on *their* first use), so the steady-state footprint reflects
    the patterns a workload actually asks; :meth:`materialize` forces the
    full RDF-engine-style eager build.  :meth:`match` answers any triple
    pattern by nested binary search on the best-suited ordering.

    Example
    -------
    >>> store = TripleStore.from_triples([(0, 1, 2), (0, 1, 3), (4, 1, 2)])
    >>> hexa = Hexastore(store)
    >>> sorted(hexa.objects(subject=0, predicate=1).tolist())
    [2, 3]
    """

    def __init__(self, store: TripleStore):
        self.store = store
        self._indices: Dict[str, _SortedIndex] = {}
        # Ordering name -> the nearest ancestor's built ordering of a prefix
        # of ``store`` (set by extended_from, dropped once the ordering builds).
        self._origins: Dict[str, _SortedIndex] = {}
        self._build_lock = threading.Lock()

    @classmethod
    def extended_from(cls, parent: "Hexastore", store: TripleStore) -> "Hexastore":
        """A hexastore over ``store`` — ``parent.store`` plus appended rows.

        Nothing is built now.  Each ordering records its origin: ``parent``'s
        own ordering when built, else ``parent``'s origin for it.  The
        ordering is then merged on first use from that origin
        (:meth:`_SortedIndex.merged`); without one it builds cold.
        """
        hexa = cls(store)
        # Lock-free, like GraphArtifacts.extended_from: _index stores an
        # ordering before dropping its link, so links are copied first.
        hexa._origins.update(parent._origins)
        hexa._origins.update(parent._indices)
        return hexa

    @classmethod
    def from_prebuilt(
        cls,
        store: TripleStore,
        indices: Dict[str, Tuple[np.ndarray, Sequence[np.ndarray]]],
    ) -> "Hexastore":
        """Build a hexastore around already-sorted arrays (the mmap path).

        ``indices`` maps each ordering name to ``(perm, [key0, key1, key2])``
        as produced by a :meth:`materialize`-d index — typically read-only
        memory-mapped sections from ``repro/kg/store.py``.  Orderings not in
        ``indices`` still build lazily on first use.
        """
        hexa = cls(store)
        for name, (perm, keys) in indices.items():
            hexa._indices[name] = _SortedIndex.from_arrays(store, _ORDERS[name], perm, keys)
        return hexa

    def iter_arrays(self):
        """Yield every permutation / key-column array built so far."""
        for index in self._indices.values():
            yield from index.iter_arrays()

    def __len__(self) -> int:
        return len(self.store)

    def _index(self, name: str) -> _SortedIndex:
        index = self._indices.get(name)
        if index is None:
            # The SPARQL endpoint fans pages out to worker threads over one
            # shared hexastore; double-checked locking keeps the one-time
            # lexsort per ordering from running once per thread.
            with self._build_lock:
                index = self._indices.get(name)
                if index is None:
                    origin = self._origins.get(name)
                    if origin is None:
                        index = _SortedIndex(self.store, _ORDERS[name])
                    else:
                        index = _SortedIndex.merged(origin, self.store)
                    self._indices[name] = index
                    self._origins.pop(name, None)
        return index

    def materialize(self) -> "Hexastore":
        """Eagerly build all six orderings and their key columns."""
        for name in _ORDERS:
            index = self._index(name)
            for level in range(3):
                index.key(level)
        return self

    def nbytes(self) -> int:
        """Approximate bytes used by the permutations + key columns built."""
        return int(sum(index.nbytes() for index in self._indices.values()))

    def match(
        self,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        obj: Optional[int] = None,
    ) -> np.ndarray:
        """Return positions (into the store) of triples matching the pattern.

        ``None`` components are wildcards.  With no components bound this
        returns all positions.
        """
        bound: Dict[str, int] = {}
        if subject is not None:
            bound["s"] = int(subject)
        if predicate is not None:
            bound["p"] = int(predicate)
        if obj is not None:
            bound["o"] = int(obj)
        if not bound:
            return np.arange(len(self.store), dtype=np.int64)
        index = self._index(_choose_order(frozenset(bound)))
        lo, hi = index.narrow(bound)
        return index.perm[lo:hi]

    def count(
        self,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        obj: Optional[int] = None,
    ) -> int:
        """Number of triples matching the pattern (no materialisation)."""
        bound: Dict[str, int] = {}
        if subject is not None:
            bound["s"] = int(subject)
        if predicate is not None:
            bound["p"] = int(predicate)
        if obj is not None:
            bound["o"] = int(obj)
        if not bound:
            return len(self.store)
        index = self._index(_choose_order(frozenset(bound)))
        lo, hi = index.narrow(bound)
        return hi - lo

    def batch_ranges(
        self,
        bound: Dict[str, int],
        component: Union[str, Sequence[str]],
        values: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched lookup of many sibling patterns in one ``searchsorted``.

        With a single ``component``, resolves — for each ``v`` in the 1-D
        ``values`` — the pattern whose constants are ``bound`` plus
        ``{component: v}``.  With a *sequence* of components, ``values``
        must be 2-D with one column per component (in the given order) and
        each row resolves the pattern binding all of them at once: the
        sorted-merge over composite keys that vectorizes the executor's
        multi-bound-variable joins.

        Returns ``(los, his, perm)`` where ``perm[los[i]:his[i]]`` are the
        store positions matching the i-th pattern.  ``bound`` may be empty;
        ``values`` need not be unique.
        """
        if isinstance(component, str):
            order_name = _choose_order_with_next(frozenset(bound), component)
            index = self._index(order_name)
            lo, hi = (0, len(index.perm)) if not bound else index.narrow(bound)
            window = index.key(len(bound))[lo:hi]
            values = np.asarray(values)
            los = lo + np.searchsorted(window, values, side="left")
            his = lo + np.searchsorted(window, values, side="right")
            return los.astype(np.int64), his.astype(np.int64), index.perm

        components = tuple(component)
        values = np.atleast_2d(np.asarray(values, dtype=np.int64))
        if values.shape[1] != len(components):
            raise ValueError(
                f"values must have one column per component: "
                f"{values.shape[1]} columns for {components}"
            )
        order_name, layout = _choose_order_with_group(frozenset(bound), components)
        index = self._index(order_name)
        lo, hi = (0, len(index.perm)) if not bound else index.narrow(bound)
        depth = len(bound)
        if lo >= hi:
            flat = np.full(len(values), lo, dtype=np.int64)
            return flat, flat.copy(), index.perm
        windows = [index.key(depth + level)[lo:hi] for level in range(len(components))]
        columns = [values[:, position] for position in layout]
        # Mixed-radix composite keys: with radix > max value per level the
        # encoding is injective and preserves the window's lexicographic
        # order, so one searchsorted resolves every composite pattern.
        radices = [
            int(max(window.max(), column.max() if column.size else 0)) + 1
            for window, column in zip(windows, columns)
        ]
        if _radix_product_fits_int64(radices):
            composite_window = _composite(windows, radices)
            composite_values = _composite(columns, radices)
            los = lo + np.searchsorted(composite_window, composite_values, side="left")
            his = lo + np.searchsorted(composite_window, composite_values, side="right")
            return los.astype(np.int64), his.astype(np.int64), index.perm
        # Composite would overflow int64 (needs ids near 2^21 on all three
        # levels): narrow each row separately — rare and still correct.
        los = np.empty(len(values), dtype=np.int64)
        his = np.empty(len(values), dtype=np.int64)
        for row in range(len(values)):  # pragma: no cover - overflow guard
            pattern = dict(bound)
            for position, name in enumerate(components):
                pattern[name] = int(values[row, position])
            row_lo, row_hi = index.narrow(pattern)
            los[row], his[row] = row_lo, row_hi
        return los, his, index.perm

    def triples(
        self,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        obj: Optional[int] = None,
    ) -> TripleStore:
        """Materialise the matching triples as a :class:`TripleStore`."""
        positions = self.match(subject, predicate, obj)
        return self.store.select(positions)

    # -- convenience accessors used heavily by samplers and the executor --

    def objects(self, subject: Optional[int] = None, predicate: Optional[int] = None) -> np.ndarray:
        """Object ids of triples matching ``(subject, predicate, ?)``."""
        positions = self.match(subject=subject, predicate=predicate)
        return self.store.o[positions]

    def subjects(self, predicate: Optional[int] = None, obj: Optional[int] = None) -> np.ndarray:
        """Subject ids of triples matching ``(?, predicate, obj)``."""
        positions = self.match(predicate=predicate, obj=obj)
        return self.store.s[positions]

    def predicates(self, subject: Optional[int] = None, obj: Optional[int] = None) -> np.ndarray:
        """Predicate ids of triples matching ``(subject, ?, obj)``."""
        positions = self.match(subject=subject, obj=obj)
        return self.store.p[positions]

    def out_neighbors(self, subject: int) -> np.ndarray:
        """All objects reachable from ``subject`` via any predicate."""
        return self.objects(subject=subject)

    def in_neighbors(self, obj: int) -> np.ndarray:
        """All subjects pointing to ``obj`` via any predicate."""
        return self.subjects(obj=obj)

    def neighbors(self, node: int, unique: bool = True) -> np.ndarray:
        """Union of in- and out-neighbours of ``node``.

        ``unique=True`` (default) deduplicates and sorts.  ``unique=False``
        skips the sort and may return duplicates — the fast path for
        walk-style frontier expansion (ego-net BFS, fanout sampling) whose
        callers dedupe downstream anyway.  One-sided nodes never pay the
        concatenate+unique of the general case.
        """
        outs = self.out_neighbors(node)
        ins = self.in_neighbors(node)
        if len(ins) == 0:
            combined = outs
        elif len(outs) == 0:
            combined = ins
        else:
            combined = np.concatenate([outs, ins])
        if len(combined) == 0:
            return np.empty(0, dtype=np.int64)
        return np.unique(combined) if unique else combined

"""Index-backed evaluation of the SPARQL subset.

The executor answers BGPs by nested hexastore lookups with a greedy,
selectivity-first join order — the same regime that lets real RDF engines
run the paper's extraction queries "efficiently by leveraging the indices
existing in RDF engines" (Section IV-C).

Node classes are virtual ``rdf:type`` edges: patterns ``?v a <Class>`` are
answered from the KG's ``node_types`` array instead of materialised triples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.kg.triples import TripleStore
from repro.nputil import expand_ranges
from repro.sparql.ast import BGP, IRI, SelectQuery, TriplePattern, Union, Var


@dataclass
class ResultSet:
    """A deterministic, column-oriented SPARQL result.

    ``variables`` fixes column order; ``columns`` maps each variable name to
    an int64 id array (ids index the KG's node/relation/class vocabularies).
    """

    variables: List[str]
    columns: Dict[str, np.ndarray]

    @property
    def num_rows(self) -> int:
        if not self.variables:
            return 0
        return len(self.columns[self.variables[0]])

    @classmethod
    def empty(cls, variables: List[str]) -> "ResultSet":
        return cls(variables, {v: np.empty(0, dtype=np.int64) for v in variables})

    def page(self, offset: Optional[int], limit: Optional[int]) -> "ResultSet":
        """Apply OFFSET then LIMIT (SPARQL solution-modifier order).

        SPARQL solution modifiers are non-negative integers; negative
        values are clamped to 0 (OFFSET -n skips nothing, LIMIT -n keeps
        nothing) instead of falling through to Python slice semantics,
        which would wrap from the *end* of the result and silently return
        wrong pages.  The parser rejects negative literals outright; the
        clamp guards programmatic construction (``with_page`` etc.).
        """
        start = max(int(offset), 0) if offset is not None else 0
        stop = None if limit is None else start + max(int(limit), 0)
        return ResultSet(
            list(self.variables),
            {v: self.columns[v][start:stop] for v in self.variables},
        )

    def iter_pages(self, page_rows: int) -> Iterator["ResultSet"]:
        """Yield this result in OFFSET/LIMIT slices of ``page_rows`` rows.

        Concatenating the pages reproduces the result bit-exactly; an
        empty result yields no pages.  This is the slicing step behind the
        endpoint's streaming planner and the HTTP front end's chunked
        pagination.
        """
        if page_rows <= 0:
            raise ValueError(f"page_rows must be positive, got {page_rows}")
        for offset in range(0, self.num_rows, page_rows):
            yield self.page(offset, page_rows)

    def concat(self, other: "ResultSet") -> "ResultSet":
        """Row-concatenate two results over the same variables."""
        if self.variables != other.variables:
            raise ValueError(
                f"cannot concat results over {self.variables} and {other.variables}"
            )
        return ResultSet(
            list(self.variables),
            {
                v: np.concatenate([self.columns[v], other.columns[v]])
                for v in self.variables
            },
        )

    def to_triples(self, s: str = "s", p: str = "p", o: str = "o") -> TripleStore:
        """Interpret three columns as a triple set (Algorithm 3 collection)."""
        return TripleStore(self.columns[s], self.columns[p], self.columns[o])


@dataclass
class _Bindings:
    """Intermediate solution table: equal-length columns + explicit row count.

    The explicit ``rows`` field lets a variable-free conjunction (all-constant
    patterns) distinguish "one empty solution" from "no solution".
    """

    columns: Dict[str, np.ndarray] = field(default_factory=dict)
    rows: int = 1

    @classmethod
    def none(cls, variable_names: List[str]) -> "_Bindings":
        return cls({name: np.empty(0, dtype=np.int64) for name in variable_names}, rows=0)

    def with_names(self, extra: List[str]) -> "_Bindings":
        """Zero-row copy that also carries ``extra`` (for empty results)."""
        names = list(self.columns.keys()) + [n for n in extra if n not in self.columns]
        return _Bindings.none(names)


class QueryExecutor:
    """Evaluates parsed queries against a :class:`KnowledgeGraph`.

    ``join_kernel`` selects how patterns with already-bound variables join:
    ``"batch"`` (default) resolves all distinct key combinations with one
    batched ``searchsorted`` per pattern (:meth:`Hexastore.batch_ranges`,
    composite keys for multiple bound variables); ``"scalar"`` keeps the
    per-key index-lookup loop — the reference oracle the batch kernel is
    tested against, row-for-row.
    """

    def __init__(self, kg: KnowledgeGraph, join_kernel: str = "batch"):
        if join_kernel not in ("batch", "scalar"):
            raise ValueError(f"join_kernel must be 'batch' or 'scalar', got {join_kernel!r}")
        self.kg = kg
        self.join_kernel = join_kernel

    # -- public API --

    def evaluate(self, query: SelectQuery) -> ResultSet:
        """Evaluate ``query`` and return its (paged) result."""
        return self._eval_select(query)

    def count(self, query: SelectQuery) -> int:
        """Row count of ``query`` ignoring LIMIT/OFFSET (``getGraphSize``)."""
        unpaged = SelectQuery(query.projections, query.body, limit=None, offset=None)
        return self._eval_select(unpaged).num_rows

    # -- evaluation --

    def _eval_select(self, query: SelectQuery) -> ResultSet:
        if isinstance(query.body, Union):
            arm_results = [self._eval_select(arm) for arm in query.body.arms]
            merged = arm_results[0]
            for arm_result in arm_results[1:]:
                merged = merged.concat(arm_result)
            result = self._project_result(merged, query)
        else:
            bindings = self._eval_bgp(query.body)
            available = [v.name for v in query.body.variables()]
            base = ResultSet(available, {name: bindings.columns[name] for name in available})
            result = self._project_result(base, query)
        return result.page(query.offset, query.limit)

    def _project_result(self, base: ResultSet, query: SelectQuery) -> ResultSet:
        if not query.projections:
            return base
        variables: List[str] = []
        columns: Dict[str, np.ndarray] = {}
        for projection in query.projections:
            source = projection.source.name
            output = projection.output.name
            if source not in base.columns:
                raise ValueError(f"projected variable ?{source} is not bound by the pattern")
            variables.append(output)
            columns[output] = base.columns[source]
        return ResultSet(variables, columns)

    # -- BGP evaluation --

    def _eval_bgp(self, bgp: BGP) -> _Bindings:
        ordered = self._order_patterns(list(bgp.patterns))
        bindings = _Bindings()
        all_names = [v.name for v in bgp.variables()]
        for pattern in ordered:
            bindings = self._join(bindings, pattern)
            if bindings.rows == 0:
                return _Bindings.none(all_names)
        return bindings

    def _order_patterns(self, patterns: List[TriplePattern]) -> List[TriplePattern]:
        """Greedy join order: most selective first, then connected patterns."""

        def selectivity(pattern: TriplePattern) -> Tuple[int, int]:
            # Type patterns with a constant class are the classic entry point
            # of the paper's queries; prefer them, then more-bound patterns.
            return (0 if pattern.is_type_pattern() else 1, -pattern.bound_count())

        remaining = sorted(patterns, key=selectivity)
        if not remaining:
            return []
        ordered = [remaining.pop(0)]
        bound = {v.name for v in ordered[0].variables()}
        while remaining:
            connected_index = None
            for index, pattern in enumerate(remaining):
                if any(v.name in bound for v in pattern.variables()):
                    connected_index = index
                    break
            index = connected_index if connected_index is not None else 0
            chosen = remaining.pop(index)
            ordered.append(chosen)
            bound.update(v.name for v in chosen.variables())
        return ordered

    # -- term resolution --

    def _resolve_node(self, iri: IRI) -> Optional[int]:
        return self.kg.node_vocab.get(iri.value)

    def _resolve_relation(self, iri: IRI) -> Optional[int]:
        return self.kg.relation_vocab.get(iri.value)

    def _resolve_class(self, iri: IRI) -> Optional[int]:
        return self.kg.class_vocab.get(iri.value)

    # -- join machinery --

    def _join(self, bindings: _Bindings, pattern: TriplePattern) -> _Bindings:
        if pattern.is_type_pattern():
            return self._join_type_pattern(bindings, pattern)
        return self._join_triple_pattern(bindings, pattern)

    def _join_type_pattern(self, bindings: _Bindings, pattern: TriplePattern) -> _Bindings:
        if isinstance(pattern.o, Var):
            return self._join_type_var_class(bindings, pattern)
        class_id = self._resolve_class(pattern.o)
        pattern_names = [v.name for v in pattern.variables()]
        if class_id is None:
            return bindings.with_names(pattern_names)
        if isinstance(pattern.s, IRI):
            node_id = self._resolve_node(pattern.s)
            matches = node_id is not None and int(self.kg.node_types[node_id]) == class_id
            return bindings if matches else bindings.with_names(pattern_names)
        var = pattern.s.name
        if var in bindings.columns:
            keep = self.kg.node_types[bindings.columns[var]] == class_id
            return _Bindings(
                {name: col[keep] for name, col in bindings.columns.items()},
                rows=int(np.count_nonzero(keep)),
            )
        nodes = self.kg.nodes_of_type(class_id)
        return _cross_join(bindings, {var: nodes})

    def _join_type_var_class(self, bindings: _Bindings, pattern: TriplePattern) -> _Bindings:
        class_var = pattern.o.name
        if isinstance(pattern.s, Var):
            subject_var = pattern.s.name
            if subject_var in bindings.columns:
                columns = dict(bindings.columns)
                columns[class_var] = self.kg.node_types[bindings.columns[subject_var]]
                return _Bindings(columns, rows=bindings.rows)
            nodes = np.arange(self.kg.num_nodes, dtype=np.int64)
            return _cross_join(
                bindings, {subject_var: nodes, class_var: self.kg.node_types[nodes]}
            )
        node_id = self._resolve_node(pattern.s)
        if node_id is None:
            return bindings.with_names([class_var])
        node_class = np.asarray([self.kg.node_types[node_id]], dtype=np.int64)
        return _cross_join(bindings, {class_var: node_class})

    def _join_triple_pattern(self, bindings: _Bindings, pattern: TriplePattern) -> _Bindings:
        store = self.kg.triples
        components = [("s", pattern.s), ("p", pattern.p), ("o", pattern.o)]

        consts: Dict[str, int] = {}
        bound_vars: List[Tuple[str, str]] = []  # (component, var name)
        free_vars: List[Tuple[str, str]] = []
        pattern_names = [v.name for v in pattern.variables()]
        for component, term in components:
            if isinstance(term, IRI):
                resolver = self._resolve_relation if component == "p" else self._resolve_node
                resolved = resolver(term)
                if resolved is None:
                    return bindings.with_names(pattern_names)
                consts[component] = resolved
            else:
                name = term.name
                if name in bindings.columns:
                    bound_vars.append((component, name))
                else:
                    free_vars.append((component, name))

        # Repeated free variable inside the pattern (e.g. ?v ?p ?v): keep one
        # occurrence, post-filter on equality of the components.
        repeated_pairs: List[Tuple[str, str]] = []
        first_seen: Dict[str, str] = {}
        deduped_free: List[Tuple[str, str]] = []
        for component, name in free_vars:
            if name in first_seen:
                repeated_pairs.append((first_seen[name], component))
            else:
                first_seen[name] = component
                deduped_free.append((component, name))
        free_vars = deduped_free

        if not bound_vars:
            positions = self.kg.hexastore.match(
                subject=consts.get("s"), predicate=consts.get("p"), obj=consts.get("o")
            )
            positions = self._filter_repeats(positions, repeated_pairs)
            new_cols = {
                name: getattr(store, component)[positions] for component, name in free_vars
            }
            if not free_vars:
                # Fully-constant pattern: acts as an existence filter.
                if len(positions) == 0:
                    return bindings.with_names([])
                return bindings
            return _cross_join(bindings, new_cols)

        if self.join_kernel == "scalar":
            return self._join_bound_vars_scalar(
                bindings, consts, bound_vars, free_vars, repeated_pairs, pattern_names
            )
        return self._join_bound_vars(
            bindings, consts, bound_vars, free_vars, repeated_pairs, pattern_names
        )

    def _join_bound_vars_scalar(
        self,
        bindings: _Bindings,
        consts: Dict[str, int],
        bound_vars: List[Tuple[str, str]],
        free_vars: List[Tuple[str, str]],
        repeated_pairs: List[Tuple[str, str]],
        pattern_names: List[str],
    ) -> _Bindings:
        """Reference join: one hexastore lookup per distinct key combination.

        Groups rows by their distinct bound-value combinations so each
        distinct combination costs one index lookup.  Kept as the oracle the
        vectorized :meth:`_join_bound_vars` must match row-for-row.
        """
        store = self.kg.triples
        key_columns = [bindings.columns[name] for _component, name in bound_vars]
        keys = np.stack(key_columns, axis=1)
        unique_keys, inverse = np.unique(keys, axis=0, return_inverse=True)

        row_chunks: List[np.ndarray] = []
        pos_chunks: List[np.ndarray] = []
        row_indices = np.arange(bindings.rows, dtype=np.int64)
        for key_index in range(len(unique_keys)):
            lookup = dict(consts)
            for (component, _name), value in zip(bound_vars, unique_keys[key_index]):
                lookup[component] = int(value)
            positions = self.kg.hexastore.match(
                subject=lookup.get("s"), predicate=lookup.get("p"), obj=lookup.get("o")
            )
            positions = self._filter_repeats(positions, repeated_pairs)
            if len(positions) == 0:
                continue
            rows_here = row_indices[inverse == key_index]
            row_chunks.append(np.repeat(rows_here, len(positions)))
            pos_chunks.append(np.tile(positions, len(rows_here)))

        if not row_chunks:
            return bindings.with_names(pattern_names)

        row_rep = np.concatenate(row_chunks)
        pos_rep = np.concatenate(pos_chunks)
        columns = {name: column[row_rep] for name, column in bindings.columns.items()}
        for component, name in free_vars:
            columns[name] = getattr(store, component)[pos_rep]
        return _Bindings(columns, rows=len(row_rep))

    def _join_bound_vars(
        self,
        bindings: _Bindings,
        consts: Dict[str, int],
        bound_vars: List[Tuple[str, str]],
        free_vars: List[Tuple[str, str]],
        repeated_pairs: List[Tuple[str, str]],
        pattern_names: List[str],
    ) -> _Bindings:
        """Vectorized join for patterns with bound variables (any count).

        Instead of one hexastore lookup per distinct key combination, all
        distinct combinations are resolved with one batched ``searchsorted``
        over the ordering whose prefix is ``consts`` plus the bound
        components — composite mixed-radix keys when more than one variable
        is bound (:meth:`Hexastore.batch_ranges`).  Produces rows in exactly
        the per-key order of the scalar reference loop.
        """
        store = self.kg.triples
        components = [component for component, _name in bound_vars]
        if len(bound_vars) == 1:
            column = bindings.columns[bound_vars[0][1]]
            unique_keys, inverse = np.unique(column, return_inverse=True)
            lookup_values: np.ndarray = unique_keys
            lookup_component: object = components[0]
        else:
            key_columns = [bindings.columns[name] for _component, name in bound_vars]
            keys = np.stack(key_columns, axis=1)
            unique_keys, inverse = np.unique(keys, axis=0, return_inverse=True)
            lookup_values = unique_keys
            lookup_component = components

        los, his, perm = self.kg.hexastore.batch_ranges(
            consts, lookup_component, lookup_values
        )
        counts = his - los
        pos_flat = perm[expand_ranges(los, counts)]
        if repeated_pairs and len(pos_flat):
            keep = np.ones(len(pos_flat), dtype=bool)
            for first, second in repeated_pairs:
                keep &= getattr(store, first)[pos_flat] == getattr(store, second)[pos_flat]
            key_ids = np.repeat(np.arange(len(unique_keys)), counts)[keep]
            pos_flat = pos_flat[keep]
            counts = np.bincount(key_ids, minlength=len(unique_keys))
        if len(pos_flat) == 0:
            return bindings.with_names(pattern_names)
        key_starts = np.concatenate([[0], np.cumsum(counts)[:-1]])

        # Expand per row, grouped by key with rows in original order — the
        # same output order the per-key loop produces.
        order = np.argsort(inverse, kind="stable")
        keys_of_rows = inverse[order]
        row_counts = counts[keys_of_rows]
        row_rep = np.repeat(order, row_counts)
        if len(row_rep) == 0:
            return bindings.with_names(pattern_names)
        pos_rep = pos_flat[expand_ranges(key_starts[keys_of_rows], row_counts)]

        columns = {n: col[row_rep] for n, col in bindings.columns.items()}
        for free_component, free_name in free_vars:
            columns[free_name] = getattr(store, free_component)[pos_rep]
        return _Bindings(columns, rows=len(row_rep))

    def _filter_repeats(
        self, positions: np.ndarray, repeated_pairs: List[Tuple[str, str]]
    ) -> np.ndarray:
        if not repeated_pairs:
            return positions
        store = self.kg.triples
        keep = np.ones(len(positions), dtype=bool)
        for first, second in repeated_pairs:
            keep &= getattr(store, first)[positions] == getattr(store, second)[positions]
        return positions[keep]


def _cross_join(bindings: _Bindings, new_cols: Dict[str, np.ndarray]) -> _Bindings:
    n_new = 0
    for column in new_cols.values():
        n_new = len(column)
        break
    if not bindings.columns:
        if bindings.rows == 0:
            return _Bindings.none(list(new_cols.keys()))
        return _Bindings(dict(new_cols), rows=n_new)
    columns = {name: np.repeat(column, n_new) for name, column in bindings.columns.items()}
    for name, column in new_cols.items():
        columns[name] = np.tile(column, bindings.rows)
    return _Bindings(columns, rows=bindings.rows * n_new)

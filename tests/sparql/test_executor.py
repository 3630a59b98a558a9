"""Executor: BGP evaluation against the hexastore."""

import numpy as np
import pytest

from repro.sparql.executor import QueryExecutor
from repro.sparql.parser import parse_query


def _rows(result):
    return {
        tuple(int(result.columns[v][i]) for v in result.variables)
        for i in range(result.num_rows)
    }


def test_single_pattern_all_triples(toy_kg):
    executor = QueryExecutor(toy_kg)
    result = executor.evaluate(parse_query("select ?s ?p ?o where { ?s ?p ?o }"))
    assert result.num_rows == toy_kg.num_edges


def test_type_pattern_enumeration(toy_kg):
    executor = QueryExecutor(toy_kg)
    result = executor.evaluate(parse_query("select ?v where { ?v a <Paper> . }"))
    papers = set(toy_kg.nodes_of_type(toy_kg.class_vocab.id("Paper")).tolist())
    assert {int(v) for (v,) in _rows(result)} == papers


def test_type_pattern_filters_bound_variable(toy_kg):
    executor = QueryExecutor(toy_kg)
    # Out-neighbours of papers that are themselves papers (cites targets).
    query = parse_query("select ?v ?o where { ?v a <Paper> . ?v <cites> ?o . ?o a <Paper> . }")
    result = executor.evaluate(query)
    p0, p2 = toy_kg.node_vocab.id("p0"), toy_kg.node_vocab.id("p2")
    p3, p1 = toy_kg.node_vocab.id("p3"), toy_kg.node_vocab.id("p1")
    assert _rows(result) == {(p0, p2), (p3, p1)}


def test_constant_predicate(toy_kg):
    executor = QueryExecutor(toy_kg)
    result = executor.evaluate(parse_query("select ?s ?o where { ?s <publishedIn> ?o . }"))
    assert result.num_rows == 3


def test_constant_subject_and_object(toy_kg):
    executor = QueryExecutor(toy_kg)
    result = executor.evaluate(parse_query("select ?p where { <p0> ?p <a0> . }"))
    assert result.num_rows == 1
    assert toy_kg.relation_vocab.term(int(result.columns["p"][0])) == "hasAuthor"


def test_unknown_iri_yields_empty(toy_kg):
    executor = QueryExecutor(toy_kg)
    result = executor.evaluate(parse_query("select ?o where { <nonexistent> ?p ?o . }"))
    assert result.num_rows == 0
    result = executor.evaluate(parse_query("select ?v where { ?v a <NoSuchClass> . }"))
    assert result.num_rows == 0


def test_fully_constant_pattern_as_existence_filter(toy_kg):
    executor = QueryExecutor(toy_kg)
    query = parse_query("select ?v where { <p0> <cites> <p2> . ?v a <Venue> . }")
    assert executor.evaluate(query).num_rows == 2
    query = parse_query("select ?v where { <p0> <cites> <p1> . ?v a <Venue> . }")
    assert executor.evaluate(query).num_rows == 0


def test_variable_class_pattern(toy_kg):
    executor = QueryExecutor(toy_kg)
    query = parse_query("select ?c where { <p0> a ?c . }")
    result = executor.evaluate(query)
    assert result.num_rows == 1
    assert toy_kg.class_vocab.term(int(result.columns["c"][0])) == "Paper"


def test_repeated_variable_in_pattern(toy_kg):
    executor = QueryExecutor(toy_kg)
    # No self-loops exist in the toy graph.
    result = executor.evaluate(parse_query("select ?v where { ?v ?p ?v . }"))
    assert result.num_rows == 0


def test_union_concatenates_arms(toy_kg):
    executor = QueryExecutor(toy_kg)
    query = parse_query(
        """select ?s ?p ?o {
             select ?v as ?s ?p ?o where { ?v a <Paper>. ?v ?p ?o. }
             union select ?s ?p ?v as ?o where { ?v a <Paper>. ?s ?p ?v. }
           }"""
    )
    result = executor.evaluate(query)
    # 11 paper-outgoing + 2 paper-incoming (cites) = 13 rows with overlap.
    assert result.num_rows == 13
    triples = result.to_triples().deduplicated()
    # Every edge except the movie-domain ones touches a paper.
    assert len(triples) == 11


def test_pagination_determinism_and_coverage(toy_kg):
    executor = QueryExecutor(toy_kg)
    base = parse_query("select ?s ?p ?o where { ?s ?p ?o }")
    full = executor.evaluate(base)
    paged_rows = []
    for offset in range(0, full.num_rows, 4):
        page = executor.evaluate(base.with_page(limit=4, offset=offset))
        paged_rows.extend(_rows_list(page))
    assert paged_rows == _rows_list(full)


def _rows_list(result):
    return [
        tuple(int(result.columns[v][i]) for v in result.variables)
        for i in range(result.num_rows)
    ]


def test_count_ignores_pagination(toy_kg):
    executor = QueryExecutor(toy_kg)
    query = parse_query("select ?s ?p ?o where { ?s ?p ?o } limit 2")
    assert executor.evaluate(query).num_rows == 2
    assert executor.count(query) == toy_kg.num_edges


def test_projection_of_unbound_variable_raises(toy_kg):
    executor = QueryExecutor(toy_kg)
    query = parse_query("select ?missing where { ?s ?p ?o }")
    with pytest.raises(ValueError, match="not bound"):
        executor.evaluate(query)


def test_join_on_shared_variable_matches_bruteforce(toy_kg):
    executor = QueryExecutor(toy_kg)
    query = parse_query("select ?a ?x ?y where { ?x <hasAuthor> ?a . ?y <hasAuthor> ?a . }")
    result = executor.evaluate(query)
    expected = set()
    triples = list(toy_kg.triples)
    has_author = toy_kg.relation_vocab.id("hasAuthor")
    for s1, p1, o1 in triples:
        for s2, p2, o2 in triples:
            if p1 == has_author and p2 == has_author and o1 == o2:
                expected.add((o1, s1, s2))
    assert _rows(result) == expected


# -- multi-bound-variable joins (vectorized vs the scalar reference) --


def test_multi_bound_join_triangle(toy_kg):
    # Joining the third pattern binds both ?a and ?c: the composite-key path.
    executor = QueryExecutor(toy_kg)
    query = parse_query(
        "select ?a ?b ?c where { ?a <cites> ?b . ?b <hasAuthor> ?c . ?a <hasAuthor> ?c . }"
    )
    result = executor.evaluate(query)
    expected = set()
    triples = list(toy_kg.triples)
    cites = toy_kg.relation_vocab.id("cites")
    has_author = toy_kg.relation_vocab.id("hasAuthor")
    for s1, p1, o1 in triples:
        for s2, p2, o2 in triples:
            for s3, p3, o3 in triples:
                if p1 == cites and p2 == has_author and p3 == has_author:
                    if o1 == s2 and s1 == s3 and o2 == o3:
                        expected.add((s1, o1, o2))
    assert _rows(result) == expected


def test_join_kernel_validation(toy_kg):
    with pytest.raises(ValueError):
        QueryExecutor(toy_kg, join_kernel="vectorised")


def test_batch_join_matches_scalar_reference_row_for_row(toy_kg):
    queries = [
        "select ?a ?b ?c where { ?a <cites> ?b . ?b <hasAuthor> ?c . ?a <hasAuthor> ?c . }",
        "select ?a ?b where { ?a <hasAuthor> ?b . ?a <publishedIn> ?v . ?a <hasAuthor> ?b . }",
        "select ?x ?y ?a where { ?x <hasAuthor> ?a . ?y <hasAuthor> ?a . ?x <cites> ?y . }",
        "select ?s ?p ?o where { ?s ?p ?o . ?s ?p ?o . }",
        "select ?v ?o where { ?v a <Paper> . ?v <cites> ?o . ?o a <Paper> . }",
    ]
    for text in queries:
        query = parse_query(text)
        batch = QueryExecutor(toy_kg, join_kernel="batch").evaluate(query)
        scalar = QueryExecutor(toy_kg, join_kernel="scalar").evaluate(query)
        assert batch.variables == scalar.variables
        for variable in batch.variables:
            assert np.array_equal(batch.columns[variable], scalar.columns[variable]), text


def test_batch_join_matches_scalar_reference_random_graphs():
    from repro.kg.graph import KnowledgeGraph
    from repro.kg.triples import TripleStore
    from repro.kg.vocabulary import Vocabulary

    rng = np.random.default_rng(11)
    num_nodes, num_relations = 12, 3
    queries = [
        "select ?a ?c where { ?a <r0> ?b . ?b <r1> ?c . ?a <r2> ?c . }",
        "select ?a ?b where { ?a <r0> ?b . ?b <r0> ?a . }",
        "select ?a ?b ?c where { ?a ?p ?b . ?b <r1> ?c . ?a ?q ?c . }",
        "select ?a where { ?a <r0> ?b . ?c <r1> ?b . ?a <r2> ?c . }",
    ]
    for _trial in range(15):
        count = int(rng.integers(5, 60))
        triples = list(
            {
                (
                    int(rng.integers(num_nodes)),
                    int(rng.integers(num_relations)),
                    int(rng.integers(num_nodes)),
                )
                for _ in range(count)
            }
        )
        kg = KnowledgeGraph(
            node_vocab=Vocabulary([f"n{i}" for i in range(num_nodes)]),
            class_vocab=Vocabulary(["C0"]),
            relation_vocab=Vocabulary([f"r{i}" for i in range(num_relations)]),
            node_types=np.zeros(num_nodes, dtype=np.int64),
            triples=TripleStore.from_triples(triples),
        )
        for text in queries:
            query = parse_query(text)
            batch = QueryExecutor(kg, join_kernel="batch").evaluate(query)
            scalar = QueryExecutor(kg, join_kernel="scalar").evaluate(query)
            for variable in batch.variables:
                assert np.array_equal(
                    batch.columns[variable], scalar.columns[variable]
                ), text


def test_page_clamps_negative_offset_and_limit(toy_kg):
    """Regression: negatives must not fall through to Python slice wrap.

    ``page(-3, None)`` used to slice from the *end* of the result (the
    last three rows); SPARQL solution modifiers are non-negative, so a
    negative offset skips nothing and a negative limit keeps nothing.
    """
    executor = QueryExecutor(toy_kg)
    full = executor.evaluate(parse_query("select ?s ?p ?o where { ?s ?p ?o }"))
    assert full.num_rows > 3

    negative_offset = full.page(-3, None)
    assert negative_offset.num_rows == full.num_rows  # not the last 3 rows
    for v in full.variables:
        np.testing.assert_array_equal(
            negative_offset.columns[v], full.columns[v]
        )

    assert full.page(-3, 2).num_rows == 2  # OFFSET clamps to 0, LIMIT holds
    np.testing.assert_array_equal(
        full.page(-3, 2).columns["s"], full.page(0, 2).columns["s"]
    )
    assert full.page(0, -1).num_rows == 0  # negative LIMIT keeps nothing
    assert full.page(None, -5).num_rows == 0
    assert full.page(2, -1).num_rows == 0


def test_iter_pages_concatenates_bit_exact(toy_kg):
    executor = QueryExecutor(toy_kg)
    full = executor.evaluate(parse_query("select ?s ?p ?o where { ?s ?p ?o }"))
    for page_rows in (1, 3, full.num_rows, full.num_rows + 10):
        pages = list(full.iter_pages(page_rows))
        assert len(pages) == -(-full.num_rows // page_rows)
        merged = pages[0]
        for page in pages[1:]:
            merged = merged.concat(page)
        for v in full.variables:
            np.testing.assert_array_equal(merged.columns[v], full.columns[v])


def test_iter_pages_empty_result_yields_nothing(toy_kg):
    executor = QueryExecutor(toy_kg)
    empty = executor.evaluate(
        parse_query("select ?s ?o where { ?s <noSuchRelation> ?o }")
    )
    assert list(empty.iter_pages(4)) == []


def test_iter_pages_rejects_non_positive_page_rows(toy_kg):
    executor = QueryExecutor(toy_kg)
    full = executor.evaluate(parse_query("select ?s ?p ?o where { ?s ?p ?o }"))
    with pytest.raises(ValueError):
        list(full.iter_pages(0))
    with pytest.raises(ValueError):
        list(full.iter_pages(-2))

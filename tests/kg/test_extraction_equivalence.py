"""KG′ extraction equals its per-item oracle (``extraction_oracle``).

The lexsort triple dedup, the bulk ``Vocabulary.restrict``, the array
remaps of NC, LP and multi-label tasks and ``Split.select`` must return
``==`` arrays of the same dtype as the forms they replaced, and the same
exceptions, on stores with duplicates, negative ids and ids up to the
int64 extremes, on repeated kept ids and on targets missing from the
subgraph.  The last test runs whole ``extract_tosg`` calls both
ways.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import extraction_oracle as oracle
from repro.core import extract_tosg
from repro.core.multilabel import MultiLabelNodeClassificationTask, remap_multilabel_task
from repro.core.tasks import (
    LinkPredictionTask,
    NodeClassificationTask,
    Split,
    remap_lp_task,
    remap_nc_task,
)
from repro.kg.graph import KnowledgeGraph
from repro.kg.triples import TripleStore
from repro.kg.vocabulary import Vocabulary
from repro.nputil import positions_in
from repro.sparql import endpoint as endpoint_module
from repro.sparql.endpoint import SparqlEndpoint


def assert_same_array(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_store(got, want):
    for column in ("s", "p", "o"):
        assert_same_array(getattr(got, column), getattr(want, column))


def assert_same_map(got, want):
    typed = lambda d: [(type(k), k, type(v), v) for k, v in d.items()]  # noqa: E731
    assert typed(got) == typed(want)


def assert_same_vocab(got, want):
    assert got.name == want.name
    assert list(got) == list(want)
    assert_same_map(got._term_to_id, want._term_to_id)


def assert_same_task(got, want):
    assert type(got) is type(want)
    for name, value in vars(want).items():
        other = getattr(got, name)
        if isinstance(value, np.ndarray):
            assert_same_array(other, value)
        elif isinstance(value, Split):
            for part in ("train", "valid", "test"):
                assert_same_array(getattr(other, part), getattr(value, part))
            assert other.schema == value.schema
        else:
            assert other == value, name


# -- triple dedup ---------------------------------------------------------------

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
id_ranges = st.sampled_from([(0, 12), (-6, 6), (0, 2**62), (INT64_MIN, INT64_MAX)])


@st.composite
def stores(draw):
    low, high = draw(id_ranges)
    ids = st.integers(min_value=low, max_value=high)
    rows = draw(st.lists(st.tuples(ids, ids, ids), max_size=40))
    # Duplicates on purpose: repeat a drawn prefix.
    rows += rows[: draw(st.integers(min_value=0, max_value=len(rows)))]
    return TripleStore.from_triples(rows)


@settings(max_examples=200, deadline=None)
@given(stores())
def test_dedup_equals_unique_rows(store):
    assert_same_store(store.deduplicated(), oracle.deduplicated(store))


def test_dedup_edge_shapes():
    cases = [
        TripleStore(),
        TripleStore.from_triples([(5, 1, 5)] * 4),
        TripleStore.from_triples([(-1, 0, 3), (-1, 0, 3), (2, -7, 0)]),
        TripleStore.from_triples([(2**40, 3, 2**30), (0, 0, 0), (2**40, 3, 2**30)]),
        TripleStore.from_triples([(2**62, 1, 1), (2**62, 0, 1), (2**62, 1, 0)]),
        # The int64 extremes, alone and next to small ids.
        TripleStore.from_triples([(0, 0, INT64_MAX), (0, 0, 0), (0, 0, INT64_MAX)]),
        TripleStore.from_triples([(INT64_MAX, 0, 0), (INT64_MIN, INT64_MAX, 1), (0, 0, 0)]),
        TripleStore.from_triples([(INT64_MIN, INT64_MIN, INT64_MIN)] * 2),
    ]
    for store in cases:
        assert_same_store(store.deduplicated(), oracle.deduplicated(store))


# -- vocabulary restriction --------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=12, unique=True),
    st.data(),
)
def test_restrict_equals_per_term_loop(terms, data):
    vocab = Vocabulary(terms, name="v")
    keep = data.draw(
        st.lists(st.integers(min_value=0, max_value=len(terms) - 1), max_size=20)
    )
    for keep_ids in (keep, np.asarray(keep, dtype=np.int64)):
        got_vocab, got_map = vocab.restrict(keep_ids)
        want_vocab, want_map = oracle.restrict(vocab, keep_ids)
        assert_same_vocab(got_vocab, want_vocab)
        assert_same_map(got_map, want_map)
        assert vocab.terms(keep_ids) == oracle.terms(vocab, keep_ids)


@pytest.mark.parametrize("keep_ids", [[1, -2, 0], [-1], [0, 9, -1], [7]])
def test_restrict_and_terms_raise_as_the_loop_did(keep_ids):
    vocab = Vocabulary(["a", "b", "c"])
    for fast, slow in (
        (vocab.restrict, lambda ids: oracle.restrict(vocab, ids)),
        (vocab.terms, lambda ids: oracle.terms(vocab, ids)),
    ):
        with pytest.raises(IndexError) as want:
            slow(keep_ids)
        with pytest.raises(IndexError) as got:
            fast(keep_ids)
        assert str(got.value) == str(want.value)


# -- task remapping -----------------------------------------------------------------


@st.composite
def graphs_and_subgraphs(draw):
    num_nodes = draw(st.integers(min_value=1, max_value=20))
    classes = draw(st.integers(min_value=1, max_value=3))
    relations = draw(st.integers(min_value=1, max_value=3))
    node = st.integers(min_value=0, max_value=num_nodes - 1)
    rel = st.integers(min_value=0, max_value=relations - 1)
    rows = draw(st.lists(st.tuples(node, rel, node), max_size=40))
    kg = KnowledgeGraph(
        node_vocab=Vocabulary([f"n{i}" for i in range(num_nodes)], name="nodes"),
        class_vocab=Vocabulary([f"c{i}" for i in range(classes)], name="classes"),
        relation_vocab=Vocabulary([f"r{i}" for i in range(relations)], name="relations"),
        node_types=np.asarray(
            draw(st.lists(st.integers(0, classes - 1), min_size=num_nodes, max_size=num_nodes)),
            dtype=np.int64,
        ),
        triples=TripleStore.from_triples(rows),
    )
    kept_rows = draw(st.lists(st.sampled_from(rows), max_size=20)) if rows else []
    kept = TripleStore.from_triples(kept_rows)
    extra = np.asarray(draw(st.lists(node, max_size=3)), dtype=np.int64)
    subgraph, mapping = kg.subgraph_from_triples(kept, extra_nodes=extra)
    return kg, subgraph, mapping, node


def splits(draw, count):
    position = st.integers(min_value=0, max_value=max(count - 1, 0))
    part = lambda: np.asarray(  # noqa: E731
        draw(st.lists(position, max_size=count)) if count else [], dtype=np.int64
    )
    return Split(part(), part(), part())


@settings(max_examples=100, deadline=None)
@given(graphs_and_subgraphs(), st.data())
def test_nc_and_multilabel_remaps_equal_the_loops(graph, data):
    kg, subgraph, mapping, node = graph
    # Targets beyond the subgraph (and repeated ones) on purpose.
    targets = np.asarray(data.draw(st.lists(node, max_size=12)), dtype=np.int64)
    count = len(targets)
    nc = NodeClassificationTask(
        name="nc", target_class=data.draw(st.integers(0, 3)), target_nodes=targets,
        labels=np.asarray(data.draw(st.lists(st.integers(0, 2), min_size=count, max_size=count)),
                          dtype=np.int64),
        num_labels=3, split=splits(data.draw, count),
    )
    assert_same_task(remap_nc_task(nc, subgraph, mapping),
                     oracle.remap_nc_task(nc, subgraph, mapping))
    ml = MultiLabelNodeClassificationTask(
        name="ml", target_class=0, target_nodes=targets,
        labels=np.asarray(data.draw(st.lists(
            st.lists(st.integers(0, 1), min_size=2, max_size=2), min_size=count, max_size=count,
        )), dtype=np.int64).reshape(count, 2),
        split=splits(data.draw, count),
    )
    assert_same_task(remap_multilabel_task(ml, subgraph, mapping),
                     oracle.remap_multilabel_task(ml, subgraph, mapping))


@settings(max_examples=100, deadline=None)
@given(graphs_and_subgraphs(), st.data())
def test_lp_remap_equals_the_loop(graph, data):
    kg, subgraph, mapping, node = graph
    edges = np.asarray(data.draw(st.lists(st.tuples(node, node), max_size=12)),
                       dtype=np.int64).reshape(-1, 2)
    lp = LinkPredictionTask(
        name="lp", predicate=data.draw(st.integers(0, 3)), head_class=0,
        tail_class=data.draw(st.integers(0, 3)), edges=edges,
        split=splits(data.draw, len(edges)),
    )
    assert_same_task(remap_lp_task(lp, subgraph, mapping),
                     oracle.remap_lp_task(lp, subgraph, mapping))


def test_positions_in_marks_absent_and_out_of_range_ids(toy_kg):
    _, mapping = toy_kg.induced_subgraph(np.asarray([1, 4, 6], dtype=np.int64))
    probe = np.asarray([[4, 0], [6, -3], [99, 1]], dtype=np.int64)
    found = positions_in(mapping.node_old_ids, probe)
    assert found.tolist() == [[1, -1], [2, -1], [-1, 0]]
    assert found.tolist() == [
        [mapping.node_old_to_new.get(int(i), -1) for i in row] for row in probe
    ]
    assert positions_in(np.empty(0, dtype=np.int64), probe).tolist() == [[-1, -1]] * 3


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_split_select_equals_the_loop(data):
    count = data.draw(st.integers(min_value=0, max_value=15))
    split = splits(data.draw, count)
    kept = sorted(data.draw(st.sets(st.integers(0, max(count - 1, 0))))) if count else []
    keep = np.asarray(kept, dtype=np.int64)
    got, want = split.select(keep), oracle.select(split, keep)
    for part in ("train", "valid", "test"):
        assert_same_array(getattr(got, part), getattr(want, part))


# -- whole extractions --------------------------------------------------------------


def _extraction(kg, task, d, h):
    endpoint = SparqlEndpoint(kg)
    result = extract_tosg(kg, task, method="sparql", direction=d, hops=h,
                          endpoint=endpoint, workers=1, batch_size=7)
    stats = endpoint.stats
    counters = (stats.requests, stats.rows_returned, stats.bytes_raw,
                stats.bytes_shipped, list(stats.queries))
    return result, counters


@pytest.mark.parametrize("d,h", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_extract_tosg_equals_its_oracle_run(toy_kg, toy_task, d, h, monkeypatch):
    # Compare every query of both runs, not the most recent ones only.
    monkeypatch.setattr(endpoint_module, "QUERY_LOG_LIMIT", None)
    got, got_counters = _extraction(toy_kg, toy_task, d, h)
    with oracle.oracle_mode():
        want, want_counters = _extraction(toy_kg, toy_task, d, h)
    assert got_counters == want_counters
    assert_same_store(got.subgraph.triples, want.subgraph.triples)
    assert_same_array(got.subgraph.node_types, want.subgraph.node_types)
    for vocab in ("node_vocab", "class_vocab", "relation_vocab"):
        assert_same_vocab(getattr(got.subgraph, vocab), getattr(want.subgraph, vocab))
    assert_same_array(got.mapping.node_old_ids, want.mapping.node_old_ids)
    for name in ("node_old_to_new", "class_old_to_new", "relation_old_to_new"):
        assert_same_map(getattr(got.mapping, name), getattr(want.mapping, name))
    assert_same_task(got.task, want.task)
    assert got.params == want.params

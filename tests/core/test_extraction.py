"""The three extraction methods: BRW, IBS, SPARQL (Algorithms 1–3)."""

import numpy as np
import pytest

from repro.core.api import extract_tosg
from repro.core.brw import BiasedRandomWalkSampler
from repro.core.ibs import InfluenceBasedSampler
from repro.core.pattern import GraphPattern
from repro.core.sparql_method import SparqlTOSGExtractor
from repro.sparql.endpoint import SparqlEndpoint


def test_brw_roots_are_targets(toy_kg, toy_task):
    sampler = BiasedRandomWalkSampler(toy_kg, walk_length=2, batch_size=4)
    sampled = sampler.sample(toy_task, np.random.default_rng(0))
    target_set = set(toy_task.target_nodes.tolist())
    assert set(sampled.root_nodes.tolist()) <= target_set
    assert len(sampled.root_nodes) == 4


def test_brw_excludes_disconnected_noise(toy_kg, toy_task):
    sampler = BiasedRandomWalkSampler(toy_kg, walk_length=3, batch_size=6)
    sampled = sampler.sample(toy_task, np.random.default_rng(0))
    classes = set(sampled.subgraph.class_vocab)
    assert "Movie" not in classes  # movies are unreachable from papers


def test_brw_requires_targets(toy_kg, toy_task):
    import dataclasses

    empty = dataclasses.replace(toy_task)
    empty.target_nodes = np.empty(0, dtype=np.int64)
    empty.labels = np.empty(0, dtype=np.int64)
    sampler = BiasedRandomWalkSampler(toy_kg)
    with pytest.raises(ValueError):
        sampler.sample(empty, np.random.default_rng(0))


def test_brw_parameter_validation(toy_kg):
    with pytest.raises(ValueError):
        BiasedRandomWalkSampler(toy_kg, walk_length=0)
    with pytest.raises(ValueError):
        BiasedRandomWalkSampler(toy_kg, batch_size=0)


def test_ibs_includes_targets_and_influencers(toy_kg, toy_task):
    sampler = InfluenceBasedSampler(toy_kg, top_k=3, batch_size=6)
    sampled = sampler.sample(toy_task, np.random.default_rng(0))
    new_names = set(sampled.subgraph.node_vocab)
    # All six papers were chosen as the partition's targets.
    for i in range(6):
        assert f"p{i}" in new_names
    assert "Movie" not in set(sampled.subgraph.class_vocab)


def test_ibs_without_workers_warns_nothing(toy_kg):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        InfluenceBasedSampler(toy_kg, top_k=3)


def test_ibs_chunking_is_invisible(toy_kg, toy_task):
    whole = InfluenceBasedSampler(toy_kg, top_k=3)
    chunked = InfluenceBasedSampler(toy_kg, top_k=3, chunk_size=2)
    targets = toy_task.target_nodes
    assert whole.influence_pairs(targets) == chunked.influence_pairs(targets)


def test_sparql_extractor_basic(toy_kg, toy_task):
    extractor = SparqlTOSGExtractor(SparqlEndpoint(toy_kg), batch_size=3, workers=2)
    subgraph, mapping, stats = extractor.extract(toy_task, GraphPattern(2, 1))
    assert stats.subqueries == 2
    assert stats.pages >= 2
    assert stats.triples_after_dedup <= stats.triples_before_dedup
    assert "Movie" not in set(subgraph.class_vocab)
    # All targets survive (they all have edges here).
    assert all(int(t) in mapping.node_old_to_new for t in toy_task.target_nodes)


def test_sparql_pagination_invariance(toy_kg, toy_task):
    """Different page sizes must produce the identical TOSG."""
    small = SparqlTOSGExtractor(SparqlEndpoint(toy_kg), batch_size=2, workers=1)
    large = SparqlTOSGExtractor(SparqlEndpoint(toy_kg), batch_size=1000, workers=3)
    sub_small, _, _ = small.extract(toy_task, GraphPattern(1, 1))
    sub_large, _, _ = large.extract(toy_task, GraphPattern(1, 1))
    triples_small = {
        (
            sub_small.node_vocab.term(s),
            sub_small.relation_vocab.term(p),
            sub_small.node_vocab.term(o),
        )
        for s, p, o in sub_small.triples
    }
    triples_large = {
        (
            sub_large.node_vocab.term(s),
            sub_large.relation_vocab.term(p),
            sub_large.node_vocab.term(o),
        )
        for s, p, o in sub_large.triples
    }
    assert triples_small == triples_large


def test_sparql_d1h1_equals_manual_expansion(toy_kg, toy_task):
    """SPARQL d1h1 == {outgoing triples of target vertices}."""
    extractor = SparqlTOSGExtractor(SparqlEndpoint(toy_kg), batch_size=100)
    subgraph, _, _ = extractor.extract(toy_task, GraphPattern(1, 1))
    expected = set()
    paper_class = toy_kg.class_vocab.id("Paper")
    for s, p, o in toy_kg.triples:
        if toy_kg.node_types[s] == paper_class:
            expected.add(
                (
                    toy_kg.node_vocab.term(s),
                    toy_kg.relation_vocab.term(p),
                    toy_kg.node_vocab.term(o),
                )
            )
    got = {
        (subgraph.node_vocab.term(s), subgraph.relation_vocab.term(p), subgraph.node_vocab.term(o))
        for s, p, o in subgraph.triples
    }
    assert got == expected


def test_extract_tosg_facade_all_methods(toy_kg, toy_task):
    for method in ("sparql", "brw", "ibs"):
        result = extract_tosg(
            toy_kg, toy_task, method=method, rng=np.random.default_rng(0),
            direction=2, hops=1, walk_length=2, top_k=3,
        )
        assert result.subgraph.num_nodes > 0
        assert result.extraction_seconds >= 0
        assert result.task.num_targets > 0
        assert result.source_kg_name == "toy"
        # Remapped labels agree with the originals through the mapping.
        for position, node in enumerate(result.task.target_nodes):
            old = int(result.mapping.node_old_ids[node])
            original_position = toy_task.target_nodes.tolist().index(old)
            assert toy_task.labels[original_position] == result.task.labels[position]


def test_extract_tosg_rejects_unknown_method(toy_kg, toy_task):
    with pytest.raises(ValueError):
        extract_tosg(toy_kg, toy_task, method="magic")


def test_extract_tosg_keeps_isolated_targets(toy_kg, toy_task):
    """SPARQL extraction keeps even edge-less targets (extra_nodes)."""
    result = extract_tosg(toy_kg, toy_task, method="sparql", direction=1, hops=1)
    assert result.task.num_targets == toy_task.num_targets


def test_reduction_ratio(toy_kg, toy_task):
    result = extract_tosg(toy_kg, toy_task, method="sparql", direction=1, hops=1)
    assert 0 < result.reduction_ratio <= 1.0

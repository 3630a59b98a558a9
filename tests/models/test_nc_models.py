"""The four NC methods: interface compliance + learnability.

Each model must (i) expose the trainer protocol, (ii) overfit the toy task
(memorisation sanity), and (iii) register modeled memory.
"""

import numpy as np
import pytest

from repro.models import (
    GraphSAINTClassifier,
    ModelConfig,
    RGCNNodeClassifier,
    SeHGNNClassifier,
    ShaDowSAINTClassifier,
)
from repro.nn.functional import accuracy
from repro.training import ResourceMeter, TrainConfig, train_node_classifier

CONFIG = ModelConfig(hidden_dim=16, num_layers=2, dropout=0.0, lr=0.05, batch_size=16)

ALL_MODELS = [RGCNNodeClassifier, GraphSAINTClassifier, ShaDowSAINTClassifier, SeHGNNClassifier]


@pytest.mark.parametrize("model_cls", ALL_MODELS)
def test_predict_logits_shape(toy_kg, toy_task, model_cls):
    model = model_cls(toy_kg, toy_task, CONFIG)
    logits = model.predict_logits()
    assert logits.shape == (toy_task.num_targets, toy_task.num_labels)


@pytest.mark.parametrize("model_cls", ALL_MODELS)
def test_train_epoch_returns_finite_loss(toy_kg, toy_task, model_cls):
    model = model_cls(toy_kg, toy_task, CONFIG)
    loss = model.train_epoch(np.random.default_rng(0))
    assert np.isfinite(loss)


@pytest.mark.parametrize("model_cls", ALL_MODELS)
def test_loss_decreases_with_training(toy_kg, toy_task, model_cls):
    model = model_cls(toy_kg, toy_task, CONFIG)
    rng = np.random.default_rng(0)
    first = model.train_epoch(rng)
    for _ in range(30):
        last = model.train_epoch(rng)
    assert last < first


@pytest.mark.parametrize("model_cls", ALL_MODELS)
def test_overfits_train_split(toy_kg, toy_task, model_cls):
    model = model_cls(toy_kg, toy_task, CONFIG)
    rng = np.random.default_rng(0)
    for _ in range(60):
        model.train_epoch(rng)
    logits = model.predict_logits()
    train = toy_task.split.train
    assert accuracy(logits[train], toy_task.labels[train]) >= 0.75


@pytest.mark.parametrize("model_cls", ALL_MODELS)
def test_memory_registration(toy_kg, toy_task, model_cls):
    meter = ResourceMeter()
    model_cls(toy_kg, toy_task, CONFIG, meter=meter)
    assert meter.peak_bytes > 0
    assert "parameters" in meter.components


def test_rgcn_fullbatch_registers_relation_heavy_activations(toy_kg, toy_task):
    meter = ResourceMeter()
    RGCNNodeClassifier(toy_kg, toy_task, CONFIG, meter=meter)
    assert meter.components["activations"] > meter.components["parameters"] * 0


def test_graphsaint_trains_through_trainer(toy_kg, toy_task):
    meter = ResourceMeter()
    model = GraphSAINTClassifier(toy_kg, toy_task, CONFIG, meter=meter)
    result = train_node_classifier(model, toy_task, TrainConfig(epochs=3, eval_every=1), meter)
    assert result.epochs_run == 3
    assert result.peak_memory_bytes > 0


def test_shadow_ego_graphs_bounded(toy_kg, toy_task):
    model = ShaDowSAINTClassifier(toy_kg, toy_task, CONFIG, depth=1, fanout=2)
    for ego in model._egos:
        assert len(ego.nodes) <= 1 + 2  # root + fanout at depth 1
        assert ego.nodes[0] in toy_task.target_nodes


def test_shadow_flat_gather_assembly_matches_scalar_oracle(toy_kg, toy_task):
    """Minibatch assembly via flat-array gathers is bit-identical to the
    per-ego concatenation + per-relation mask oracle, including duplicate
    and permuted ego selections."""
    model = ShaDowSAINTClassifier(toy_kg, toy_task, CONFIG, depth=2, fanout=3)
    num = len(model._egos)
    batches = [
        np.arange(num),
        np.arange(num)[::-1],
        np.array([0]),
        np.array([num - 1, 0, num - 1]),  # duplicates allowed
        np.random.default_rng(7).integers(0, num, size=2 * num),
    ]
    for batch in batches:
        nodes, matrices, roots = model._assemble(batch)
        s_nodes, s_matrices, s_roots = model._assemble_scalar(batch)
        np.testing.assert_array_equal(nodes, s_nodes)
        np.testing.assert_array_equal(roots, s_roots)
        assert len(matrices) == len(s_matrices)
        for matrix, oracle in zip(matrices, s_matrices):
            np.testing.assert_array_equal(matrix.indptr, oracle.indptr)
            np.testing.assert_array_equal(matrix.indices, oracle.indices)
            np.testing.assert_array_equal(matrix.data, oracle.data)


def test_sehgnn_metapath_features_precomputed(toy_kg, toy_task, monkeypatch):
    monkeypatch.setattr("repro.models.sehgnn.NUM_TWO_HOP", 2)
    model = SeHGNNClassifier(toy_kg, toy_task, CONFIG, feature_dim=8)
    assert model.metapath_features.shape[0] == toy_task.num_targets
    assert model.metapath_features.shape[1] == model.num_metapaths
    assert model.metapath_names[0] == "self"


def test_model_size_scales_with_relations(toy_kg, toy_task):
    """Fewer relations => smaller RGCN (Table IV model-size effect)."""
    from repro.core.api import extract_tosg

    full = RGCNNodeClassifier(toy_kg, toy_task, CONFIG)
    tosa = extract_tosg(toy_kg, toy_task, method="sparql", direction=1, hops=1)
    small = RGCNNodeClassifier(tosa.subgraph, tosa.task, CONFIG)
    assert small.num_parameters() < full.num_parameters()

"""Shared RGCN building blocks and the architecture contract."""

import inspect

import numpy as np
import pytest

from repro.models import ARCHITECTURES
from repro.models.base import ModelConfig, RGCNLayer, RGCNStack, restrict_matrices
from repro.nn.tensor import Tensor
from repro.transform.adjacency import build_hetero_adjacency


def test_rgcn_layer_forward_shape(toy_kg):
    adjacency = build_hetero_adjacency(toy_kg)
    rng = np.random.default_rng(0)
    layer = RGCNLayer(adjacency.num_relations, 6, 4, rng)
    out = layer(Tensor(rng.normal(size=(toy_kg.num_nodes, 6))), adjacency.matrices)
    assert out.shape == (toy_kg.num_nodes, 4)
    assert (out.data >= 0).all()  # relu


def test_rgcn_layer_relation_count_checked(toy_kg):
    adjacency = build_hetero_adjacency(toy_kg)
    layer = RGCNLayer(3, 6, 4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        layer(Tensor(np.zeros((toy_kg.num_nodes, 6))), adjacency.matrices)


def test_rgcn_layer_isolated_node_uses_self_loop(toy_kg):
    adjacency = build_hetero_adjacency(toy_kg)
    rng = np.random.default_rng(0)
    layer = RGCNLayer(adjacency.num_relations, 4, 4, rng, activation=False)
    x = np.zeros((toy_kg.num_nodes, 4))
    m4 = toy_kg.node_vocab.id("m0")
    x[m4] = 1.0
    out = layer(Tensor(x), adjacency.matrices)
    expected = x[m4] @ layer.self_weight.data + layer.bias.data
    assert np.allclose(out.data[m4], expected)


def test_rgcn_stack_depth_and_dims(toy_kg):
    adjacency = build_hetero_adjacency(toy_kg)
    rng = np.random.default_rng(0)
    stack = RGCNStack(adjacency.num_relations, [8, 8, 3], rng, dropout=0.0)
    assert stack.num_layers == 2
    out = stack(Tensor(rng.normal(size=(toy_kg.num_nodes, 8))), adjacency.matrices)
    assert out.shape == (toy_kg.num_nodes, 3)


def test_rgcn_stack_needs_two_dims():
    with pytest.raises(ValueError):
        RGCNStack(2, [8], np.random.default_rng(0))


def test_stack_gradients_flow(toy_kg):
    adjacency = build_hetero_adjacency(toy_kg)
    rng = np.random.default_rng(0)
    stack = RGCNStack(adjacency.num_relations, [4, 4], rng)
    x = Tensor(rng.normal(size=(toy_kg.num_nodes, 4)), requires_grad=True)
    loss = (stack(x, adjacency.matrices) ** 2).sum()
    loss.backward()
    assert x.grad is not None
    # Self-loop weight of the single layer must receive gradient.
    assert stack.layer(0).self_weight.grad is not None


def test_restrict_matrices(toy_kg):
    adjacency = build_hetero_adjacency(toy_kg, normalize=False)
    nodes = np.asarray([toy_kg.node_vocab.id("p0"), toy_kg.node_vocab.id("a0")])
    matrices, sorted_nodes = restrict_matrices(adjacency, nodes)
    assert len(matrices) == adjacency.num_relations
    has_author = toy_kg.relation_vocab.id("hasAuthor")
    local_p0 = int(np.searchsorted(sorted_nodes, toy_kg.node_vocab.id("p0")))
    local_a0 = int(np.searchsorted(sorted_nodes, toy_kg.node_vocab.id("a0")))
    assert matrices[has_author][local_p0, local_a0] == 1.0


def test_model_config_rng_deterministic():
    config = ModelConfig(seed=5)
    assert config.rng().integers(1000) == ModelConfig(seed=5).rng().integers(1000)


@pytest.mark.parametrize(
    "key", sorted(ARCHITECTURES), ids=[f"{kind}-{name}" for kind, name in sorted(ARCHITECTURES)]
)
def test_constructor_options_are_the_checkpointed_ones(key):
    """A constructor option a checkpoint does not record cannot be restored on load."""
    cls = ARCHITECTURES[key]
    names = list(inspect.signature(cls.__init__).parameters)
    assert names[:5] == ["self", "kg", "task", "config", "meter"]
    assert tuple(names[5:]) == tuple(getattr(cls, "checkpoint_kwargs", ()))

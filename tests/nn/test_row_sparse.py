"""Row-sparse gradients and in-place optimizers against the dense oracles.

Each scenario trains a few parameters for ``STEPS`` steps twice from the
same seed: with the program's code, and with :mod:`dense_oracle`'s dense
forms swapped in.  After every step the parameters, Adam's moments (or
SGD's parameters) and the dense gradient must be equal under ``==``.  On
even steps the gradient is inspected without densifying it, so the
optimizer takes its row-sparse path; on odd steps ``.grad`` is read, so it
takes the dense one.
"""

import numpy as np
import pytest

import dense_oracle
from repro.nn.functional import cross_entropy, margin_ranking_loss
from repro.nn.layers import Embedding, Parameter
from repro.nn.optim import SGD, Adam
from repro.nn.tensor import Tensor

STEPS = 60
ROWS, DIM, LABELS = 40, 6, 3


def _dense_view(parameter):
    """The dense gradient, leaving a row-sparse one row-sparse."""
    sparse = parameter.row_grad()
    if sparse is None:
        return None if parameter.grad is None else parameter.grad.copy()
    rows, sums = sparse
    dense = np.zeros_like(parameter.data)
    dense[rows] = sums
    return dense


def _repeated_gather(rng):
    table = Embedding(ROWS, DIM, rng)
    weight = Parameter(rng.standard_normal((DIM, LABELS)))

    def loss(step_rng):
        index = step_rng.integers(0, ROWS, size=30)  # repeats within a step
        logits = table(index) @ weight
        return cross_entropy(logits.relu(), step_rng.integers(0, LABELS, size=30))

    return [table.weight, weight], loss


def _gathered_twice(rng):
    """An LP head: one table gathered for heads, tails and corrupted tails."""
    table = Embedding(ROWS, DIM, rng)
    relation = Embedding(2, DIM, rng)

    def loss(step_rng):
        edges = step_rng.integers(0, ROWS, size=(12, 2))
        negatives = step_rng.integers(0, ROWS, size=12)
        rel = relation(np.zeros(12, dtype=np.int64))
        heads, tails, corrupt = table(edges[:, 0]), table(edges[:, 1]), table(negatives)
        positive = (heads * rel * tails).sum(axis=1)
        negative = (heads * relation(np.zeros(12, dtype=np.int64)) * corrupt).sum(axis=1)
        return margin_ranking_loss(positive, negative, margin=1.0)

    return [table.weight, relation.weight], loss


def _gathered_and_dense(rng):
    """Full-batch use of the table (``Embedding.all``) mixed with gathers."""
    table = Embedding(ROWS, DIM, rng)
    weight = Parameter(rng.standard_normal((DIM, LABELS)))

    def loss(step_rng):
        first = table(step_rng.integers(0, ROWS, size=10))
        whole = table.all() @ weight
        second = table(step_rng.integers(0, ROWS, size=10))
        picked = whole.gather_rows(step_rng.integers(0, ROWS, size=8))
        return (
            cross_entropy(picked, step_rng.integers(0, LABELS, size=8))
            + (first * first).mean()
            + (second @ weight).tanh().mean()
        )

    return [table.weight, weight], loss


def _aliased_pass_through(rng):
    """``__add__`` hands one gradient array to both operands unchanged."""
    left = Parameter(rng.standard_normal((ROWS, DIM)))
    right = Parameter(rng.standard_normal((ROWS, DIM)))

    def loss(step_rng):
        hidden = left + right  # both receive hidden's gradient array
        doubled = hidden + hidden  # hidden receives it twice
        scale = step_rng.standard_normal((ROWS, DIM))
        picked = left.gather_rows(step_rng.integers(0, ROWS, size=5))
        return (doubled * doubled * scale).mean() + (left * 3.0).sum() + picked.sum()

    return [left, right], loss


SCENARIOS = {
    "repeated_gather": (_repeated_gather, lambda ps: Adam(ps, lr=0.05)),
    "gathered_twice": (_gathered_twice, lambda ps: Adam(ps, lr=0.05)),
    "gathered_and_dense": (_gathered_and_dense, lambda ps: Adam(ps, lr=0.05)),
    "weight_decay": (_repeated_gather, lambda ps: Adam(ps, lr=0.05, weight_decay=0.01)),
    "sgd_momentum": (_gathered_twice, lambda ps: SGD(ps, lr=0.1, momentum=0.9)),
    "sgd_plain": (_repeated_gather, lambda ps: SGD(ps, lr=0.1, weight_decay=0.01)),
    "aliased_pass_through": (_aliased_pass_through, lambda ps: Adam(ps, lr=0.05)),
}


def _trajectory(name):
    build, make_optimizer = SCENARIOS[name]
    parameters, loss_fn = build(np.random.default_rng(11))
    optimizer = make_optimizer(parameters)
    step_rng = np.random.default_rng(5)
    snapshots = []
    sparse_steps = 0
    for step in range(STEPS):
        optimizer.zero_grad()
        loss_fn(step_rng).backward()
        sparse_steps += parameters[0].row_grad() is not None
        if step % 2:
            grads = [None if p.grad is None else p.grad.copy() for p in parameters]
        else:
            grads = [_dense_view(p) for p in parameters]
        optimizer.step()
        state = []
        if isinstance(optimizer, Adam):
            state = [m.copy() for p in parameters for m in dense_oracle.moments(optimizer, p)]
        snapshots.append(([p.data.copy() for p in parameters], grads, state))
    return snapshots, sparse_steps


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_matches_the_dense_oracle(name):
    got, sparse_steps = _trajectory(name)
    with dense_oracle.dense_mode():
        want, oracle_sparse_steps = _trajectory(name)
    assert oracle_sparse_steps == 0
    if name != "aliased_pass_through" and name != "gathered_and_dense":
        assert sparse_steps == STEPS  # the row-sparse path really ran
    for step, (g, w) in enumerate(zip(got, want)):
        for kind, got_arrays, want_arrays in zip(("params", "grads", "moments"), g, w):
            for a, b in zip(got_arrays, want_arrays):
                assert np.array_equal(a, b), f"{kind} differ at step {step}"


def test_dense_mode_restores_the_program():
    before = (Tensor._accumulate, Tensor.gather_rows, Adam.step, SGD.step)
    with dense_oracle.dense_mode():
        assert Adam.step is dense_oracle.adam_step
    assert (Tensor._accumulate, Tensor.gather_rows, Adam.step, SGD.step) == before


def test_row_grad_sums_repeats_in_index_order():
    table = Parameter(np.zeros((5, 2)))
    index = np.asarray([3, 1, 3, 3, 0])
    grad = np.asarray([[0.1, 1e16], [2.0, 3.0], [0.2, 1.0], [0.3, -1e16], [4.0, 5.0]])
    table.gather_rows(index).backward(grad)
    rows, sums = table.row_grad()
    assert rows.tolist() == [0, 1, 3]
    full = np.zeros((5, 2))
    np.add.at(full, index, grad)
    assert np.array_equal(sums, full[rows])
    assert np.array_equal(table.grad, full)  # reading .grad densifies
    assert table.row_grad() is None


def test_row_grad_merges_pieces_in_arrival_order():
    table = Parameter(np.zeros((6, 1)))
    out = table.gather_rows([1, 4]) * 1.0 + table.gather_rows([4, 5]) * 2.0
    out.backward(np.asarray([[1e16], [0.5]]))
    rows, sums = table.row_grad()
    assert rows.tolist() == [1, 4, 5]
    with dense_oracle.dense_mode():
        oracle = Parameter(np.zeros((6, 1)))
        out = oracle.gather_rows([1, 4]) * 1.0 + oracle.gather_rows([4, 5]) * 2.0
        out.backward(np.asarray([[1e16], [0.5]]))
    assert np.array_equal(sums, oracle.grad[rows])


def test_negative_row_ids_fall_back_to_a_dense_gradient():
    table = Parameter(np.zeros((4, 2)))
    table.gather_rows([-1, 3, 0]).backward(np.ones((3, 2)))
    assert table.row_grad() is None
    assert table.grad[:, 0].tolist() == [1.0, 0.0, 0.0, 2.0]


@pytest.mark.parametrize("pass_through_first", [True, False])
def test_a_first_gradient_is_not_shared_with_a_pass_through_operand(pass_through_first):
    a = Parameter(np.ones(3))
    b = Parameter(np.ones(3))
    shared = (a + b) * 2.0  # a and b receive one gradient array
    own = a * 3.0
    loss = (shared.sum() + own.sum()) if pass_through_first else (own.sum() + shared.sum())
    loss.backward()
    assert a.grad.tolist() == [5.0, 5.0, 5.0]
    assert b.grad.tolist() == [2.0, 2.0, 2.0]
    assert not np.shares_memory(a.grad, b.grad)


def test_a_parameter_owns_its_array():
    source = np.ones(3)
    parameter = Parameter(source)
    optimizer = SGD([parameter], lr=0.5)
    parameter.grad = np.ones(3)
    optimizer.step()
    assert source.tolist() == [1.0, 1.0, 1.0]
    assert parameter.data.tolist() == [0.5, 0.5, 0.5]

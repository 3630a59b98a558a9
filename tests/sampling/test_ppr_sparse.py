"""Sparse-frontier batch PPR kernel: exact equivalence with the oracles.

The sparse kernel replays the same lock-step FIFO push schedule as the
dense kernel — which itself replays the scalar oracle per target — with all
``(target, node)`` state in hash-allocated slots.  Equivalence is therefore
*exact*: same touched sets, same top-k selections, same scores, across
random graphs, dangling nodes, isolated targets, chunk splits and the slot
map's growth/rehash paths.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.sampling.ppr import (
    _SlotMap,
    approximate_ppr,
    batch_approximate_ppr,
    batch_ppr_top_k,
)


def _random_graph(n, density, seed, with_dangling=False):
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < density).astype(float)
    np.fill_diagonal(dense, 0)
    dense = dense + dense.T
    if with_dangling and n > 2:
        loose = rng.choice(n, size=max(n // 4, 1), replace=False)
        dense[loose, :] = 0.0
        dense[:, loose] = 0.0
    adjacency = sp.csr_matrix(dense)
    adjacency.data[:] = 1.0
    return adjacency


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=0, max_value=1000),
    st.sampled_from([2e-4, 1e-3, 5e-3]),
    st.sampled_from([0.1, 0.25, 0.6]),
    st.booleans(),
)
def test_sparse_matches_scalar_oracle_property(n, seed, eps, alpha, with_dangling):
    adjacency = _random_graph(n, 0.2, seed, with_dangling=with_dangling)
    rng = np.random.default_rng(seed + 1)
    targets = rng.choice(n, size=min(n, 8), replace=False)
    got = batch_approximate_ppr(adjacency, targets, alpha=alpha, eps=eps, kernel="sparse")
    for target in targets:
        oracle = approximate_ppr(adjacency, [int(target)], alpha=alpha, eps=eps)
        assert set(got[int(target)]) == set(oracle)
        for node, score in oracle.items():
            assert got[int(target)][node] == score  # bit-exact, not approx


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=500))
def test_sparse_matches_dense_kernel_property(seed):
    adjacency = _random_graph(35, 0.2, seed)
    targets = np.random.default_rng(seed).choice(35, size=10, replace=False)
    dense = batch_ppr_top_k(adjacency, targets, 6, eps=1e-3, kernel="dense")
    sparse = batch_ppr_top_k(adjacency, targets, 6, eps=1e-3, kernel="sparse")
    assert dense == sparse


def test_sparse_chunking_does_not_change_results():
    adjacency = _random_graph(30, 0.2, seed=3)
    targets = np.arange(30)
    whole = batch_ppr_top_k(adjacency, targets, 6, eps=1e-3, kernel="sparse")
    for chunk_size in (1, 3, 7, 30, 100):
        chunked = batch_ppr_top_k(
            adjacency, targets, 6, eps=1e-3, kernel="sparse", chunk_size=chunk_size
        )
        assert chunked == whole


def test_sparse_isolated_and_dangling_nodes():
    adjacency = sp.csr_matrix((6, 6))
    assert batch_ppr_top_k(adjacency, [0, 4], 3, kernel="sparse") == {0: [], 4: []}
    maps = batch_approximate_ppr(adjacency, [2], alpha=0.3, kernel="sparse")
    assert maps[2] == {2: 1.0}
    # 0-1-2 chain plus isolated 3.
    rows, cols = [0, 1, 1, 2], [1, 0, 2, 1]
    chain = sp.csr_matrix((np.ones(4), (rows, cols)), shape=(4, 4))
    for target in range(4):
        oracle = approximate_ppr(chain, [target], eps=1e-4)
        got = batch_approximate_ppr(chain, [target], eps=1e-4, kernel="sparse")[target]
        assert got == oracle


def test_sparse_duplicate_and_empty_targets():
    adjacency = _random_graph(12, 0.3, seed=9)
    result = batch_ppr_top_k(adjacency, [4, 4, 7], 3, eps=1e-3, kernel="sparse")
    assert set(result) == {4, 7}
    assert result[4] == batch_ppr_top_k(adjacency, [4], 3, eps=1e-3, kernel="sparse")[4]
    assert batch_ppr_top_k(adjacency, [], 3, kernel="sparse") == {}
    assert batch_approximate_ppr(adjacency, [], kernel="sparse") == {}


def test_auto_kernel_selection_past_dense_node_limit(monkeypatch):
    import repro.sampling.ppr as ppr_module

    adjacency = _random_graph(25, 0.2, seed=11)
    targets = np.arange(0, 25, 3)
    dense = batch_ppr_top_k(adjacency, targets, 4, eps=1e-3)
    calls = []
    original = ppr_module._batch_push_sparse

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(ppr_module, "_batch_push_sparse", spy)
    monkeypatch.setattr(ppr_module, "DENSE_NODE_LIMIT", 10)
    assert batch_ppr_top_k(adjacency, targets, 4, eps=1e-3) == dense
    assert calls, "auto selection must route to the sparse kernel past the limit"


def test_invalid_kernel_name_rejected():
    adjacency = _random_graph(5, 0.4, seed=2)
    with pytest.raises(ValueError):
        batch_ppr_top_k(adjacency, [0], 3, kernel="scalar")


def test_slot_map_growth_and_rehash():
    slot_map = _SlotMap(capacity=1 << 4)
    rng = np.random.default_rng(5)
    keys = rng.choice(10_000_000, size=5000, replace=False).astype(np.int64)
    first = slot_map.get_or_insert(keys[:2000])
    assert np.array_equal(np.sort(first), np.arange(2000))  # dense slot ids
    second = slot_map.get_or_insert(keys[2000:])
    # Lookups after multiple rehashes still resolve to the original slots.
    again = slot_map.get_or_insert(keys[:2000])
    assert np.array_equal(again, first)
    assert np.array_equal(slot_map.get_or_insert(keys[2000:]), second)
    assert slot_map.size == 5000

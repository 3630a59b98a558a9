"""The sparse one-target push path: exact equivalence with the oracles.

A chunk below the wave kernel's cut runs the one-target push per target —
the scalar oracle's loop over dicts, reading rows as lists — so its state
covers only the nodes the schedule reaches.  ``chunk_size=1`` routes every
target through it, as a graph too large for a dense chunk does.
Equivalence is *exact*: same touched sets, same top-k selections, same
scores, across random graphs, dangling nodes, isolated targets, chunk
splits and duplicate targets.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.sampling.ppr import (
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
    got = batch_approximate_ppr(adjacency, targets, alpha=alpha, eps=eps, chunk_size=1)
    for target in targets:
        oracle = approximate_ppr(adjacency, [int(target)], alpha=alpha, eps=eps)
        assert got[int(target)] == oracle  # bit-exact, not approx


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=500))
def test_sparse_matches_dense_kernel_property(seed):
    adjacency = _random_graph(35, 0.2, seed)
    targets = np.random.default_rng(seed).choice(35, size=10, replace=False)
    dense = batch_ppr_top_k(adjacency, targets, 6, eps=1e-3)
    sparse = batch_ppr_top_k(adjacency, targets, 6, eps=1e-3, chunk_size=1)
    assert dense == sparse


def test_sparse_chunking_does_not_change_results():
    # Chunks of 1-3 targets run the one-target push, larger ones the wave
    # kernel; a split's short tail chunk mixes the two paths in one call.
    adjacency = _random_graph(30, 0.2, seed=3)
    targets = np.arange(30)
    whole = batch_ppr_top_k(adjacency, targets, 6, eps=1e-3, chunk_size=1)
    for chunk_size in (2, 3, 4, 7, 13, 30, 100):
        chunked = batch_ppr_top_k(adjacency, targets, 6, eps=1e-3, chunk_size=chunk_size)
        assert chunked == whole


def test_sparse_isolated_and_dangling_nodes():
    adjacency = sp.csr_matrix((6, 6))
    assert batch_ppr_top_k(adjacency, [0, 4], 3, chunk_size=1) == {0: [], 4: []}
    maps = batch_approximate_ppr(adjacency, [2], alpha=0.3)
    assert maps[2] == {2: 1.0}
    # 0-1-2 chain plus isolated 3.
    rows, cols = [0, 1, 1, 2], [1, 0, 2, 1]
    chain = sp.csr_matrix((np.ones(4), (rows, cols)), shape=(4, 4))
    for target in range(4):
        oracle = approximate_ppr(chain, [target], eps=1e-4)
        got = batch_approximate_ppr(chain, [target], eps=1e-4)[target]
        assert got == oracle


def test_sparse_duplicate_and_empty_targets():
    adjacency = _random_graph(12, 0.3, seed=9)
    result = batch_ppr_top_k(adjacency, [4, 4, 7], 3, eps=1e-3)
    assert set(result) == {4, 7}
    assert result[4] == batch_ppr_top_k(adjacency, [4], 3, eps=1e-3)[4]
    assert result[4] == batch_ppr_top_k(adjacency, [4, 4, 7, 1, 2], 3, eps=1e-3)[4]
    assert batch_ppr_top_k(adjacency, [], 3, chunk_size=1) == {}
    assert batch_approximate_ppr(adjacency, [], chunk_size=1) == {}


def test_auto_kernel_selection_past_dense_node_limit(monkeypatch):
    # Chunks below the wave kernel's cut run the one-target push; a graph
    # whose default chunk (8e6 // n_nodes targets) falls below the cut never
    # allocates dense (chunk, n_nodes) state at all.
    import repro.sampling.ppr as ppr_module

    calls = []
    for name in ("_batch_push", "_push_one"):
        original = getattr(ppr_module, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(ppr_module, name, spy)

    small = _random_graph(25, 0.2, seed=11)
    batch_ppr_top_k(small, [1, 2, 3], 4, eps=1e-3)
    assert calls == ["_push_one"] * 3
    calls.clear()
    batch_ppr_top_k(small, [1, 2, 3, 4], 4, eps=1e-3)
    assert calls == ["_batch_push"]

    # 4M nodes: the default chunk holds 2 targets.  A path 0-1-2-3 carries
    # the pushes; every other node is isolated.
    n = 4_000_000
    rows, cols = [0, 1, 1, 2, 2, 3], [1, 0, 2, 1, 3, 2]
    huge = sp.csr_matrix((np.ones(6), (rows, cols)), shape=(n, n))
    calls.clear()
    got = batch_approximate_ppr(huge, [0, 1, 2, 3, n - 1], eps=1e-4)
    assert calls == ["_push_one"] * 5
    for target, scores in got.items():
        assert scores == approximate_ppr(huge, [target], eps=1e-4)

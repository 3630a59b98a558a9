"""Batch PPR paths: exact equivalence with the scalar push oracle.

Both batch paths — the dense wave kernel and the sparse one-target push —
replay the scalar FIFO push schedule per target, so the equivalence here is
*exact*: same touched sets, same top-k selections, bit-identical scores,
across random graphs, dangling nodes, isolated targets and arbitrary chunk
splits.  The wave-stress cases drive the wave rule through every way a
wave can end or interact: conflict cuts (triangles), self-loops, several
pops of one wave pushing into one node, window truncation, unseeded hub
targets and duplicate targets.  Each runs on both paths: ``dense`` calls
the wave kernel directly, whatever the chunk size, and ``sparse`` routes
every target through the one-target push (``chunk_size=1``).
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.datasets import catalog
from repro.kg.cache import artifacts_for
from repro.sampling.ppr import (
    _batch_push,
    _degrees_and_thresholds,
    _top_k,
    approximate_ppr,
    batch_approximate_ppr,
    batch_ppr_top_k,
    batch_ppr_top_k_with_support,
    ppr_top_k,
)


def _random_graph(n, density, seed, with_dangling=False):
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < density).astype(float)
    np.fill_diagonal(dense, 0)
    dense = dense + dense.T
    if with_dangling and n > 2:
        # Cut a couple of nodes loose entirely.
        loose = rng.choice(n, size=max(n // 4, 1), replace=False)
        dense[loose, :] = 0.0
        dense[:, loose] = 0.0
    adjacency = sp.csr_matrix(dense)
    adjacency.data[:] = 1.0
    return adjacency


def _wave_rows(adjacency, targets, alpha, eps, chunk_size=None):
    """``(target, nodes, scores)`` of the wave kernel run directly, any chunk size."""
    degrees, thresholds = _degrees_and_thresholds(adjacency, eps)
    targets = np.asarray(list(targets), dtype=np.int64)
    step = chunk_size or max(len(targets), 1)
    for start in range(0, len(targets), step):
        chunk = targets[start : start + step]
        matrix = _batch_push(
            adjacency.indptr, adjacency.indices, degrees, thresholds, chunk, alpha
        )
        for row, target in enumerate(chunk.tolist()):
            nodes = np.flatnonzero(matrix[row])
            yield target, nodes, matrix[row, nodes]


def _assert_matches_oracle(adjacency, targets, k, alpha, eps, chunk_size=None, path=None):
    """Top-k lists and score maps ``==`` the oracle's.

    ``path=None`` runs the entry points as callers do; ``"dense"`` runs the
    wave kernel directly and ``"sparse"`` the one-target push.
    """
    if path == "dense":
        rows = list(_wave_rows(adjacency, targets, alpha, eps, chunk_size))
        batch = {target: _top_k(target, nodes, values, k) for target, nodes, values in rows}
        maps = {
            target: dict(zip(nodes.tolist(), values.tolist()))
            for target, nodes, values in rows
        }
    else:
        if path == "sparse":
            chunk_size = 1  # every chunk is below the wave kernel's cut
        options = dict(alpha=alpha, eps=eps, chunk_size=chunk_size)
        batch = batch_ppr_top_k(adjacency, targets, k, **options)
        maps = batch_approximate_ppr(adjacency, targets, **options)
    assert set(batch) == {int(t) for t in targets}
    for target in {int(t) for t in targets}:
        oracle_ranked = ppr_top_k(adjacency, target, k, alpha=alpha, eps=eps)
        got = batch[target]
        assert [node for node, _ in got] == [node for node, _ in oracle_ranked]
        assert got == oracle_ranked
        oracle_map = approximate_ppr(adjacency, [target], alpha=alpha, eps=eps)
        assert maps[target] == oracle_map  # bit-exact, not approx


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=0, max_value=1000),
    st.sampled_from([2e-4, 1e-3, 5e-3]),
    st.sampled_from([0.1, 0.25, 0.6]),
    st.booleans(),
)
def test_batch_matches_scalar_oracle_property(n, seed, eps, alpha, with_dangling):
    adjacency = _random_graph(n, 0.2, seed, with_dangling=with_dangling)
    rng = np.random.default_rng(seed + 1)
    targets = rng.choice(n, size=min(n, 8), replace=False)
    _assert_matches_oracle(adjacency, targets, k=5, alpha=alpha, eps=eps)


def test_chunking_does_not_change_results():
    adjacency = _random_graph(30, 0.2, seed=3)
    targets = np.arange(30)
    whole = batch_ppr_top_k(adjacency, targets, 6, eps=1e-3)
    for chunk_size in (1, 3, 7, 30, 100):
        assert batch_ppr_top_k(adjacency, targets, 6, eps=1e-3, chunk_size=chunk_size) == whole


def test_isolated_targets_have_empty_top_k_and_unit_self_mass():
    adjacency = sp.csr_matrix((6, 6))
    result = batch_ppr_top_k(adjacency, [0, 4], 3)
    assert result == {0: [], 4: []}
    maps = batch_approximate_ppr(adjacency, [2], alpha=0.3)
    assert maps[2] == {2: 1.0}


def test_dangling_nodes_inside_connected_graph():
    # 0-1-2 chain plus isolated 3; seed every node.
    rows = [0, 1, 1, 2]
    cols = [1, 0, 2, 1]
    adjacency = sp.csr_matrix((np.ones(4), (rows, cols)), shape=(4, 4))
    _assert_matches_oracle(adjacency, [0, 1, 2, 3], k=3, alpha=0.25, eps=1e-4)


def test_duplicate_targets_are_tolerated():
    adjacency = _random_graph(12, 0.3, seed=9)
    result = batch_ppr_top_k(adjacency, [4, 4, 7], 3, eps=1e-3)
    assert set(result) == {4, 7}
    assert result[4] == batch_ppr_top_k(adjacency, [4], 3, eps=1e-3)[4]


def test_empty_target_list():
    assert batch_ppr_top_k(_random_graph(5, 0.4, seed=1), [], 3) == {}
    assert batch_approximate_ppr(_random_graph(5, 0.4, seed=1), []) == {}


def test_parameter_validation():
    adjacency = _random_graph(5, 0.4, seed=2)
    with pytest.raises(ValueError):
        batch_ppr_top_k(adjacency, [0], 3, alpha=0.0)
    with pytest.raises(ValueError):
        batch_ppr_top_k(adjacency, [0], 3, eps=0.0)
    with pytest.raises(ValueError):
        batch_ppr_top_k(adjacency, [0], 0)
    with pytest.raises(ValueError):
        batch_approximate_ppr(adjacency, [0], alpha=1.5)
    with pytest.raises(ValueError):
        batch_approximate_ppr(adjacency, [0], eps=-1.0)


def test_sparse_fallback_beyond_dense_node_limit(monkeypatch):
    # On a graph too large for a dense chunk the default chunk falls below
    # the wave kernel's cut, so every target runs the one-target push (see
    # test_ppr_sparse.py); results must be identical.
    import repro.sampling.ppr as ppr_module

    adjacency = _random_graph(25, 0.2, seed=11)
    targets = np.arange(0, 25, 3)
    dense = batch_ppr_top_k(adjacency, targets, 4, eps=1e-3)
    dense_maps = batch_approximate_ppr(adjacency, targets, eps=1e-3)
    chunk_size = ppr_module._default_chunk_size
    monkeypatch.setattr(
        ppr_module, "_default_chunk_size", lambda num_nodes: chunk_size(num_nodes * 10**6)
    )
    assert batch_ppr_top_k(adjacency, targets, 4, eps=1e-3) == dense
    assert batch_approximate_ppr(adjacency, targets, eps=1e-3) == dense_maps


def test_scores_sorted_descending_with_id_tiebreak():
    adjacency = _random_graph(20, 0.25, seed=5)
    for ranked in batch_ppr_top_k(adjacency, np.arange(20), 8, eps=1e-3).values():
        scores = [score for _, score in ranked]
        assert scores == sorted(scores, reverse=True)
        for (node_a, score_a), (node_b, score_b) in zip(ranked, ranked[1:]):
            if score_a == score_b:
                assert node_a < node_b


# -- wave-stress cases: every way a wave can end or interact ---------------

# The wave kernel's dense (chunk, n) state; the one-target push's sparse one.
PATHS = ["dense", "sparse"]


def _graph(n, edges):
    """Undirected 0/1 CSR over ``n`` nodes (self-loops allowed)."""
    rows = [u for u, _ in edges] + [v for _, v in edges]
    cols = [v for _, v in edges] + [u for u, _ in edges]
    adjacency = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    adjacency.sum_duplicates()
    adjacency.data[:] = 1.0
    return adjacency


def _fan_into_one_node(k):
    """Target 0 -> k spokes; every spoke -> hub 1 and one to three leaves.

    Popping 0 queues the spokes; no spoke neighbours another, so they pop
    in one wave, each pushing into 0 and the hub (multiplicity k) before
    its own leaves.  Unequal leaf counts make the pushes unequal, so where
    the hub's running sum crosses its threshold — first, middle or last
    push of the wave — decides its place among the leaves in the ring,
    and that order shows in the scores.
    """
    spokes = range(2, 2 + k)
    edges = [(0, s) for s in spokes] + [(s, 1) for s in spokes]
    leaf = 2 + k
    for i, spoke in enumerate(spokes):
        for _ in range(1 + i % 3):
            edges.append((spoke, leaf))
            leaf += 1
    return _graph(leaf, edges)


SELF_LOOPS = [(0, 0), (0, 1), (1, 2), (2, 2), (2, 3), (3, 0)]


@pytest.mark.parametrize("path", PATHS)
def test_one_and_two_target_windows(path):
    adjacency = _random_graph(30, 0.15, seed=21)
    for targets in ([0], [7], [3, 11], [11, 3]):
        _assert_matches_oracle(adjacency, targets, 5, 0.25, 1e-4, path=path)


@pytest.mark.parametrize("path", PATHS)
def test_triangles_cut_waves(path):
    # Every queued pair of a triangle is adjacent: waves are cut at the
    # second entry of each triangle.
    triangles = []
    for t in range(0, 18, 3):
        triangles += [(t, t + 1), (t + 1, t + 2), (t, t + 2)]
    chain = [(t + 2, t + 3) for t in range(0, 15, 3)]
    complete = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    for graph in (_graph(18, triangles + chain), _graph(6, complete)):
        n = graph.shape[0]
        for eps in (1e-2, 1e-4, 1e-6):
            _assert_matches_oracle(graph, range(n), 4, 0.2, eps, path=path)
            _assert_matches_oracle(graph, [n - 1], 4, 0.2, eps, path=path)


@pytest.mark.parametrize("path", PATHS)
def test_self_loops(path):
    # A self-loop pushes a popped node's mass back into itself; the node
    # must be re-enqueued behind everything already queued.
    more = [(4, 4), (5, 6), (6, 6), (6, 7)]
    adjacency = _graph(8, SELF_LOOPS + more)
    for eps in (1e-2, 1e-4, 1e-6):
        _assert_matches_oracle(adjacency, range(8), 3, 0.25, eps, path=path)


@pytest.mark.parametrize("path", PATHS)
def test_many_pops_of_one_wave_push_into_one_node(path):
    adjacency = _fan_into_one_node(9)
    # Sweeping eps moves the crossing push of the hub (and of the target,
    # which the spokes push into too) through every position of the wave.
    for eps in np.geomspace(1e-2, 1e-5, 40):
        _assert_matches_oracle(adjacency, [0], 4, 0.25, eps, path=path)
        _assert_matches_oracle(adjacency, [0, 1, 2], 4, 0.25, eps, path=path)


@pytest.mark.parametrize("path", PATHS)
def test_unseeded_hub_target(path):
    # 1.0 < eps * deg: the target is never queued, so it keeps no score.
    hub = _graph(40, [(0, v) for v in range(1, 40)])
    eps = 1.0 / 30
    assert approximate_ppr(hub, [0], eps=eps) == {}
    _assert_matches_oracle(hub, [0, 5], 3, 0.25, eps, path=path)
    _assert_matches_oracle(hub, [0], 3, 0.25, eps, path=path)


@pytest.mark.parametrize("path", PATHS)
def test_duplicate_targets_in_one_chunk(path):
    adjacency = _random_graph(16, 0.3, seed=4)
    for chunk_size in (None, 1, 2):
        _assert_matches_oracle(
            adjacency, [5, 5, 9, 5], 4, 0.25, 1e-4, chunk_size=chunk_size, path=path
        )


@pytest.mark.parametrize("path", PATHS)
def test_chunk_size_one(path):
    adjacency = _random_graph(24, 0.2, seed=8)
    _assert_matches_oracle(adjacency, range(24), 5, 0.3, 1e-4, chunk_size=1, path=path)


@pytest.mark.parametrize("path", PATHS)
def test_queues_longer_than_the_wave_window(path):
    # A 600-leaf star queues every leaf at once: a lone target's wave is
    # truncated by the window, and a 36-row chunk shrinks the window to its
    # minimum, so waves end on the window and on conflicts alike.
    spokes = [(0, v) for v in range(1, 601)]
    rim = [(v, v + 1) for v in range(1, 600, 7)]
    star = _graph(601, spokes + rim)
    _assert_matches_oracle(star, [0], 5, 0.25, 1e-4, path=path)
    _assert_matches_oracle(star, [0, 1, 8, 600] * 9, 5, 0.25, 1e-4, path=path)


def test_support_matches_the_scalar_schedule():
    # LiveGraph invalidation relies on the support set: the nodes the
    # scalar schedule pushed (its touched set), their out-neighbours and
    # the target itself.  The one-target push returns its residual keys,
    # the wave path gathers the pushed rows; both must equal it.
    bundle = catalog.mag("large", 7)
    mag = artifacts_for(bundle.kg).csr("both")
    cases = [
        (_random_graph(30, 0.15, seed=2, with_dangling=True), None),  # dangling targets
        (_fan_into_one_node(6), None),
        (_graph(8, SELF_LOOPS), None),
        (_graph(40, [(0, v) for v in range(1, 40)]), None),  # unseeded hub at eps 1/30
        (mag, [int(t) for t in bundle.task("PV").target_nodes[:12]]),
    ]
    for adjacency, targets in cases:
        indptr, indices = adjacency.indptr, adjacency.indices
        targets = list(range(adjacency.shape[0])) if targets is None else targets
        for eps in (1.0 / 30, 1e-3, 1e-5):
            if adjacency is mag and eps == 1e-5:
                continue  # pushes reach most of MAG-large; 1e-3 and 1/30 suffice
            expected = {}
            for target in targets:
                touched = approximate_ppr(adjacency, [target], eps=eps)
                expected[target] = {target} | set(touched)
                for node in touched:
                    expected[target].update(indices[indptr[node] : indptr[node + 1]].tolist())
            wave = batch_ppr_top_k_with_support(adjacency, targets, 4, eps=eps)
            for target in targets:
                one = batch_ppr_top_k_with_support(adjacency, [target], 4, eps=eps)
                oracle = ppr_top_k(adjacency, target, 4, eps=eps)
                for pairs, support in (one[target], wave[target]):
                    assert support.dtype == np.int64
                    assert support.tolist() == sorted(expected[target])
                    assert pairs == oracle

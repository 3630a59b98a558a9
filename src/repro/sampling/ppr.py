"""Approximate Personalized PageRank by local push.

Implements the Andersen–Chung–Lang (FOCS 2006) push algorithm the paper
cites for its influence-based sampling (Section IV-B): residual mass is
pushed from a queue of high-residual nodes until every residual drops below
``eps * degree``.  Complexity is ``O(1 / (eps * alpha))`` pushes —
independent of graph size — which is exactly the "local scope" property the
paper's influence score relies on.

* :func:`approximate_ppr` / :func:`ppr_top_k` — the scalar dict/deque push.
  Kept as the *reference oracle*: one target, pure-Python, easy to audit.

The batch entry points (:func:`batch_ppr_top_k`,
:func:`batch_ppr_top_k_with_support`, :func:`batch_approximate_ppr`) split
their targets into chunks and run each chunk on one of two paths:

* The dense **wave kernel** (:func:`_batch_push`).  All targets of a chunk
  advance together over flat numpy state (an ``(n_targets, n_nodes)``-
  stride residual/score matrix plus a per-target FIFO ring buffer); each
  super-step pops one *wave* per live target — the longest queue prefix
  in which no node neighbours an earlier one, so no pop of the wave can
  change what a later one reads — and performs the neighbour scatter for
  the whole chunk with a handful of array operations.
* The sparse **one-target push** (:func:`_push_one`).  One target at a
  time, the oracle's loop over Python dicts, reading each popped row once
  as lists; its state covers only the nodes the schedule reaches, so its
  cost follows the ``O(1 / (eps * alpha))`` pushes, not the graph size.

The rule: a chunk of fewer than :data:`_WAVE_MIN_TARGETS` targets runs the
one-target push per target, any larger chunk the wave kernel.  Chunks hold
``8e6 // n_nodes`` targets unless the caller sets ``chunk_size``, so a
graph too large for a dense chunk to pay for its ``O(chunk * n_nodes)``
state runs one-target chunks throughout.

Because both paths replay *exactly* the scalar algorithm's FIFO push
schedule per target (same floating-point operations in the same order),
they are bit-for-bit equivalent to the oracle.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.nputil import expand_ranges, rank_within_sorted_groups


def approximate_ppr(
    adjacency: sp.csr_matrix,
    seeds: Iterable[int],
    alpha: float = 0.25,
    eps: float = 2e-4,
) -> Dict[int, float]:
    """Push-style approximate PPR from a seed set.

    Parameters
    ----------
    adjacency:
        CSR adjacency (treated as unweighted; symmetrise beforehand for the
        undirected influence semantics the paper uses).
    seeds:
        Nodes whose personalised distribution is computed; seed mass is
        split uniformly.
    alpha:
        Teleport probability (paper uses 0.25 for IBS training).
    eps:
        Residual tolerance (paper uses 2e-4).

    Returns
    -------
    Sparse score map ``node -> ppr`` containing only touched nodes.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    seeds = list(seeds)
    if not seeds:
        return {}
    indptr, indices = adjacency.indptr, adjacency.indices
    degrees = np.diff(indptr)

    scores: Dict[int, float] = {}
    residual: Dict[int, float] = {}
    seed_mass = 1.0 / len(seeds)
    queue: deque[int] = deque()
    queued: set[int] = set()

    def maybe_enqueue(node: int) -> None:
        threshold = eps * max(int(degrees[node]), 1)
        if residual.get(node, 0.0) >= threshold and node not in queued:
            queue.append(node)
            queued.add(node)

    for seed in seeds:
        residual[seed] = residual.get(seed, 0.0) + seed_mass
    for seed in set(seeds):
        maybe_enqueue(seed)

    while queue:
        node = queue.popleft()
        queued.discard(node)
        mass = residual.get(node, 0.0)
        degree = int(degrees[node])
        threshold = eps * max(degree, 1)
        if mass < threshold:
            continue
        scores[node] = scores.get(node, 0.0) + alpha * mass
        residual[node] = 0.0
        if degree == 0:
            # Dangling node: teleport the rest of the mass back to itself.
            scores[node] += (1.0 - alpha) * mass
            continue
        push = (1.0 - alpha) * mass / degree
        for neighbor in indices[indptr[node] : indptr[node + 1]]:
            neighbor = int(neighbor)
            residual[neighbor] = residual.get(neighbor, 0.0) + push
            maybe_enqueue(neighbor)
    return scores


def ppr_top_k(
    adjacency: sp.csr_matrix,
    target: int,
    k: int,
    alpha: float = 0.25,
    eps: float = 2e-4,
) -> List[Tuple[int, float]]:
    """Top-``k`` most influential neighbours of one target node.

    Runs :func:`approximate_ppr` seeded at ``target`` and returns the ``k``
    highest-scoring *other* nodes as ``(node, score)`` pairs, ties broken by
    node id for determinism.
    """
    scores = approximate_ppr(adjacency, [target], alpha=alpha, eps=eps)
    scores.pop(int(target), None)
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return [(int(node), float(score)) for node, score in ranked[:k]]


# ---------------------------------------------------------------------------
# Vectorized batch kernel (the IBS hot path)
# ---------------------------------------------------------------------------


# Queue entries one super-step may examine per live target: the chunk
# shares a budget, so a lone serving target sees its whole queue while a
# large IBS chunk gathers few neighbours for entries behind the wave's cut.
_WAVE_BUDGET = 256
_MIN_WAVE_WINDOW = 8


def _batch_push(
    indptr: np.ndarray,
    indices: np.ndarray,
    degrees: np.ndarray,
    thresholds: np.ndarray,
    targets: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """Wave-scheduled FIFO push for one chunk of targets.

    Returns the dense ``(len(targets), n_nodes)`` score matrix.  Each row
    replays the scalar :func:`approximate_ppr` push schedule for its
    target.  A super-step pops one *wave* per live target: the longest
    prefix of its FIFO queue in which no node is an out-neighbour of an
    earlier node of the prefix.  A pop changes only the residuals of the
    popped node and its out-neighbours, so no pop of a wave changes the
    residual a later pop of the wave reads: every pop reads exactly the
    mass the scalar schedule reads.

    The wave's pushes are then applied in scalar order, ``(pop, CSR
    position)``.  ``np.add.at`` adds the pushes several pops make into one
    node one by one in that order, so every residual sees the float
    additions of the scalar loop in the same order.  A node joins the
    queue at the first push whose running sum reaches ``eps * deg`` —
    where the scalar loop enqueues it; for a node pushed into more than
    once, an ``np.cumsum`` along the node's own lane finds that push — and
    new entries are appended in push order, so each ring holds the scalar
    queue.  A wave is found by gathering the neighbours of up to
    ``window`` queue entries per live target, a budget shared across the
    chunk: a lone target sees its whole queue, and a large chunk gathers
    little for entries behind a cut.
    """
    chunk = len(targets)
    n = len(degrees)
    scores = np.zeros((chunk, n), dtype=np.float64)
    if n == 0 or chunk == 0:
        return scores
    # All (row, node) state is addressed through raveled views with
    # precomputed flat indices (row * n + node): one index computation feeds
    # every gather/scatter of a super-step.
    scores_flat = scores.reshape(-1)
    residual_flat = np.zeros(chunk * n, dtype=np.float64)
    queued_flat = np.zeros(chunk * n, dtype=bool)
    # Ring buffers, position-major (ring position * chunk + row), so the
    # few positions a queue ever uses stay in a few pages; the `queued`
    # mask caps each queue at n entries.
    ring = np.zeros(chunk * n, dtype=np.int64)
    head = np.zeros(chunk, dtype=np.int64)
    tail = np.zeros(chunk, dtype=np.int64)
    stop = np.zeros(chunk, dtype=np.int64)
    window = max(_WAVE_BUDGET // chunk, _MIN_WAVE_WINDOW)

    row_base = np.arange(chunk, dtype=np.int64) * n
    residual_flat[row_base + targets] = 1.0
    seeded = np.flatnonzero(1.0 >= thresholds[targets])
    ring[seeded] = targets[seeded]
    tail[seeded] = 1
    queued_flat[row_base[seeded] + targets[seeded]] = True
    one_minus_alpha = 1.0 - alpha

    while True:
        active = np.flatnonzero(tail > head)
        if active.size == 0:
            break
        # Examine up to `window` queue entries per live row; `stop` is the
        # ring position that ends the row's wave (exclusive).
        start = head[active]
        span = np.minimum(tail[active] - start, window)
        stop[active] = start + span
        rows = np.repeat(active, span)
        positions = expand_ranges(start, span)
        bases = rows * n
        nodes = ring[positions % n * chunk + rows]
        entries = bases + nodes
        counts = degrees[nodes]
        owner = np.repeat(np.arange(len(entries), dtype=np.int64), counts)
        neighbor = indices[expand_ranges(indptr[nodes], counts)]
        flat = bases[owner] + neighbor

        # Cut each wave at its first entry that an earlier entry pushes to.
        into_queue = np.flatnonzero(queued_flat[flat])
        stays_queued = np.zeros(len(flat), dtype=bool)
        if into_queue.size:
            # A row's entries are distinct nodes: a push into a queued node
            # matches at most one examined entry.
            order = np.argsort(entries)
            probe = flat[into_queue]
            hit = order[np.minimum(np.searchsorted(entries, probe, sorter=order), len(order) - 1)]
            examined = entries[hit] == probe
            later = examined & (hit > owner[into_queue])
            if later.any():
                np.minimum.at(stop, rows[hit[later]], positions[hit[later]])
            # A push into an entry at or before its pusher finds it popped.
            stays_queued[into_queue] = later | ~examined
        popped = positions < stop[rows]
        head[active] = stop[active]

        mass = residual_flat[entries]
        push = one_minus_alpha * mass / np.maximum(counts, 1)
        if not popped.all():
            keep = popped[owner]
            owner, neighbor, flat = owner[keep], neighbor[keep], flat[keep]
            stays_queued = stays_queued[keep]
            entries, mass, counts = entries[popped], mass[popped], counts[popped]
        queued_flat[entries] = False
        # Residuals only grow while enqueued, so mass >= threshold here —
        # the scalar oracle's stale-entry guard can never fire either.
        scores_flat[entries] += alpha * mass
        residual_flat[entries] = 0.0
        dangling = counts == 0
        if dangling.any():
            # Dangling node: teleport the rest of the mass back to itself.
            scores_flat[entries[dangling]] += one_minus_alpha * mass[dangling]

        values = push[owner]
        before = residual_flat[flat]
        # Sequential, in push order, for nodes pushed into more than once.
        np.add.at(residual_flat, flat, values)
        crossed = residual_flat[flat] >= thresholds[neighbor]
        fresh = np.flatnonzero(crossed & ~stays_queued)
        if fresh.size == 0:
            continue
        keys = flat[fresh]
        # Sort the fresh pushes by node, push order kept within a node (one
        # sort of a composite key; cheaper than a stable argsort).
        width = len(keys)
        composite = np.sort(keys * width + np.arange(width, dtype=np.int64))
        sorted_keys, order = np.divmod(composite, width)
        repeated = sorted_keys[1:] == sorted_keys[:-1]
        if repeated.any():
            # A node several pops push into joins the queue at the first
            # push whose running sum crosses its threshold: replay each such
            # node's pushes along its own lane of a cumsum, seeded with its
            # residual before the wave.
            multi = np.zeros(width, dtype=bool)
            multi[1:] = repeated
            multi[:-1] |= repeated
            member = order[multi]
            pushes = fresh[member]
            depth = rank_within_sorted_groups(sorted_keys[multi]) + 1
            first = depth == 1
            lane = np.cumsum(first) - 1
            lanes = np.zeros((int(lane[-1]) + 1, int(depth.max()) + 1))
            lanes[:, 0] = before[pushes[first]]
            lanes[lane, depth] = values[pushes]
            reached = np.cumsum(lanes, axis=1)[lane, depth] >= thresholds[neighbor[pushes]]
            # Keep the crossing push only: reached, its lane predecessor not.
            reached[1:] &= first[1:] | ~reached[:-1]
            keys = np.delete(keys, member[~reached])
        queued_flat[keys] = True
        enqueue_rows = keys // n
        added = np.bincount(enqueue_rows, minlength=chunk)
        first_slot = tail - np.cumsum(added) + added
        slots = first_slot[enqueue_rows] + np.arange(len(keys), dtype=np.int64)
        ring[slots % n * chunk + enqueue_rows] = keys - enqueue_rows * n
        tail += added
    return scores

def _push_one(
    indptr: np.ndarray,
    indices: np.ndarray,
    thresholds: np.ndarray,
    target: int,
    alpha: float,
) -> Tuple[Dict[int, float], Dict[int, float]]:
    """The scalar push schedule for one target, reading rows as lists.

    Replays :func:`approximate_ppr` seeded at ``target`` — the same FIFO
    schedule, the same float operations in the same order — but reads each
    popped row once, as Python lists of its neighbours and of their
    thresholds, and keeps state only for the nodes the schedule reaches.
    Returns ``(scores, residual)``.  ``residual``'s keys are the target and
    every node pushed into: the pushed nodes, their out-neighbours and the
    target, which is the support :func:`batch_ppr_top_k_with_support`
    documents.
    """
    residual = {target: 1.0}
    scores: Dict[int, float] = {}
    if 1.0 < thresholds[target]:
        return scores, residual
    one_minus_alpha = 1.0 - alpha
    queue = deque([target])
    queued = {target}
    residual_of = residual.get
    while queue:
        node = queue.popleft()
        queued.discard(node)
        # Residuals only grow while enqueued, so mass >= threshold here —
        # the oracle's stale-entry guard can never fire.
        mass = residual[node]
        scores[node] = scores.get(node, 0.0) + alpha * mass
        residual[node] = 0.0
        lo, hi = indptr[node : node + 2].tolist()
        if lo == hi:
            # Dangling node: teleport the rest of the mass back to itself.
            scores[node] += one_minus_alpha * mass
            continue
        push = one_minus_alpha * mass / (hi - lo)
        neighbours = indices[lo:hi]
        for neighbour, threshold in zip(
            neighbours.tolist(), thresholds[neighbours].tolist()
        ):
            value = residual_of(neighbour, 0.0) + push
            residual[neighbour] = value
            if value >= threshold and neighbour not in queued:
                queued.add(neighbour)
                queue.append(neighbour)
    return scores, residual


# Chunks of fewer targets run the one-target push: its break-even with the
# wave kernel.  Measured on MAG-large (21k nodes, 2 vCPUs), wave / one-target
# CPU per target through batch_ppr_top_k_with_support and batch_ppr_top_k:
# 1.5 and 1.3 at 2 targets, 1.25 and 0.95 at 3, 1.04 and 0.89 at 4, 0.92
# and 0.71 at 6 (one-target push ~1.0 ms per target; the wave kernel alone
# ~1.4 ms at 1 target).
_WAVE_MIN_TARGETS = 4


def _degrees_and_thresholds(
    adjacency: sp.csr_matrix, eps: float
) -> Tuple[np.ndarray, np.ndarray]:
    """``(degrees, eps * max(degrees, 1))`` of ``adjacency``, built once per CSR.

    Kept on the matrix object, so a window does no ``O(n_nodes)`` pass;
    rebuilt when the matrix's ``indptr`` or ``eps`` changes.
    """
    cached = getattr(adjacency, "_ppr_thresholds", None)
    if cached is None or cached[0] is not adjacency.indptr or cached[1] != eps:
        degrees = np.diff(adjacency.indptr).astype(np.int64)
        cached = (adjacency.indptr, eps, degrees, eps * np.maximum(degrees, 1))
        adjacency._ppr_thresholds = cached
    return cached[2], cached[3]


def _default_chunk_size(num_nodes: int) -> int:
    # Bound the dense (chunk, n) float64 state to ~64 MB per matrix.
    return max(int(8e6 // max(num_nodes, 1)), 1)


def _batch_results(
    adjacency: sp.csr_matrix,
    targets: np.ndarray,
    alpha: float,
    eps: float,
    chunk_size: Optional[int],
    support: bool = False,
) -> Iterator[Tuple[int, np.ndarray, np.ndarray, Optional[np.ndarray]]]:
    """Run each chunk on its path, yielding ``(target, nodes, scores, support)``.

    ``nodes``/``scores`` cover every node with a positive score; both paths
    produce identical values, so consumers are agnostic.  ``support`` is
    the sorted support set when asked for, else ``None``.
    """
    indptr, indices = adjacency.indptr, adjacency.indices
    degrees, thresholds = _degrees_and_thresholds(adjacency, eps)
    if chunk_size is None:
        chunk_size = _default_chunk_size(len(degrees))
    for start in range(0, len(targets), chunk_size):
        chunk_targets = targets[start : start + chunk_size]
        if len(chunk_targets) < _WAVE_MIN_TARGETS:
            for target in chunk_targets.tolist():
                scores, residual = _push_one(indptr, indices, thresholds, target, alpha)
                size = len(scores)
                yield (
                    target,
                    np.fromiter(scores, np.int64, size),
                    np.fromiter(scores.values(), np.float64, size),
                    np.sort(np.fromiter(residual, np.int64, len(residual)))
                    if support
                    else None,
                )
            continue
        matrix = _batch_push(indptr, indices, degrees, thresholds, chunk_targets, alpha)
        for row, target in enumerate(chunk_targets.tolist()):
            nodes = np.flatnonzero(matrix[row])
            touched = None
            if support:
                # The pushed nodes' out-neighbours, gathered from the CSR.
                counts = degrees[nodes]
                neighbours = indices[expand_ranges(indptr[nodes].astype(np.int64), counts)]
                touched = np.unique(np.concatenate([nodes, neighbours, [target]]))
            yield target, nodes, matrix[row, nodes], touched


def _check(alpha: float, eps: float, k: Optional[int] = None) -> None:
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if k is not None and k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def _top_k(target: int, nodes: np.ndarray, values: np.ndarray, k: int) -> List[Tuple[int, float]]:
    """The ``k`` best non-target nodes, by descending score then node id."""
    keep = nodes != target
    nodes, values = nodes[keep], values[keep]
    order = np.lexsort((nodes, -values))[:k]
    return list(zip(nodes[order].tolist(), values[order].tolist()))


def batch_approximate_ppr(
    adjacency: sp.csr_matrix,
    targets: Iterable[int],
    alpha: float = 0.25,
    eps: float = 2e-4,
    chunk_size: Optional[int] = None,
) -> Dict[int, Dict[int, float]]:
    """Single-seed :func:`approximate_ppr` for many targets at once.

    Returns ``target -> {node: ppr}`` sparse score maps, bit-identical to
    running the scalar oracle per target.  ``chunk_size`` bounds the
    targets per chunk (by default ``8e6 // n_nodes``, ~64 MB per dense
    matrix of the wave kernel, a few of which — scores, residuals, queue
    state — live at once); chunks smaller than the wave kernel's
    break-even run the one-target push (see the module docstring).

    ``adjacency`` must be a canonical CSR without duplicate column entries
    per row (what :func:`repro.transform.adjacency.build_csr` produces);
    with duplicates the wave kernel's fancy-indexed scatter collapses them
    while the scalar oracle pushes per occurrence, and the results diverge.
    """
    _check(alpha, eps)
    targets = np.asarray(list(targets), dtype=np.int64)
    return {
        target: dict(zip(nodes.tolist(), values.tolist()))
        for target, nodes, values, _ in _batch_results(
            adjacency, targets, alpha, eps, chunk_size
        )
    }


def batch_ppr_top_k(
    adjacency: sp.csr_matrix,
    targets: Iterable[int],
    k: int,
    alpha: float = 0.25,
    eps: float = 2e-4,
    chunk_size: Optional[int] = None,
) -> Dict[int, List[Tuple[int, float]]]:
    """Top-``k`` influence lists for *all* targets in one batched run.

    The vectorized equivalent of calling :func:`ppr_top_k` per target:
    returns ``target -> [(node, score), ...]`` with the target itself
    excluded, sorted by descending score with ties broken by node id.
    Selections and scores match the scalar oracle exactly (both paths
    replay the same push schedule per target).  ``adjacency`` and
    ``chunk_size`` are as in :func:`batch_approximate_ppr`.
    """
    _check(alpha, eps, k)
    targets = np.asarray(list(targets), dtype=np.int64)
    return {
        target: _top_k(target, nodes, values, k)
        for target, nodes, values, _ in _batch_results(
            adjacency, targets, alpha, eps, chunk_size
        )
    }


def batch_ppr_top_k_with_support(
    adjacency: sp.csr_matrix,
    targets: Iterable[int],
    k: int,
    alpha: float = 0.25,
    eps: float = 2e-4,
    chunk_size: Optional[int] = None,
) -> Dict[int, Tuple[List[Tuple[int, float]], np.ndarray]]:
    """:func:`batch_ppr_top_k` plus, per target, the push schedule's *support*.

    The support set is every node whose state the push schedule read: the
    pushed nodes (exactly the nodes with a positive score — a node's score
    only changes when it is itself popped) union their out-neighbours in
    ``adjacency`` (their rows are scattered to and their degrees compared
    against the ``eps``-threshold) union the target (whose degree gates
    even a never-popped run).  Consequently a graph edit whose endpoints
    all fall *outside* the support cannot change any value the schedule
    observed, and the retained result replays bit-identically on the new
    graph — the invalidation rule :class:`repro.kg.epoch.LiveGraph`
    applies.  Top-k pairs are byte-identical to :func:`batch_ppr_top_k`
    (the paths and the post-processing are shared).  The support comes
    back sorted, as ``int64``.
    """
    _check(alpha, eps, k)
    targets = np.asarray(list(targets), dtype=np.int64)
    return {
        target: (_top_k(target, nodes, values, k), support)
        for target, nodes, values, support in _batch_results(
            adjacency, targets, alpha, eps, chunk_size, support=True
        )
    }

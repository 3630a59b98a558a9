"""Flat-array helpers shared by the vectorized kernels.

Small primitives used by the batch PPR kernel and the SPARQL executor's
vectorized joins; kept dependency-free so any layer may import them.
"""

from __future__ import annotations

import numpy as np


def expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[arange(s, s + c) for s, c in zip(starts, counts)]``.

    The multi-range gather primitive: turns per-row CSR offsets (or per-key
    run starts) plus lengths into one flat index array, without a Python
    loop.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    cumulative = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(cumulative - counts, counts)
    return np.repeat(starts, counts) + offsets


def positions_in(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Position of each query in ``keys``, ``-1`` where it is absent.

    ``keys`` are distinct non-negative ids (a subgraph's old node ids, the
    kept positions of a split); one dense table over ``[0, max(keys)]``
    answers every query, in place of a dict probe per query.
    """
    keys = np.asarray(keys, dtype=np.int64)
    queries = np.asarray(queries, dtype=np.int64)
    found = np.full(queries.shape, -1, dtype=np.int64)
    if len(keys) == 0:
        return found
    table = np.full(int(keys.max()) + 1, -1, dtype=np.int64)
    table[keys] = np.arange(len(keys), dtype=np.int64)
    present = (queries >= 0) & (queries < len(table))
    found[present] = table[queries[present]]
    return found


def splitmix64(values: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a ``uint64`` array (vectorized, wrapping).

    A counter-based pseudo-random mixer: statistically uniform output for
    structured input, so kernels can derive per-element randomness from
    *content* (ids, hops, salts) instead of consuming a sequential generator
    stream — which is what makes batched and scalar implementations agree
    bit-for-bit regardless of evaluation order.
    """
    z = np.asarray(values, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def rank_within_sorted_groups(groups: np.ndarray) -> np.ndarray:
    """Per-element rank inside runs of equal values of a sorted array.

    ``[3, 3, 5, 5, 5, 9] -> [0, 1, 0, 1, 2, 0]``.
    """
    if groups.size == 0:
        return np.empty(0, dtype=np.int64)
    first = np.zeros(groups.size, dtype=np.int64)
    boundaries = np.flatnonzero(groups[1:] != groups[:-1]) + 1
    first[boundaries] = boundaries
    np.maximum.accumulate(first, out=first)
    return np.arange(groups.size, dtype=np.int64) - first

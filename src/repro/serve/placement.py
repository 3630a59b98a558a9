"""Placement: which workers serve which graph.

A graph lives on :func:`replica_shards` of its name: the deterministic
blake2b shard map, DGL-KE's static partitioning regime.  The same graph
always lands on the same home shard, so a restarted parent, every worker
and any other process agree where a graph lives without coordination.
:class:`~repro.serve.pool.WorkerPool` computes the owner set once, at
registration, and never moves it.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

__all__ = ["replica_shards", "shard_for"]


def shard_for(name: str, num_shards: int) -> int:
    """Home shard of graph ``name`` in a pool of ``num_shards`` workers.

    Stable across processes, runs and machines (``blake2b`` of the name,
    *not* Python's per-process-seeded ``hash``), so the parent, every
    worker, and a restarted service all agree where a graph lives — the
    precondition for building its artifacts exactly once per owner.

    >>> shard_for("mag", 4) == shard_for("mag", 4)
    True
    >>> 0 <= shard_for("anything", 3) < 3
    True
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % num_shards


def replica_shards(name: str, num_shards: int, replicas: Optional[int] = None) -> List[int]:
    """The worker indices serving graph ``name`` (home shard first).

    ``replicas=None`` (default) means every worker serves the graph — the
    per-graph worker pool regime.  Smaller values walk consecutively from
    the home shard, so shrinking ``replicas`` never moves the home.
    """
    count = num_shards if replicas is None else min(max(replicas, 1), num_shards)
    home = shard_for(name, num_shards)
    return [(home + offset) % num_shards for offset in range(count)]

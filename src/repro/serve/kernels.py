"""The single definition of a dispatched extraction or inference window.

:func:`run_window` is the one place a coalesced window runs, and both
serving modes call it: the in-process service (``service.py``, on
``asyncio.to_thread``) and the pool workers (``transport.py``, in their
own processes), with the same payload dict either way.  ``ppr``, ``ego``
and ``paths`` windows go through the graph's
:class:`~repro.kg.epoch.LiveGraph` retained stores (the batch kernel runs
on misses only); ``predict`` windows through :func:`run_predict_batch`.
The bit-exactness contract — pooled answers identical to in-process
answers — reduces to this function being the *only* place the batch
kernels are invoked with serving parameters, so a future signature or
artifact change cannot silently diverge the two modes.

The ``/predict`` pair extends the contract to model inference:
:func:`run_predict_batch` serves one coalesced window of prediction
requests through the model registry (extraction→inference pipelining:
the batch PPR kernel generates link-prediction candidates, one
vectorized scoring pass covers the whole window), and
:func:`run_predict_oracle` is the retained scalar baseline that answers
one request at a time with no registry-level caches.  Both build their
answers from per-row computations over identical model state, so batched
== scalar **bit for bit** — the property ``tests/serve/test_predict.py``
and the loadgen comparisons assert.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.kg.cache import artifacts_for
from repro.kg.graph import KnowledgeGraph

#: Ops whose coalesced windows :func:`run_window` executes.
WINDOW_OPS = ("ppr", "ego", "paths", "predict")

#: PPR parameters used for link-prediction candidate generation (the same
#: defaults the ``/ppr`` op serves; candidates must match extraction).
PREDICT_PPR_ALPHA = 0.25
PREDICT_PPR_EPS = 2e-4


def run_window(live, registry, op: str, payload: dict) -> list:
    """Run one coalesced ``op`` window: one answer per item, item order.

    ``payload`` is exactly what the pool ships for the window — ``graph``,
    the admission ``epoch``, the items (``targets`` / ``roots`` / ``pairs``
    / ``items``) and the op's parameters — so in-process and pooled
    serving execute the identical call.  ``live`` is the graph's
    :class:`~repro.kg.epoch.LiveGraph`; ``registry`` its model registry.
    """
    epoch = payload.get("epoch")
    if op == "ppr":
        table = live.ppr_top_k(
            payload["targets"], payload["k"],
            alpha=payload["alpha"], eps=payload["eps"], epoch=epoch,
        )
        return [table[int(target)] for target in payload["targets"]]
    if op == "ego":
        return live.ego_batch(
            payload["roots"], payload["depth"], payload["fanout"],
            payload["salt"], epoch=epoch,
        )
    if op == "paths":
        # Path lists are interleaved plain-int rows, so they cross every
        # wire (pickle pipe, JSON frames) without a codec branch.
        return live.paths_batch(
            payload["pairs"],
            max_hops=payload["max_hops"], max_paths=payload["max_paths"],
            epoch=epoch,
        )
    if op == "predict":
        # The registry keys its built state (model + logits) with the
        # resolved snapshot's epoch, so a window can never answer from
        # another epoch's forward pass.
        snapshot = live.resolve(epoch)
        return run_predict_batch(
            snapshot.kg, registry, payload["graph"], payload["task"],
            payload["model"], payload["items"], payload["k"],
            payload["candidates"], epoch=snapshot.number,
        )
    raise ValueError(f"unknown window op {op!r}")


# -- /predict: model inference over checkpointed models -----------------------


def _top_k_rank(scores: np.ndarray, candidates: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` best candidates, score-descending, id tie-break.

    ``lexsort`` is a stable full sort with an explicit secondary key, so
    the ranking is deterministic for equal scores — the precondition for
    batched and scalar top-k selections agreeing exactly.
    """
    return np.lexsort((candidates, -scores))[: max(k, 0)]


def _nc_payload(architecture: str, node: int, row: np.ndarray) -> dict:
    return {
        "task_type": "NC",
        "model": architecture,
        "node": int(node),
        "label": int(np.argmax(row)),
        "scores": [float(value) for value in row],
    }


def _lp_payload(
    architecture: str, head: int, tails: np.ndarray, scores: np.ndarray, k: int
) -> dict:
    rank = _top_k_rank(scores, tails, k)
    return {
        "task_type": "LP",
        "model": architecture,
        "head": int(head),
        "tails": [int(tail) for tail in tails[rank]],
        "scores": [float(score) for score in scores[rank]],
    }


def _candidate_tails(
    pool: np.ndarray, ppr_list: Optional[List[Tuple[int, float]]]
) -> np.ndarray:
    """The tail candidates of one head: PPR top-c filtered to the pool.

    Extraction→inference pipelining: the PPR influence list localizes the
    candidate set around the head (in PPR order), restricted to the task's
    tail class.  An empty intersection falls back to the full pool so a
    poorly-connected head still gets an answer.
    """
    if ppr_list is None:
        return pool
    members = set(int(node) for node in pool)
    tails = [int(node) for node, _score in ppr_list if int(node) in members]
    return np.asarray(tails, dtype=np.int64) if tails else pool


def _predict_error(task_type: str, field: str, item: int, detail: str) -> dict:
    # Per-item errors ride back inside the window instead of raising: one
    # bad id must fail its own request, never the whole coalesced batch.
    return {"task_type": task_type, field: int(item), "error": detail}


def run_predict_batch(
    kg: KnowledgeGraph,
    registry,
    graph: str,
    task: str,
    architecture: str,
    items: Sequence[int],
    k: int,
    candidates: int,
    epoch: int = 0,
) -> List[dict]:
    """One coalesced ``/predict`` window: one payload per item, item order.

    Node classification gathers rows from the registry's cached
    full-target logits (one vectorized forward pass the first time, a row
    gather after); link prediction scores every head of the window against
    its candidate tails in **one** ``score_pairs`` call over the
    flattened (head, tail) pairs.  Scoring reduces per row
    (``sum(axis=1)`` over identical operands in identical order), so each
    row equals the scalar oracle's answer bit for bit.

    ``epoch`` pins the registry's built state (model + logits caches) to
    the graph snapshot ``kg`` is — a live graph bumps it on ingest so a
    window never answers from another epoch's forward pass.
    """
    model = registry.model(graph, task, architecture, kg, epoch)
    task_obj = model.task
    if task_obj.task_type == "NC":
        logits = registry.logits(graph, task, architecture, kg, epoch)
        positions = registry.target_positions(graph, task, architecture, kg, epoch)
        results = []
        for item in items:
            row = positions.get(int(item))
            if row is None:
                results.append(
                    _predict_error(
                        "NC", "node", item,
                        f"node {int(item)} is not a target of task {task!r}",
                    )
                )
            else:
                results.append(_nc_payload(architecture, int(item), logits[row]))
        return results

    heads = np.asarray([int(item) for item in items], dtype=np.int64)
    valid = (heads >= 0) & (heads < kg.num_nodes)
    pool = model.candidate_pool()
    if candidates > 0:
        # Batched candidate generation through the same PPR kernel the
        # /ppr op serves — bit-exact against the scalar ppr_top_k by the
        # existing kernel contract.
        from repro.sampling.ppr import batch_ppr_top_k

        ppr_by_head = (
            batch_ppr_top_k(
                artifacts_for(kg).csr("both"), heads[valid], candidates,
                alpha=PREDICT_PPR_ALPHA, eps=PREDICT_PPR_EPS,
            )
            if valid.any()
            else {}
        )
        tail_sets = [
            _candidate_tails(pool, ppr_by_head[int(head)]) if ok else None
            for head, ok in zip(heads, valid)
        ]
    else:
        tail_sets = [pool if ok else None for ok in valid]

    flat_heads = np.concatenate(
        [np.full(len(tails), head, dtype=np.int64)
         for head, tails in zip(heads, tail_sets) if tails is not None]
        or [np.empty(0, dtype=np.int64)]
    )
    flat_tails = np.concatenate(
        [tails for tails in tail_sets if tails is not None]
        or [np.empty(0, dtype=np.int64)]
    )
    flat_scores = (
        model.score_pairs(flat_heads, flat_tails)
        if len(flat_heads)
        else np.empty(0)
    )

    results = []
    offset = 0
    for head, tails in zip(heads, tail_sets):
        if tails is None:
            results.append(
                _predict_error(
                    "LP", "head", head,
                    f"head {int(head)} is out of range for graph {graph!r} "
                    f"(num_nodes={kg.num_nodes})",
                )
            )
            continue
        scores = flat_scores[offset : offset + len(tails)]
        offset += len(tails)
        results.append(_lp_payload(architecture, int(head), tails, scores, k))
    return results


def run_predict_oracle(
    kg: KnowledgeGraph,
    registry,
    graph: str,
    task: str,
    architecture: str,
    item: int,
    k: int,
    candidates: int,
    epoch: int = 0,
) -> dict:
    """The scalar ``/predict`` baseline: one request, no registry caches.

    Node classification recomputes the full ``predict_logits()`` pass for
    every request (the honest one-at-a-time cost); link prediction scores
    one head against its candidates through the model's public
    ``score_pairs``.  Candidate generation uses the *scalar*
    :func:`~repro.sampling.ppr.ppr_top_k` kernel.  The batched path must
    match this function's output bit for bit.
    """
    from repro.sampling.ppr import ppr_top_k

    model = registry.model(graph, task, architecture, kg, epoch)
    task_obj = model.task
    item = int(item)
    if task_obj.task_type == "NC":
        rows = np.nonzero(task_obj.target_nodes == item)[0]
        if len(rows) == 0:
            return _predict_error(
                "NC", "node", item,
                f"node {item} is not a target of task {task!r}",
            )
        logits = model.predict_logits()
        return _nc_payload(architecture, item, logits[int(rows[0])])

    if not 0 <= item < kg.num_nodes:
        return _predict_error(
            "LP", "head", item,
            f"head {item} is out of range for graph {graph!r} "
            f"(num_nodes={kg.num_nodes})",
        )
    pool = model.candidate_pool()
    if candidates > 0:
        ppr_list = ppr_top_k(
            artifacts_for(kg).csr("both"), item, candidates,
            PREDICT_PPR_ALPHA, PREDICT_PPR_EPS,
        )
        tails = _candidate_tails(pool, ppr_list)
    else:
        tails = pool
    scores = model.score_pairs(np.full(len(tails), item, dtype=np.int64), tails)
    return _lp_payload(architecture, item, tails, scores, k)

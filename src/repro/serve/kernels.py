"""Every coalesced serving window, declared once.

A window op (``ppr``, ``ego``, ``paths``, ``predict``) is one
:class:`Window` in :data:`WINDOWS`.  The service's coalescers and
dispatcher, the worker executor (``serve/transport.py``) and the worker
wire's codec all read this table, so adding a window op is one declaration plus
its kernel.  ``Window.run`` is the only place a batch kernel is called
with serving parameters, in this process or in a pool worker, so
in-process and pooled answers cannot diverge; ``ppr``, ``ego`` and
``paths`` run through the live graph's retained stores (the kernel runs
on misses only).

``/predict`` windows run :func:`run_predict_batch` (extraction→inference
pipelining: batch PPR candidates, one vectorized scoring pass per
window), whose scalar oracle :func:`run_predict_oracle` it matches bit
for bit (``tests/serve/test_predict.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.kg.cache import artifacts_for
from repro.kg.graph import KnowledgeGraph
from repro.models.shadowsaint import _EgoGraph, extract_ego
from repro.sampling.paths import enumerate_paths_scalar
from repro.sampling.ppr import ppr_top_k

#: PPR parameters used for link-prediction candidate generation (the same
#: defaults the ``/ppr`` op serves; candidates must match extraction).
PREDICT_PPR_ALPHA = 0.25
PREDICT_PPR_EPS = 2e-4


@dataclass(frozen=True)
class Window:
    """One coalesced window op.

    ``params`` name, in order, the request parameters that follow
    ``(graph, epoch)`` in the coalescing key; a window's payload is
    ``{"graph", "epoch", items: [...], **params}``.  ``check(params)``
    raises ``ValueError`` for a value that must reject its own request
    before it can fail a shared window.  ``run(live, registry, payload)``
    answers a window, one answer per item in item order;
    ``oracle(kg, registry, payload, item)`` answers one item with the
    scalar kernel (the serial baseline).  ``decode`` rebuilds one answer
    from its JSON form (``None``: the JSON is the answer).
    """

    name: str
    items: str
    params: Tuple[str, ...]
    check: Callable[[Dict[str, Any]], None]
    run: Callable[[Any, Any, dict], list]
    oracle: Callable[[KnowledgeGraph, Any, dict, Any], Any]
    decode: Optional[Callable[[Any], Any]] = None


def _at_least(**floors: int) -> Callable[[Dict[str, Any]], None]:
    def check(params: Dict[str, Any]) -> None:
        for name, floor in floors.items():
            if params[name] < floor:
                raise ValueError(f"{name} must be >= {floor}, got {params[name]}")

    return check


def _check_ppr(params: Dict[str, Any]) -> None:
    _at_least(k=1)(params)
    if not 0.0 < params["alpha"] <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {params['alpha']}")
    if params["eps"] <= 0.0:
        raise ValueError(f"eps must be positive, got {params['eps']}")


def _run_ppr(live, _registry, payload: dict) -> list:
    table = live.ppr_top_k(
        payload["targets"], payload["k"],
        alpha=payload["alpha"], eps=payload["eps"], epoch=payload.get("epoch"),
    )
    return [table[int(target)] for target in payload["targets"]]


def _run_predict(live, registry, payload: dict) -> list:
    # The registry keys its built state (model + logits) with the resolved
    # snapshot's epoch, so a window can never answer from another epoch's
    # forward pass.
    snapshot = live.resolve(payload.get("epoch"))
    return run_predict_batch(
        snapshot.kg, registry, payload["graph"], payload["task"],
        payload["model"], payload["items"], payload["k"],
        payload["candidates"], epoch=snapshot.number,
    )


WINDOWS: Dict[str, Window] = {window.name: window for window in (
    Window(
        "ppr", "targets", ("k", "alpha", "eps"), _check_ppr, _run_ppr,
        lambda kg, _registry, p, target: ppr_top_k(
            artifacts_for(kg).csr("both"), target, p["k"], p["alpha"], p["eps"]
        ),
        lambda row: [(int(node), float(score)) for node, score in row],
    ),
    Window(
        "ego", "roots", ("depth", "fanout", "salt"),
        _at_least(depth=0, fanout=1),
        lambda live, _registry, p: live.ego_batch(
            p["roots"], p["depth"], p["fanout"], p["salt"], epoch=p.get("epoch")
        ),
        lambda kg, _registry, p, root: extract_ego(
            kg, root, p["depth"], p["fanout"], p["salt"]
        ),
        lambda answer: _EgoGraph(**{
            name: np.asarray(answer[name], dtype=np.int64)
            for name in ("nodes", "src", "dst", "rel")
        }),
    ),
    Window(
        "paths", "pairs", ("max_hops", "max_paths"),
        _at_least(max_hops=1, max_paths=1),
        lambda live, _registry, p: live.paths_batch(
            p["pairs"], max_hops=p["max_hops"], max_paths=p["max_paths"],
            epoch=p.get("epoch"),
        ),
        lambda kg, _registry, p, pair: enumerate_paths_scalar(
            kg, pair[0], pair[1], p["max_hops"], p["max_paths"]
        ),
    ),
    Window(
        "predict", "items", ("task", "model", "k", "candidates"),
        _at_least(k=1, candidates=0), _run_predict,
        lambda kg, registry, p, item: run_predict_oracle(
            kg, registry, p["graph"], p["task"], p["model"], item, p["k"],
            p["candidates"], p["epoch"],
        ),
    ),
)}


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
